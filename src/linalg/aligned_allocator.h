#ifndef OTCLEAN_LINALG_ALIGNED_ALLOCATOR_H_
#define OTCLEAN_LINALG_ALIGNED_ALLOCATOR_H_

#include <cstddef>
#include <new>
#include <vector>

namespace otclean::linalg {

/// Allocates on 64-byte boundaries: one cache line, one AVX-512 register.
/// Matrix and Vector keep their doubles here so the SIMD kernels' row
/// loads never straddle cache lines because of where the heap happened to
/// put an array. With default 16-byte alignment a Sinkhorn iteration's
/// speed followed heap history: on one 4-vCPU AVX-512 host the same
/// 168×288 dense solve (perfbench car-noise) ran at 24–34 µs per
/// iteration depending on earlier, unrelated allocations, and at 22.6 µs
/// with the arrays aligned.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, size_t) noexcept { ::operator delete(p, kAlignment); }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept { return true; }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept { return false; }
};

/// Contiguous doubles on 64-byte boundaries.
using AlignedDoubles = std::vector<double, AlignedAllocator<double>>;

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_ALIGNED_ALLOCATOR_H_
