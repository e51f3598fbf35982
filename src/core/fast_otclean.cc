#include "core/fast_otclean.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/hash.h"
#include "core/fault_injector.h"
#include "core/solve_cache.h"
#include "linalg/log_transport_kernel.h"
#include "linalg/simd_exp.h"
#include "linalg/thread_pool.h"
#include "linalg/transport_kernel.h"
#include "nmf/kl_nmf.h"

namespace otclean::core {

namespace {

/// The outer loop's kernel, built ONCE per repair — cost and ε are
/// invariant across the outer loop, so each outer step only reruns the
/// (warm-started) scaling loop. One kernel of the shape the truncation ×
/// domain options select (dense/CSR × linear/log) sits behind this
/// surface, at the storage scalar `options.precision` names. In
/// log-domain mode the "potentials" threaded through the outer loop (and
/// its warm starts) are LOG-potentials; the implementation is the only
/// place that needs to know.
///
/// The truncated paths are cost-free in the O(rows×cols) sense: the
/// kernel is built by streaming the CostProvider tile-by-tile, and every
/// ⟨C, π⟩ evaluation gathers cost entries only at the kernel's support.
/// The dense paths materialize the cost matrix once per build, since their
/// kernel already holds rows×cols entries.
class OuterLoopKernel {
 public:
  OuterLoopKernel() = default;
  OuterLoopKernel(const OuterLoopKernel&) = delete;
  OuterLoopKernel& operator=(const OuterLoopKernel&) = delete;
  virtual ~OuterLoopKernel() = default;

  virtual bool log_domain() const = 0;
  virtual size_t nnz() const = 0;
  /// True when the kernel storage came out of the solve cache (nothing was
  /// streamed or exponentiated for this repair).
  virtual bool kernel_hit() const = 0;

  /// Truncation must not strand source mass: every active-domain row needs
  /// at least one surviving kernel entry. (Columns may legitimately go
  /// empty — the relaxed target marginal simply never reaches them.)
  virtual Status CheckSupport(const linalg::Vector& p,
                              const char* where) const = 0;

  /// One inner Sinkhorn solve against the current column marginal. The
  /// returned (and warm-start) u/v vectors are linear scalings on the
  /// linear paths and log-potentials on the log paths — opaque to the
  /// outer loop, which only threads them back in.
  virtual Result<ot::SinkhornScaling> Solve(
      const linalg::Vector& p, const linalg::Vector& q_cols,
      const ot::SinkhornOptions& sink, const linalg::Vector* warm_u,
      const linalg::Vector* warm_v, const ExecContext& ctx) const = 0;

  /// Column marginal of the plan at the current potentials, without
  /// materializing it: (Kᵀu) ∘ v linearly, e^{logsumexp + lv} in log mode
  /// (exact 0 where either factor is −inf). `scratch` is reused across
  /// outer steps.
  virtual void ColumnMarginal(const linalg::Vector& u, const linalg::Vector& v,
                              linalg::Vector& scratch,
                              linalg::Vector& target_mass) const = 0;

  /// Row marginal of the plan, the mirror image: u ∘ (K v) linearly,
  /// e^{lu + logsumexp} in log mode.
  virtual void RowMarginal(const linalg::Vector& u, const linalg::Vector& v,
                           linalg::Vector& scratch,
                           linalg::Vector& source_mass) const = 0;

  /// ⟨C, π⟩ at the current potentials: the cached materialized cost on the
  /// dense paths, the cached O(nnz) support costs on the sparse ones.
  virtual double TransportCost(const linalg::Vector& u,
                               const linalg::Vector& v) const = 0;

  /// Materializes the final plan from the converged potentials and stores
  /// ⟨C, π⟩ in `transport_cost`. The sparse paths stay CSR end to end —
  /// TransportPlan keeps the CSR backing, so no dense rows×cols plan is
  /// ever allocated on a truncated solve, log-domain included.
  virtual ot::TransportPlan MaterializePlan(
      const prob::Domain& dom, const std::vector<size_t>& row_cells,
      const std::vector<size_t>& col_cells, const linalg::Vector& u,
      const linalg::Vector& v, double& transport_cost) const = 0;
};

template <typename Storage>
struct IsSparseStorage : std::false_type {};
template <typename T>
struct IsSparseStorage<linalg::BasicSparseKernelStorage<T>> : std::true_type {
};

/// OuterLoopKernel over one concrete kernel type. The kernel's cache entry
/// carries the companion its TransportCost reads, so the outer loop never
/// re-invokes the cost function: the support costs (sparse paths, C
/// gathered once at the kernel's support) or the materialized cost (dense
/// paths, the zero-copy ⟨C, π⟩ fast path).
template <typename Kernel>
class KernelOuterLoop final : public OuterLoopKernel {
 public:
  static constexpr bool kLog =
      std::is_base_of_v<linalg::LogTransportKernel, Kernel>;
  static constexpr bool kSparse =
      IsSparseStorage<typename Kernel::Storage>::value;

  /// Finds or builds the kernel. `cache` (nullable) with an invalid `key`
  /// is a silent no-op, so the uncached construction path is unchanged. A
  /// hit adopts the cached storage — the same bytes the miss built, hence
  /// bit-identical arithmetic — and streams no cost. A miss
  /// builds it, checking every streamed cost for finiteness (`where` names
  /// the repair in the error), and publishes it with its companions; a
  /// rejected build publishes nothing. `poison` (FaultSite::kKernelNan,
  /// never cached) swaps the checked kernel for Poisoned's.
  static Result<std::unique_ptr<const OuterLoopKernel>> Create(
      const char* where, const linalg::CostProvider& cost,
      const FastOtCleanOptions& options, linalg::ThreadPool* pool,
      SolveCache* cache, const SolveCacheKey& key, bool poison) {
    OTCLEAN_ASSIGN_OR_RETURN(
        AcquiredKernel<Kernel> acquired,
        AcquireKernel<Kernel>(cache, key, options.num_threads, pool,
                              [&](CachedKernel& entry) {
                                return Build(where, cost, options, pool,
                                             poison, entry);
                              }));
    return std::unique_ptr<const OuterLoopKernel>(
        new KernelOuterLoop(std::move(acquired), cost));
  }

  KernelOuterLoop(AcquiredKernel<Kernel> acquired,
                  const linalg::CostProvider& cost)
      : acquired_(std::move(acquired)) {
    // A hit on an entry published without the companion rebuilds it here.
    CachedKernel& entry = acquired_.entry;
    if constexpr (kSparse) {
      if (!entry.support_costs) {
        entry.support_costs = std::make_shared<const std::vector<double>>(
            kernel().GatherSupportCosts(cost));
      }
    } else {
      if (!entry.dense_cost) {
        entry.dense_cost = std::make_shared<const linalg::Matrix>(
            linalg::MaterializeCostMatrix(cost));
      }
    }
  }

  bool log_domain() const override { return kLog; }
  size_t nnz() const override { return kernel().nnz(); }
  bool kernel_hit() const override { return acquired_.hit; }

  Status CheckSupport(const linalg::Vector& p,
                      const char* where) const override {
    if constexpr (kSparse) {
      const auto& storage = *kernel().shared_storage();
      return ot::CheckTruncatedKernelSupport(storage.matrix.row_ptr(),
                                             storage.csc.col_ptr, &p,
                                             /*q=*/nullptr, where);
    } else {
      return Status::OK();
    }
  }

  Result<ot::SinkhornScaling> Solve(
      const linalg::Vector& p, const linalg::Vector& q_cols,
      const ot::SinkhornOptions& sink, const linalg::Vector* warm_u,
      const linalg::Vector* warm_v, const ExecContext& ctx) const override {
    if constexpr (kLog) {
      OTCLEAN_ASSIGN_OR_RETURN(ot::SinkhornLogScaling s,
                               ot::RunSinkhornLogScaling(kernel(), p, q_cols,
                                                         sink, warm_u, warm_v,
                                                         ctx));
      ot::SinkhornScaling out;
      out.u = std::move(s.lu);
      out.v = std::move(s.lv);
      out.iterations = s.iterations;
      out.converged = s.converged;
      out.omega = s.omega;
      return out;
    } else {
      return ot::RunSinkhornScaling(kernel(), p, q_cols, sink, warm_u, warm_v,
                                    ctx);
    }
  }

  void ColumnMarginal(const linalg::Vector& u, const linalg::Vector& v,
                      linalg::Vector& scratch,
                      linalg::Vector& target_mass) const override {
    if constexpr (kLog) {
      kernel().LogApplyTranspose(u, scratch);
    } else {
      kernel().ApplyTranspose(u, scratch);
    }
    ScaleApplied(scratch, v, target_mass);
  }

  void RowMarginal(const linalg::Vector& u, const linalg::Vector& v,
                   linalg::Vector& scratch,
                   linalg::Vector& source_mass) const override {
    if constexpr (kLog) {
      kernel().LogApply(v, scratch);
    } else {
      kernel().Apply(v, scratch);
    }
    ScaleApplied(scratch, u, source_mass);
  }

  double TransportCost(const linalg::Vector& u,
                       const linalg::Vector& v) const override {
    if constexpr (kSparse) {
      return kernel().SupportTransportCost(*acquired_.entry.support_costs, u,
                                           v);
    } else if constexpr (kLog) {
      return kernel().TransportCost(
          linalg::MatrixCostProvider(*acquired_.entry.dense_cost), u, v);
    } else {
      return kernel().TransportCost(*acquired_.entry.dense_cost, u, v);
    }
  }

  ot::TransportPlan MaterializePlan(const prob::Domain& dom,
                                    const std::vector<size_t>& row_cells,
                                    const std::vector<size_t>& col_cells,
                                    const linalg::Vector& u,
                                    const linalg::Vector& v,
                                    double& transport_cost) const override {
    transport_cost = TransportCost(u, v);
    if constexpr (kSparse) {
      return ot::TransportPlan(dom, row_cells, col_cells,
                               kernel().ScaleToPlanSparse(u, v));
    } else {
      return ot::TransportPlan(dom, row_cells, col_cells,
                               kernel().ScaleToPlan(u, v));
    }
  }

 private:
  /// The miss path: builds the kernel, checking each cost in the build's
  /// own pass, and records its companion in `entry` so both are published
  /// together.
  static Result<Kernel> Build(const char* where,
                              const linalg::CostProvider& cost,
                              const FastOtCleanOptions& options,
                              linalg::ThreadPool* pool, bool poison,
                              CachedKernel& entry) {
    OTCLEAN_ASSIGN_OR_RETURN(Kernel kernel,
                             CheckedBuild(where, cost, options, pool, entry));
    if (poison) kernel = Poisoned(kernel, options, pool);
    if constexpr (kSparse) {
      entry.support_costs = std::make_shared<const std::vector<double>>(
          kernel.GatherSupportCosts(cost));
    }
    return kernel;
  }

  static Result<Kernel> CheckedBuild(const char* where,
                                     const linalg::CostProvider& cost,
                                     const FastOtCleanOptions& options,
                                     linalg::ThreadPool* pool,
                                     CachedKernel& entry) {
    const size_t threads = options.num_threads;
    if constexpr (kSparse) {
      return ot::BuildCheckedKernel<Kernel>(where, cost, options.epsilon,
                                            options.kernel_truncation,
                                            threads, pool);
    } else {
      // The check rides on the stream that materializes the cost; the
      // kernel then builds from the checked matrix.
      OTCLEAN_ASSIGN_OR_RETURN(
          linalg::Matrix dense,
          ot::StreamChecked(where, cost, [](const linalg::CostProvider& view) {
            return linalg::MaterializeCostMatrix(view);
          }));
      entry.dense_cost =
          std::make_shared<const linalg::Matrix>(std::move(dense));
      return Kernel::FromCost(*entry.dense_cost, options.epsilon, threads,
                              pool);
    }
  }

  /// FaultSite::kKernelNan: the kernel an all-NaN cost builds — every
  /// dense entry NaN (e^{−NaN/ε} linear, −NaN/ε log), no truncated entry
  /// kept (NaN ≥ cutoff is false) — modelling a build whose arithmetic
  /// blew up wholesale. It replaces a build that passed the finite-cost
  /// check, so the NaN reaches the solve the way a runtime numeric
  /// blow-up would instead of being rejected at the door. (A single
  /// poisoned entry would not do: the scaling loop's per-iteration
  /// clamping quarantines an isolated NaN by zeroing its row, and the
  /// solve limps to a wrong-but-finite answer — the failure under test is
  /// the deterministic endpoint where the plan loses all mass.)
  static Kernel Poisoned(const Kernel& built,
                         const FastOtCleanOptions& options,
                         linalg::ThreadPool* pool) {
    const size_t m = built.rows();
    const size_t n = built.cols();
    if constexpr (kSparse) {
      return Kernel(typename Kernel::Csr(linalg::SparseMatrix(m, n)),
                    options.num_threads, pool);
    } else {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      const double entry = kLog ? -nan / options.epsilon
                                : std::exp(-nan / options.epsilon);
      return Kernel(typename Kernel::Storage(linalg::Matrix(m, n, entry)),
                    options.num_threads, pool);
    }
  }

  /// The marginal from one kernel application `applied` (K·v or Kᵀ·u, or
  /// their log-sum-exps) and the other side's potential: their product
  /// linearly, e^{applied + potential} in log mode.
  static void ScaleApplied(const linalg::Vector& applied,
                           const linalg::Vector& potential,
                           linalg::Vector& mass) {
    if constexpr (kLog) {
      if (mass.size() != applied.size()) mass = linalg::Vector(applied.size());
      for (size_t i = 0; i < applied.size(); ++i) {
        mass[i] = linalg::simd::PolyExp(applied[i] + potential[i]);
      }
    } else {
      mass = applied.CwiseProduct(potential);
    }
  }

  const Kernel& kernel() const { return acquired_.kernel; }

  AcquiredKernel<Kernel> acquired_;
};

/// Finds or builds the outer-loop kernel for `options`: the shape from the
/// truncation and domain flags, the storage scalar from the precision.
Result<std::unique_ptr<const OuterLoopKernel>> MakeOuterLoopKernel(
    const char* where, const linalg::CostProvider& cost,
    const FastOtCleanOptions& options, linalg::ThreadPool* pool,
    SolveCache* cache, const SolveCacheKey& key, bool poison) {
  return linalg::WithKernelScalar(
      options.precision,
      [&](auto scalar) -> Result<std::unique_ptr<const OuterLoopKernel>> {
        using T = decltype(scalar);
        const bool truncated = options.kernel_truncation > 0.0;
        if (options.log_domain && truncated) {
          return KernelOuterLoop<linalg::BasicSparseLogTransportKernel<T>>::
              Create(where, cost, options, pool, cache, key, poison);
        }
        if (options.log_domain) {
          return KernelOuterLoop<linalg::BasicDenseLogTransportKernel<T>>::
              Create(where, cost, options, pool, cache, key, poison);
        }
        if (truncated) {
          return KernelOuterLoop<linalg::BasicSparseTransportKernel<T>>::
              Create(where, cost, options, pool, cache, key, poison);
        }
        return KernelOuterLoop<linalg::BasicDenseTransportKernel<T>>::Create(
            where, cost, options, pool, cache, key, poison);
      });
}

/// FaultSite::kAlloc checkpoint: models the outer-loop kernel allocation
/// failing. Thrown rather than returned so the unwind path — cache pins
/// released, pool and caller state intact — is exercised exactly as a real
/// std::bad_alloc from the kernel storages would be; the repair boundary
/// (core/repair.cc) converts it to kResourceExhausted.
void MaybeInjectAllocFailure(FaultInjector* injector) {
  if (injector != nullptr && injector->ShouldFire(FaultSite::kAlloc)) {
    throw std::bad_alloc();
  }
}

/// Stable identity of a FastOTClean solve's restricted cost stream. The
/// cost fingerprint alone is not enough: the kernel's values depend on
/// which tuples the active-domain restriction decodes at each row/column,
/// so the domain shape and both cell lists are folded in. This combined
/// fingerprint seeds both the outer kernel's cache key and (as
/// `cache_cost_fingerprint`) the ε-annealing stages' per-ε keys, so stage
/// kernels from different repairs of the same table share cache entries.
/// 0 when the cost is unfingerprintable (caching off).
uint64_t FastCostFingerprint(const ot::CostFunction& cost,
                             const prob::Domain& dom,
                             const std::vector<size_t>& row_cells,
                             const std::vector<size_t>& col_cells) {
  const uint64_t fp = cost.Fingerprint();
  if (fp == 0) return 0;
  uint64_t h = HashMix(kHashSeed, 0xFA57u);
  h = HashMix(h, fp);
  h = HashMix(h, dom.num_attrs());
  for (size_t c : dom.cardinalities()) h = HashMix(h, c);
  h = HashMix(h, row_cells.size());
  for (size_t c : row_cells) h = HashMix(h, c);
  h = HashMix(h, col_cells.size());
  for (size_t c : col_cells) h = HashMix(h, c);
  return h == 0 ? 1 : h;
}

/// Cache key for a FastOTClean solve's outer-loop kernel. Invalid key
/// (caching off) when the cost is unfingerprintable.
SolveCacheKey MakeFastCacheKey(uint64_t fast_fingerprint,
                               const std::vector<size_t>& row_cells,
                               const std::vector<size_t>& col_cells,
                               const FastOtCleanOptions& options) {
  if (fast_fingerprint == 0) return SolveCacheKey{};
  return MakeSolveCacheKey(fast_fingerprint, row_cells.size(),
                           col_cells.size(), options.epsilon,
                           options.kernel_truncation, options.log_domain,
                           /*salt=*/0, options.precision);
}

/// The warm-start store speaks linear-domain potentials regardless of the
/// solve's domain mode (one canonical representation per key namespace);
/// the log paths lift on fetch and exponentiate on store.
void LiftWarmToLog(linalg::Vector& w) {
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = w[i] > 0.0 ? std::log(w[i])
                      : -std::numeric_limits<double>::infinity();
  }
}

linalg::Vector WarmToLinear(const linalg::Vector& w, bool log_domain) {
  if (!log_domain) return w;
  linalg::Vector out(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    out[i] = std::isfinite(w[i]) ? std::exp(w[i]) : 0.0;
  }
  return out;
}

/// ε-annealing for the first inner solve: when the schedule is enabled,
/// the caller's warm_start plumbing is on, and no (warmer) cached warm
/// start was fetched, runs the larger-ε stage sequence against the
/// *initial* column marginal and leaves the rescaled potentials in
/// warm_u/warm_v (lifted to log-potentials on the log paths, matching the
/// outer loop's representation). Later outer steps stay warm off the
/// previous step as usual. Stage kernels share `options.solve_cache`
/// under per-ε keys seeded by `fast_fingerprint`.
Status MaybeAnnealFirstSolve(const linalg::CostProvider& cost_view,
                             const linalg::Vector& p,
                             const prob::JointDistribution& q,
                             const std::vector<size_t>& col_cells,
                             const FastOtCleanOptions& options,
                             const ot::SinkhornOptions& sink,
                             uint64_t fast_fingerprint, bool log_domain,
                             linalg::ThreadPool* pool, const ExecContext& ctx,
                             linalg::Vector& warm_u, linalg::Vector& warm_v,
                             FastOtCleanResult& result) {
  if (!options.epsilon_schedule.enabled() || !options.warm_start ||
      result.cache_warm_started) {
    return Status::OK();
  }
  linalg::Vector q_cols(col_cells.size());
  for (size_t j = 0; j < col_cells.size(); ++j) q_cols[j] = q[col_cells[j]];
  ot::SinkhornOptions anneal = sink;
  anneal.epsilon_schedule = options.epsilon_schedule;
  anneal.solve_cache = options.solve_cache;
  anneal.cache_cost_fingerprint = fast_fingerprint;
  OTCLEAN_ASSIGN_OR_RETURN(
      ot::EpsilonAnnealWarmStart aw,
      ot::RunSinkhornAnnealed(cost_view, p, q_cols, anneal,
                              /*sparse=*/options.kernel_truncation > 0.0,
                              options.kernel_truncation, pool, ctx));
  warm_u = std::move(aw.u);
  warm_v = std::move(aw.v);
  if (log_domain) {
    LiftWarmToLog(warm_u);
    LiftWarmToLog(warm_v);
  }
  result.anneal_stages = std::move(aw.stages);
  return Status::OK();
}

/// Cross-request warm start (fetch side): seeds the outer loop's warm
/// vectors from the cache when enabled, sizes match, and the caller's own
/// warm_start plumbing will pick them up. Returns the stored cold
/// baseline via `cold_iterations`.
bool FetchCachedWarmStart(SolveCache* cache, const SolveCacheKey& key,
                          const FastOtCleanOptions& options, size_t rows,
                          size_t cols, bool log_domain, linalg::Vector& warm_u,
                          linalg::Vector& warm_v, size_t& cold_iterations) {
  if (cache == nullptr || !key.valid()) return false;
  if (!options.warm_start || !options.cache_warm_start) return false;
  auto stored = cache->FindWarmStart(key);
  if (!stored) return false;
  if (stored->u.size() != rows || stored->v.size() != cols) return false;
  warm_u = std::move(stored->u);
  warm_v = std::move(stored->v);
  if (log_domain) {
    LiftWarmToLog(warm_u);
    LiftWarmToLog(warm_v);
  }
  cold_iterations = stored->cold_iterations;
  return true;
}

/// Store side: persists the converged potentials (linear domain) and
/// credits iteration savings against the key's cold baseline.
void StoreCachedWarmStart(SolveCache* cache, const SolveCacheKey& key,
                          const FastOtCleanOptions& options, bool log_domain,
                          const linalg::Vector& warm_u,
                          const linalg::Vector& warm_v,
                          size_t cold_iterations, FastOtCleanResult& result) {
  if (cache == nullptr || !key.valid()) return;
  if (!options.warm_start || !options.cache_warm_start || !result.converged) {
    return;
  }
  cache->StoreWarmStart(key, WarmToLinear(warm_u, log_domain),
                        WarmToLinear(warm_v, log_domain),
                        result.total_sinkhorn_iterations);
  if (result.cache_warm_started &&
      cold_iterations > result.total_sinkhorn_iterations) {
    result.cache_warm_iterations_saved =
        cold_iterations - result.total_sinkhorn_iterations;
    cache->RecordWarmSavings(result.cache_warm_iterations_saved);
  }
}

/// Expands a marginal over `cells` into a dense distribution over `dom`.
prob::JointDistribution ExpandToDomain(const prob::Domain& dom,
                                       const std::vector<size_t>& cells,
                                       const linalg::Vector& mass) {
  prob::JointDistribution out(dom);
  for (size_t i = 0; i < cells.size(); ++i) out[cells[i]] = mass[i];
  return out;
}

/// CI projection computed by per-z-slice iterative Lee–Seung rank-one NMF,
/// used when options.iterative_nmf is set. Produces the same distribution
/// as prob::CiProjection at convergence.
prob::JointDistribution IterativeNmfProjection(
    const prob::JointDistribution& t, const prob::CiSpec& ci,
    size_t nmf_max_iterations, Rng& rng) {
  const prob::Domain& dom = t.domain();
  // Slice layout: for each z cell, matrix A_z of size d_X × d_Y where
  // (x, y) aggregates all cells with those X/Y/Z projections. For a
  // saturated constraint every cell maps uniquely to (x, y, z).
  const prob::Domain dom_x = dom.Project(ci.x);
  const prob::Domain dom_y = dom.Project(ci.y);
  const prob::Domain dom_z =
      ci.z.empty() ? prob::Domain::FromCardinalities({1}) : dom.Project(ci.z);
  const size_t dx = dom_x.TotalSize();
  const size_t dy = dom_y.TotalSize();
  const size_t dz = ci.z.empty() ? 1 : dom_z.TotalSize();

  // Aggregate P(x, y, z) and the conditional of any remaining attributes.
  std::vector<linalg::Matrix> slices(dz, linalg::Matrix(dx, dy, 0.0));
  for (size_t cell = 0; cell < t.size(); ++cell) {
    const double p = t[cell];
    if (p <= 0.0) continue;
    const size_t xi = dom.ProjectIndex(cell, ci.x);
    const size_t yi = dom.ProjectIndex(cell, ci.y);
    const size_t zi = ci.z.empty() ? 0 : dom.ProjectIndex(cell, ci.z);
    slices[zi](xi, yi) += p;
  }

  // Factorize each slice: A_z ≈ W_z · H_zᵀ (Algorithm 2 lines 8–12).
  std::vector<linalg::Matrix> approx(dz, linalg::Matrix(dx, dy, 0.0));
  nmf::KlNmfOptions nmf_opts;
  nmf_opts.rank = 1;
  nmf_opts.max_iterations = nmf_max_iterations;
  for (size_t zi = 0; zi < dz; ++zi) {
    if (slices[zi].Sum() <= 0.0) continue;
    auto r = nmf::KlNmf(slices[zi], nmf_opts, rng);
    if (r.ok()) {
      approx[zi] =
          linalg::Matrix::OuterProduct(r->w.Col(0), r->h.Row(0));
    } else {
      approx[zi] = slices[zi];
    }
  }

  // Reassemble q over the full domain, carrying P(rest | x,y,z) along.
  std::vector<size_t> xyz = ci.x;
  xyz.insert(xyz.end(), ci.y.begin(), ci.y.end());
  xyz.insert(xyz.end(), ci.z.begin(), ci.z.end());
  const prob::JointDistribution rest_given_xyz = t.ConditionalOn(xyz);
  prob::JointDistribution q(dom);
  for (size_t cell = 0; cell < q.size(); ++cell) {
    const size_t xi = dom.ProjectIndex(cell, ci.x);
    const size_t yi = dom.ProjectIndex(cell, ci.y);
    const size_t zi = ci.z.empty() ? 0 : dom.ProjectIndex(cell, ci.z);
    q[cell] = approx[zi](xi, yi) * rest_given_xyz[cell];
  }
  q.Normalize();
  return q;
}

/// Outer step B's CI projection of the plan's target marginal, chosen once
/// per repair. It may use the repair's `prob::CiProjector` (built once).
using ProjectionStep = std::function<prob::JointDistribution(
    const prob::CiProjector&, const prob::JointDistribution&)>;

/// The relaxed objective (Eq. 11) of the plan π = diag(u)·K·diag(v)
/// against the target `q_cols`:
///   J = ⟨C,π⟩ + ε Σ π(log π − 1) + λ KL(π1 ‖ p) + λ KL(πᵀ1 ‖ q)
///     = ε (Σᵢ rᵢ log uᵢ + Σⱼ cⱼ log vⱼ − Σπ) + λ KL(r ‖ p) + λ KL(c ‖ q),
/// with r = π1, c = πᵀ1 (`col_mass`, unnormalized) and the generalized
/// KL(a ‖ b) = Σ a log(a/b) − a + b. On the log paths u and v are already
/// log-potentials. Costs one extra kernel application, for r.
double RelaxedObjective(const OuterLoopKernel& kernel, const linalg::Vector& p,
                        const linalg::Vector& q_cols, const linalg::Vector& u,
                        const linalg::Vector& v,
                        const linalg::Vector& col_mass, double epsilon,
                        double lambda, linalg::Vector& scratch) {
  linalg::Vector row_mass;
  kernel.RowMarginal(u, v, scratch, row_mass);
  const bool log_domain = kernel.log_domain();
  double entropic = 0.0;
  double mass = 0.0;
  double kl = 0.0;
  const auto add = [&](double a, double potential, double b) {
    if (a > 0.0) {
      entropic += a * (log_domain ? potential : std::log(potential));
      kl += a * std::log(a / b);
    }
    kl += b - a;
  };
  for (size_t i = 0; i < row_mass.size(); ++i) {
    add(row_mass[i], u[i], p[i]);
    mass += row_mass[i];
  }
  for (size_t j = 0; j < col_mass.size(); ++j) {
    add(col_mass[j], v[j], q_cols[j]);
  }
  return epsilon * (entropic - mass) + lambda * kl;
}

/// The outer loop starts mixing once its TV residual first falls below
/// this: mixing from the first step lands the loop on a worse fixed point
/// (a higher relaxed objective) on strongly violated tables.
constexpr double kMixStartDelta = 1e-3;
/// Iterates whose residuals the mix combines.
constexpr size_t kMixDepth = 10;
/// Tikhonov weight of the mixing least squares, relative to the trace of
/// its Gram matrix: an ill-conditioned secant step otherwise amplifies
/// rounding noise (e.g. the last bits of the linear vs log-domain paths)
/// into visibly different repairs.
constexpr double kMixRegularization = 1e-3;

/// Anderson mixing (Walker & Ni 2011) of the outer fixed-point map
/// x ← G(x), x the target Q over the domain. From the residuals
/// f = G(x) − x of the last kMixDepth iterates the next iterate is
/// G(x) − ΔG·γ, where ΔG and ΔF hold the successive differences of G(x)
/// and f, and γ = argmin ‖f − ΔF γ‖² + μ‖γ‖², μ = kMixRegularization ·
/// trace(ΔFᵀΔF). The history restarts whenever ‖f‖₂ grows.
class AndersonMixer {
 public:
  /// Records the iterate x and its image g = G(x). Returns the mixed next
  /// iterate (unclipped, unnormalized), or nullopt when the history holds
  /// no difference to mix — the next iterate is then g itself.
  std::optional<linalg::Vector> Push(const linalg::Vector& x,
                                     const linalg::Vector& g) {
    linalg::Vector f = g - x;
    const double norm = std::sqrt(SerialDot(f, f));
    if (!prev_g_.empty() && norm > prev_norm_) Clear();
    if (!prev_g_.empty()) {
      if (dg_.size() + 1 == kMixDepth) {
        dg_.erase(dg_.begin());
        df_.erase(df_.begin());
      }
      dg_.push_back(g - prev_g_);
      df_.push_back(f - prev_f_);
    }
    prev_g_ = g;
    prev_f_ = f;
    prev_norm_ = norm;
    if (df_.empty()) return std::nullopt;

    // Normal equations (ΔFᵀΔF + μI) γ = ΔFᵀf, solved by Cholesky.
    const size_t k = df_.size();
    std::vector<double> a(k * k), gamma(k);
    double trace = 0.0;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j <= i; ++j) {
        a[i * k + j] = a[j * k + i] = SerialDot(df_[i], df_[j]);
      }
      gamma[i] = SerialDot(df_[i], f);
      trace += a[i * k + i];
    }
    if (!(trace > 0.0) || !std::isfinite(trace)) return std::nullopt;
    for (size_t i = 0; i < k; ++i) a[i * k + i] += kMixRegularization * trace;
    for (size_t j = 0; j < k; ++j) {  // a = L Lᵀ, L in the lower half
      double* lj = &a[j * k];
      for (size_t m = 0; m < j; ++m) lj[j] -= lj[m] * lj[m];
      lj[j] = std::sqrt(lj[j]);
      for (size_t i = j + 1; i < k; ++i) {
        double* li = &a[i * k];
        for (size_t m = 0; m < j; ++m) li[j] -= li[m] * lj[m];
        li[j] /= lj[j];
      }
    }
    for (size_t i = 0; i < k; ++i) {  // L y = b
      for (size_t m = 0; m < i; ++m) gamma[i] -= a[i * k + m] * gamma[m];
      gamma[i] /= a[i * k + i];
    }
    for (size_t i = k; i-- > 0;) {  // Lᵀ γ = y
      for (size_t m = i + 1; m < k; ++m) gamma[i] -= a[m * k + i] * gamma[m];
      gamma[i] /= a[i * k + i];
    }

    linalg::Vector next = g;
    for (size_t c = 0; c < k; ++c) {
      for (size_t e = 0; e < next.size(); ++e) next[e] -= gamma[c] * dg_[c][e];
    }
    return next;
  }

  void Clear() {
    dg_.clear();
    df_.clear();
    prev_g_ = linalg::Vector();
    prev_f_ = linalg::Vector();
  }

 private:
  /// In index order on every SIMD tier, so the mix is tier-independent.
  static double SerialDot(const linalg::Vector& a, const linalg::Vector& b) {
    double s = 0.0;
    for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  }

  std::vector<linalg::Vector> dg_, df_;
  linalg::Vector prev_g_, prev_f_;
  double prev_norm_ = 0.0;
};

/// A mixed target's fallback, restored if the mixed step is rejected: the
/// plain step's target G(Q), and the potentials solved against Q with Q's
/// column restriction.
struct PlainStep {
  prob::JointDistribution target;
  linalg::Vector u, v, q_cols;
};

/// THE FastOTClean outer loop (Algorithm 2): alternate a warm-started
/// Sinkhorn solve against the current target Q (step A) with a CI
/// projection of the plan's target marginal (step B) until Q stops
/// moving. `project` is the projection strategy; `where` prefixes errors.
///
/// Steps A and B together are the fixed-point map Q ← G(Q), whose TV
/// residual shrinks only slowly near the fixed point. Once it falls below
/// kMixStartDelta (and CI enforcement is exact, ci_strength = 1) each next
/// target is the Anderson mix of the recent iterates, clipped at 0,
/// normalized and re-projected onto the CI set. The exact relaxed
/// objective guards every mixed step: if J after its solve exceeds J
/// before it, the step is rolled back to the plain target G(Q) and its
/// potentials, the mixing history restarts, and the rejected point is
/// never declared converged. Plain steps decrease J (alternating
/// minimization), so the guard keeps the loop on the plain loop's fixed
/// point.
Result<FastOtCleanResult> RunFastOtClean(const char* where,
                                         const prob::JointDistribution& p_data,
                                         const std::vector<prob::CiSpec>& cis,
                                         const ot::CostFunction& cost,
                                         const FastOtCleanOptions& options,
                                         const ProjectionStep& project,
                                         Rng& rng, const ExecContext& ctx) {
  const auto invalid = [&](const char* what) {
    return Status::InvalidArgument(std::string(where) + ": " + what);
  };
  const prob::Domain& dom = p_data.domain();
  if (dom.TotalSize() == 0) return invalid("empty domain");
  if (cis.empty()) return invalid("no constraints");
  if (std::fabs(p_data.Mass() - 1.0) > 1e-6) {
    return invalid("p_data must be normalized");
  }
  if (options.ci_strength < 0.0 || options.ci_strength > 1.0) {
    return invalid("ci_strength must be in [0,1]");
  }
  // NaN passes a plain `<= 0` test; each would otherwise surface only as
  // "plan lost all mass" (which retries treat as retryable) or, for
  // λ = 0, as a silent identity repair.
  if (!(options.epsilon > 0.0) || !std::isfinite(options.epsilon)) {
    return invalid("epsilon must be a positive finite number");
  }
  if (!(options.lambda > 0.0) || !std::isfinite(options.lambda)) {
    return invalid("lambda must be a positive finite number");
  }
  if (options.max_outer_iterations == 0) {
    return invalid("max_outer_iterations must be > 0");
  }

  // Active-domain restriction (Section 5, default optimization 1).
  std::vector<size_t> row_cells;
  for (size_t i = 0; i < p_data.size(); ++i) {
    if (p_data[i] > 0.0) row_cells.push_back(i);
  }
  if (row_cells.empty()) return invalid("p_data carries no mass");
  std::vector<size_t> col_cells;
  if (options.restrict_columns_to_active) {
    col_cells = row_cells;
  } else {
    col_cells.resize(dom.TotalSize());
    for (size_t i = 0; i < col_cells.size(); ++i) col_cells[i] = i;
  }

  linalg::Vector p(row_cells.size());
  for (size_t i = 0; i < row_cells.size(); ++i) p[i] = p_data[row_cells[i]];

  const ot::FunctionCostProvider cost_view(dom, row_cells, col_cells, cost);
  // Costs are checked for finiteness inside the kernel build below (a NaN
  // or ±inf from a user cost function would otherwise be truncated away or
  // flushed to 0 by the kernels); a cache hit builds nothing and checks
  // nothing.
  OTCLEAN_RETURN_NOT_OK(CheckStop(ctx, where));

  // kKernelNan poisons the kernel after its build passed that check, so
  // the NaN reaches the solve exactly like a runtime numeric blow-up would.
  // A poisoned solve bypasses the cache entirely (fast_fp stays 0 below): a
  // poisoned kernel must never be published under the clean cost's key.
  const bool poison_kernel =
      ctx.faults != nullptr && ctx.faults->ShouldFire(FaultSite::kKernelNan);

  // Initial target distribution Q (Section 5, default optimization 2).
  // The projector's index tables serve every projection of this repair.
  const prob::CiProjector projector(dom, cis);
  prob::JointDistribution q(dom);
  if (options.nmf_init) {
    q = projector.Project(p_data);
  } else {
    for (size_t i = 0; i < q.size(); ++i) q[i] = rng.NextDouble();
    q.Normalize();
    q = projector.Project(q);  // random but feasible start
  }

  ot::SinkhornOptions sink;
  sink.epsilon = options.epsilon;
  sink.lambda = options.lambda;
  sink.relaxed = true;
  sink.max_iterations = options.max_sinkhorn_iterations;
  sink.tolerance = options.sinkhorn_tolerance;
  sink.log_domain = options.log_domain;
  sink.num_threads = options.num_threads;
  sink.precision = options.precision;

  // One worker pool for the whole repair: every Sinkhorn iteration of
  // every outer step dispatches on it instead of spawning threads anew.
  std::optional<linalg::ThreadPool> owned_pool;
  linalg::ThreadPool* pool = linalg::ResolveSolvePool(
      options.thread_pool, options.num_threads, owned_pool);

  const uint64_t fast_fp =
      options.solve_cache != nullptr && !poison_kernel
          ? FastCostFingerprint(cost, dom, row_cells, col_cells)
          : 0;
  const SolveCacheKey cache_key =
      MakeFastCacheKey(fast_fp, row_cells, col_cells, options);
  MaybeInjectAllocFailure(ctx.faults);
  OTCLEAN_ASSIGN_OR_RETURN(
      const std::unique_ptr<const OuterLoopKernel> kernel,
      MakeOuterLoopKernel(where, cost_view, options, pool,
                          options.solve_cache, cache_key, poison_kernel));
  OTCLEAN_RETURN_NOT_OK(kernel->CheckSupport(p, where));

  FastOtCleanResult result;
  result.kernel_nnz = kernel->nnz();
  if (options.solve_cache != nullptr && cache_key.valid()) {
    result.cache_kernel_hits = kernel->kernel_hit() ? 1 : 0;
    result.cache_kernel_misses = kernel->kernel_hit() ? 0 : 1;
  }
  linalg::Vector warm_u, warm_v, ktu;
  size_t warm_cold_baseline = 0;
  result.cache_warm_started = FetchCachedWarmStart(
      options.solve_cache, cache_key, options, p.size(), col_cells.size(),
      kernel->log_domain(), warm_u, warm_v, warm_cold_baseline);
  OTCLEAN_RETURN_NOT_OK(MaybeAnnealFirstSolve(
      cost_view, p, q, col_cells, options, sink, fast_fp,
      kernel->log_domain(), pool, ctx, warm_u, warm_v, result));

  // The mixing state: engaged once the residual first drops below
  // kMixStartDelta; `j_accepted` is J at the last accepted solve, and
  // `pending` the plain step a mixed target replaced.
  const bool may_mix = options.ci_strength >= 1.0;
  bool mixing = false;
  AndersonMixer mixer;
  std::optional<PlainStep> pending;
  double j_accepted = 0.0;
  linalg::Vector q_cols(col_cells.size()), kv;
  for (size_t outer = 0; outer < options.max_outer_iterations; ++outer) {
    OTCLEAN_RETURN_NOT_OK(CheckStop(ctx, where));
    // Inexact inner solves: while Q still moves by δ per outer step, a
    // potential change far below δ buys nothing — the next projection
    // moves the target again. Each solve runs to 0.1 × the previous outer
    // step's TV delta, never below sinkhorn_tolerance (the first solve,
    // with no delta yet, runs at the floor).
    if (outer > 0) {
      sink.tolerance =
          std::max(options.sinkhorn_tolerance, 0.1 * result.final_outer_delta);
    }
    // --- Outer step A: transport plan against the current Q (Sinkhorn). ---
    for (size_t j = 0; j < col_cells.size(); ++j) q_cols[j] = q[col_cells[j]];

    const linalg::Vector* wu =
        (options.warm_start && warm_u.size() == p.size()) ? &warm_u : nullptr;
    const linalg::Vector* wv =
        (options.warm_start && warm_v.size() == q_cols.size()) ? &warm_v
                                                               : nullptr;
    OTCLEAN_ASSIGN_OR_RETURN(ot::SinkhornScaling sr,
                             kernel->Solve(p, q_cols, sink, wu, wv, ctx));
    warm_u = std::move(sr.u);
    warm_v = std::move(sr.v);
    result.total_sinkhorn_iterations += sr.iterations;
    result.final_inner_tolerance = sink.tolerance;
    result.final_inner_omega = sr.omega;
    if (!sr.converged) ++result.capped_inner_solves;
    result.objective_trace.push_back(kernel->TransportCost(warm_u, warm_v));
    result.outer_iterations = outer + 1;

    // --- Outer step B: project the plan's target marginal back onto the
    // CI constraints (Algorithm 2 lines 8–13). ---
    // Column marginal of the plan without materializing it.
    linalg::Vector target_mass;
    kernel->ColumnMarginal(warm_u, warm_v, ktu, target_mass);
    const double total = target_mass.Sum();
    if (total <= 0.0) {
      return Status::Internal(std::string(where) + ": plan lost all mass");
    }
    if (mixing) {
      const double j = RelaxedObjective(*kernel, p, q_cols, warm_u, warm_v,
                                        target_mass, options.epsilon,
                                        options.lambda, kv);
      if (pending.has_value() && !(j <= j_accepted)) {
        // The mixed step raised J: take the plain step instead.
        q = std::move(pending->target);
        warm_u = std::move(pending->u);
        warm_v = std::move(pending->v);
        q_cols = std::move(pending->q_cols);
        pending.reset();
        mixer.Clear();
        ++result.rejected_mixes;
        continue;
      }
      pending.reset();
      j_accepted = j;
    }
    target_mass /= total;
    prob::JointDistribution t = ExpandToDomain(dom, col_cells, target_mass);
    prob::JointDistribution q_proj = project(projector, t);

    if (options.ci_strength < 1.0) {
      // Soft enforcement: blend projection with the raw marginal (finite μ).
      for (size_t i = 0; i < q_proj.size(); ++i) {
        q_proj[i] = options.ci_strength * q_proj[i] +
                    (1.0 - options.ci_strength) * t[i];
      }
      q_proj.Normalize();
    }

    const double delta = q.TotalVariation(q_proj);
    result.final_outer_delta = delta;
    if (delta <= options.outer_tolerance) {
      q = std::move(q_proj);
      result.converged = true;
      break;
    }
    mixing = mixing || (may_mix && delta < kMixStartDelta);
    std::optional<linalg::Vector> mixed;
    if (mixing) mixed = mixer.Push(q.probs(), q_proj.probs());
    if (!mixed.has_value()) {
      q = std::move(q_proj);
      continue;
    }
    // The mixed target: clipped at 0, normalized, re-projected.
    prob::JointDistribution q_mix(dom);
    for (size_t i = 0; i < q_mix.size(); ++i) {
      q_mix[i] = std::max(0.0, (*mixed)[i]);
    }
    if (!(q_mix.Mass() > 0.0)) {
      q = std::move(q_proj);
      continue;
    }
    q_mix.Normalize();
    pending = PlainStep{std::move(q_proj), warm_u, warm_v, q_cols};
    q = projector.Project(q_mix);
    ++result.mixed_outer_steps;
  }
  // A mixed target the cap left unsolved gives way to its plain step: the
  // returned target is G of the returned plan's target, as without mixing.
  if (pending.has_value()) q = std::move(pending->target);

  linalg::Vector final_cols;
  kernel->ColumnMarginal(warm_u, warm_v, ktu, final_cols);
  result.final_relaxed_objective =
      RelaxedObjective(*kernel, p, q_cols, warm_u, warm_v, final_cols,
                       options.epsilon, options.lambda, kv);
  result.plan = kernel->MaterializePlan(dom, row_cells, col_cells, warm_u,
                                        warm_v, result.transport_cost);
  result.target = q;
  result.target_cmi = projector.MaxCmi(q);
  StoreCachedWarmStart(options.solve_cache, cache_key, options,
                       kernel->log_domain(), warm_u, warm_v,
                       warm_cold_baseline, result);
  return result;
}

}  // namespace

Result<FastOtCleanResult> FastOtClean(const prob::JointDistribution& p_data,
                                      const prob::CiSpec& ci,
                                      const ot::CostFunction& cost,
                                      const FastOtCleanOptions& options,
                                      Rng& rng, const ExecContext& ctx) {
  if (!options.iterative_nmf) {
    // The closed-form single-constraint projection is the one-spec case of
    // the cyclic multi-constraint projection.
    return FastOtCleanMulti(p_data, {ci}, cost, options, rng, ctx);
  }
  return RunFastOtClean(
      "FastOtClean", p_data, {ci}, cost, options,
      [&](const prob::CiProjector&, const prob::JointDistribution& t) {
        return IterativeNmfProjection(t, ci, options.nmf_max_iterations, rng);
      },
      rng, ctx);
}

Result<FastOtCleanResult> FastOtCleanMulti(
    const prob::JointDistribution& p_data,
    const std::vector<prob::CiSpec>& cis, const ot::CostFunction& cost,
    const FastOtCleanOptions& options, Rng& rng, const ExecContext& ctx) {
  return RunFastOtClean(
      "FastOtCleanMulti", p_data, cis, cost, options,
      [](const prob::CiProjector& projector, const prob::JointDistribution& t) {
        return projector.Project(t);
      },
      rng, ctx);
}

}  // namespace otclean::core
