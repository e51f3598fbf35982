// ε-annealing + f32-tier bench for the plain Sinkhorn entry points: how
// many iterations a sharp-ε solve costs cold vs warmed through an
// EpsilonSchedule, and what the f32 storage tier buys per iteration, at
// dense and truncated-sparse kernels.
//
// Four configurations per grid point: {dense, sparse} × {f64, f32}, each
// solved twice — fixed ε (cold start) and annealed (larger-ε stages warm
// the final solve). Reported per row: final-ε iterations of both runs,
// the annealed run's total including stage iterations, and wall times.
//
// The iteration reduction is HARD-GATED per (kind, precision) group: the
// annealed totals (stages + final) summed over the problem sizes must be
// strictly below the fixed-ε totals, and every annealed run must
// converge, or the bench fails (exit 1) — so a regression in the
// warm-start rescaling or the stage plumbing cannot land silently. The
// gate sums over sizes rather than testing each row because per-size
// iteration counts move by a few iterations under rounding-level
// perturbation (SIMD tier, f32 narrowing); the summed margin is stable.
// Wall-clock ratios (f32 vs f64) are reported but not gated — they
// depend on the machine.
//
// Results are written to BENCH_epsilon_scaling.json.
//
// Flags:
//   --full     add the 2048² grid point (slower)
//   --smoke    256² only: CI smoke mode
//   (any --benchmark_min_time=... flag is treated as --smoke)

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "linalg/precision.h"
#include "linalg/simd.h"
#include "linalg/thread_pool.h"
#include "ot/sinkhorn.h"

using namespace otclean;

namespace {

/// Squared distance on the unit line, range [0, 1]. Deliberately smooth
/// and underflow-safe: max C/ε = 100 at the final ε, far from the
/// e^{-708} double cliff, so convergence is in the regular (plateau-free)
/// regime where iteration counts respond smoothly to the warm start and
/// the gate margin is reproducible. Sharper regimes (C/ε ≳ 700) show
/// far larger annealing wins, but through chaotic stall dynamics that no
/// deterministic gate can sit on.
linalg::Matrix BenchCost(size_t n) {
  linalg::Matrix cost(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double d = (static_cast<double>(i) - static_cast<double>(j)) /
                       static_cast<double>(n);
      cost(i, j) = d * d;
    }
  }
  return cost;
}

linalg::Vector RandomMarginal(size_t n, Rng& rng) {
  linalg::Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.05 + rng.NextDouble();
  v.Normalize();
  return v;
}

struct RunStats {
  size_t final_iterations = 0;
  size_t stage_iterations = 0;
  double ms = 0.0;
  bool converged = false;
  size_t total() const { return final_iterations + stage_iterations; }
};

struct BenchRow {
  const char* kind;       ///< "dense" | "sparse"
  const char* precision;  ///< "f64" | "f32"
  size_t n = 0;
  RunStats fixed;
  RunStats annealed;
};

size_t StageSum(const std::vector<ot::EpsilonAnnealStage>& stages) {
  size_t sum = 0;
  for (const ot::EpsilonAnnealStage& s : stages) sum += s.iterations;
  return sum;
}

/// One solve of the given configuration; ms is a single wall measurement
/// (iteration counts, the gated quantity, are deterministic).
RunStats RunOnce(const linalg::Matrix& cost, const linalg::Vector& p,
                 const linalg::Vector& q, const ot::SinkhornOptions& options,
                 bool sparse, double cutoff) {
  RunStats stats;
  WallTimer timer;
  if (sparse) {
    auto r = ot::RunSinkhornSparse(cost, p, q, options, cutoff);
    if (!r.ok()) {
      std::fprintf(stderr, "sparse solve failed: %s\n",
                   r.status().ToString().c_str());
      return stats;
    }
    stats.ms = timer.ElapsedSeconds() * 1e3;
    stats.final_iterations = r->iterations;
    stats.stage_iterations = StageSum(r->anneal_stages);
    stats.converged = r->converged;
  } else {
    auto r = ot::RunSinkhorn(cost, p, q, options);
    if (!r.ok()) {
      std::fprintf(stderr, "dense solve failed: %s\n",
                   r.status().ToString().c_str());
      return stats;
    }
    stats.ms = timer.ElapsedSeconds() * 1e3;
    stats.final_iterations = r->iterations;
    stats.stage_iterations = StageSum(r->anneal_stages);
    stats.converged = r->converged;
  }
  return stats;
}

void WriteJson(const std::string& path, const std::vector<BenchRow>& rows,
               bool gates_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"epsilon_scaling\",\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", linalg::simd::ActiveIsaName());
  std::fprintf(f, "  \"single_thread\": true,\n");
  std::fprintf(f, "  \"hardware_concurrency\": %zu,\n",
               linalg::ResolveThreadCount(0));
  std::fprintf(f, "  \"iteration_gates_ok\": %s,\n",
               gates_ok ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"kind\": \"%s\", \"precision\": \"%s\", \"n\": %zu, "
        "\"fixed_iterations\": %zu, \"fixed_ms\": %.3f, "
        "\"annealed_final_iterations\": %zu, "
        "\"annealed_stage_iterations\": %zu, "
        "\"annealed_total_iterations\": %zu, \"annealed_ms\": %.3f, "
        "\"iteration_reduction\": %.2f}%s\n",
        r.kind, r.precision, r.n, r.fixed.total(), r.fixed.ms,
        r.annealed.final_iterations, r.annealed.stage_iterations,
        r.annealed.total(), r.annealed.ms,
        r.annealed.total() > 0
            ? static_cast<double>(r.fixed.total()) /
                  static_cast<double>(r.annealed.total())
            : 0.0,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0 ||
        std::strncmp(argv[i], "--benchmark_min_time", 20) == 0) {
      smoke = true;
    }
  }
  const bool full = bench::FullScale(argc, argv);

  bench::PrintHeader(
      "epsilon annealing + f32 kernel tier on plain Sinkhorn",
      "iterations to tolerance, fixed sharp ε vs annealed warm start");

  std::vector<size_t> sizes;
  if (smoke) {
    sizes = {256};
  } else {
    sizes = {256, 512, 1024};
    if (full) sizes.push_back(2048);
  }

  // A sharp final ε with a tight tolerance, solved to the geometric tail.
  // The schedule is a single halving stage with loose convergence and a
  // hard cap: the stage is warm-up, not a solve. In this regular regime
  // the rescaled coarse-ε potentials land the final solve 1–2 error
  // decades ahead of a cold start, which buys more final-ε iterations
  // (the expensive kind — the contraction rate degrades as ε sharpens)
  // than the cheap ε=0.02 stage costs.
  ot::SinkhornOptions base;
  base.epsilon = 0.01;
  base.tolerance = 1e-8;
  base.max_iterations = 200000;
  base.num_threads = 1;

  ot::EpsilonSchedule schedule;
  schedule.initial_epsilon = 0.02;
  schedule.decay = 0.5;
  schedule.stage_tolerance = 1e-3;
  schedule.stage_max_iterations = 100;

  // Truncation cutoff in kernel space at the FINAL ε: e^{-C/0.01} with
  // costs in [0, 1] spans down to e^{-100}; 1e-30 keeps C ≲ 0.69 — a
  // band around the diagonal holding ~69% of entries. At the stage ε the
  // same cutoff keeps everything, so the stage kernel is a full band.
  const double cutoff = 1e-30;

  std::vector<BenchRow> rows;
  Rng rng(29);

  std::printf("%-7s %-5s %-6s %-11s %-18s %-10s %-10s %-7s\n", "kind",
              "prec", "n", "fixed_iter", "annealed(st+fin)", "fixed_ms",
              "anneal_ms", "reduce");
  for (const size_t n : sizes) {
    const linalg::Matrix cost = BenchCost(n);
    const linalg::Vector p = RandomMarginal(n, rng);
    const linalg::Vector q = RandomMarginal(n, rng);

    for (const bool sparse : {false, true}) {
      for (const linalg::Precision precision :
           {linalg::Precision::kFloat64, linalg::Precision::kFloat32}) {
        BenchRow row;
        row.kind = sparse ? "sparse" : "dense";
        row.precision =
            precision == linalg::Precision::kFloat32 ? "f32" : "f64";
        row.n = n;

        ot::SinkhornOptions fixed = base;
        fixed.precision = precision;
        row.fixed = RunOnce(cost, p, q, fixed, sparse, cutoff);

        ot::SinkhornOptions annealed = fixed;
        annealed.epsilon_schedule = schedule;
        row.annealed = RunOnce(cost, p, q, annealed, sparse, cutoff);

        char anneal_note[40];
        std::snprintf(anneal_note, sizeof anneal_note, "%zu (%zu+%zu)",
                      row.annealed.total(), row.annealed.stage_iterations,
                      row.annealed.final_iterations);
        std::printf(
            "%-7s %-5s %-6zu %-11zu %-18s %-10.2f %-10.2f %-7.2f\n",
            row.kind, row.precision, n, row.fixed.total(), anneal_note,
            row.fixed.ms, row.annealed.ms,
            static_cast<double>(row.fixed.total()) /
                static_cast<double>(row.annealed.total()));
        rows.push_back(row);
      }
    }
    // f32-vs-f64 wall-clock at this n (fixed-ε runs; not gated).
    for (size_t i = rows.size() - 4; i + 1 < rows.size(); i += 2) {
      const BenchRow& f64_row = rows[i];
      const BenchRow& f32_row = rows[i + 1];
      std::printf("# %s %zu: f32 fixed-ε wall %.2f ms vs f64 %.2f ms "
                  "(%.2fx)\n",
                  f64_row.kind, n, f32_row.fixed.ms, f64_row.fixed.ms,
                  f32_row.fixed.ms > 0.0 ? f64_row.fixed.ms / f32_row.fixed.ms
                                         : 0.0);
    }
  }

  // The gate: per (kind, precision) group, annealed totals summed over
  // the sizes must beat the fixed totals, and every run must converge.
  bool gates_ok = true;
  for (const char* kind : {"dense", "sparse"}) {
    for (const char* precision : {"f64", "f32"}) {
      size_t fixed_sum = 0, annealed_sum = 0;
      bool all_converged = true;
      for (const BenchRow& row : rows) {
        if (std::strcmp(row.kind, kind) != 0 ||
            std::strcmp(row.precision, precision) != 0) {
          continue;
        }
        fixed_sum += row.fixed.total();
        annealed_sum += row.annealed.total();
        all_converged &= row.fixed.converged && row.annealed.converged;
      }
      const bool group_ok = all_converged && annealed_sum < fixed_sum;
      std::printf("# gate %s/%s: fixed %zu vs annealed %zu (%.2fx)%s — %s\n",
                  kind, precision, fixed_sum, annealed_sum,
                  annealed_sum > 0 ? static_cast<double>(fixed_sum) /
                                         static_cast<double>(annealed_sum)
                                   : 0.0,
                  all_converged ? "" : " [non-converged run]",
                  group_ok ? "ok" : "FAIL");
      gates_ok &= group_ok;
    }
  }

  WriteJson("BENCH_epsilon_scaling.json", rows, gates_ok);
  std::printf("# iteration gates passed = %s\n", gates_ok ? "yes" : "NO");
  return gates_ok ? 0 : 1;
}
