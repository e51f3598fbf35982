#include "ot/sinkhorn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "core/solve_cache.h"
#include "linalg/log_transport_kernel.h"
#include "linalg/simd.h"
#include "linalg/thread_pool.h"
#include "ot/overrelaxation.h"

namespace otclean::ot {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Guards the scaling vectors against overflow and junk. Kernels with a
/// large dynamic range (e.g. costs that effectively forbid some moves) can
/// push u or v past the double range over many iterations; an infinite
/// scaling entry then zeroes the opposite vector and silently drains the
/// plan — +inf (and any overflow past 1e150) clamps to 1e150 to keep
/// u·K·v finite. A NaN (a 0/0 — no mass demanded, none reachable) or a
/// negative entry means "no mass" and collapses to 0: mapping it to the
/// clamp CEILING, as this function once did, inflated u·K·v and
/// transport_cost with mass that never existed.
void ClampScaling(linalg::Vector& s) {
  constexpr double kMax = 1e150;
  for (size_t i = 0; i < s.size(); ++i) {
    if (std::isnan(s[i]) || s[i] < 0.0) {
      s[i] = 0.0;
    } else if (s[i] > kMax) {
      s[i] = kMax;
    }
  }
}

/// Relaxed update exponent λ/(λ+ε) (Frogner et al., Prop 4.2; the paper's
/// Eq. 5 exponent ρλ/(ρλ+1) with ρ = 1/ε). 1 in classic (hard-marginal)
/// mode.
double RelaxedExponent(const SinkhornOptions& options) {
  return options.relaxed ? options.lambda / (options.lambda + options.epsilon)
                         : 1.0;
}

/// THE convergence loop — every solver variant (dense, sparse, relaxed,
/// linear- or log-domain) runs this one loop and differs only in its
/// half-iteration updates. `row_update(v, u, new_u, relax)` writes the next
/// row potential from the current column potential (including any relaxed
/// exponent, clamping and the over-relaxation `relax`) and returns its
/// max-change against the previous row potential `u`;
/// `col_update(new_u, v, new_v, relax)` the converse. Fusing the change
/// metric into the update pass is what keeps the loop free of
/// per-iteration temporaries.
/// A non-OK return means the solve was aborted by the context's token or
/// deadline — the stop is checked once per iteration, before
/// the half-updates, so an abort never leaves a half-applied iteration
/// and a completed loop is bit-identical to one run without the checks.
/// The caller's ScopedStopFlag (installed around this loop) additionally
/// lets pooled kernel dispatches drain mid-iteration once a token fires.
/// Over-relaxation (ot/overrelaxation.h), relaxed mode only: ω starts at
/// 1 and is re-estimated at every kOverRelaxationWindow-th iteration from
/// the contraction of the max-change over the window's second half (the
/// first half absorbs the transient of the previous change of ω); the
/// guard window is recomputed whenever ω moves, and the final ω lands in
/// `omega`. Every input to the estimate is a max-change, exact on every
/// SIMD tier, so the ω sequence is as deterministic as the iterates.
/// Classic (hard-marginal) mode keeps the plain update: its warm-start
/// accelerator is ε-annealing (EpsilonSchedule), and on the regular
/// problems bench_epsilon_scaling gates, an over-relaxed fixed-ε solve
/// leaves annealing nothing to win.
template <typename RowUpdate, typename ColUpdate>
Status RunScalingLoop(linalg::Vector& u, linalg::Vector& v,
                      const SinkhornOptions& options, const ExecContext& ctx,
                      const char* where, size_t& iterations, bool& converged,
                      double& omega, RowUpdate&& row_update,
                      ColUpdate&& col_update) {
  linalg::Vector new_u(u.size()), new_v(v.size());
  linalg::simd::OverRelaxation relax;
  double mark = 0.0;  // max-change at the middle of the current window
  for (size_t it = 0; it < options.max_iterations; ++it) {
    OTCLEAN_RETURN_NOT_OK(CheckStop(ctx, where));
    const double du = row_update(v, u, new_u, relax);
    const double dv = col_update(new_u, v, new_v, relax);
    std::swap(u, new_u);
    std::swap(v, new_v);
    iterations = it + 1;
    omega = relax.omega;
    if (du <= options.tolerance && dv <= options.tolerance) {
      converged = true;
      return Status::OK();
    }
    if (!options.relaxed) continue;
    const size_t phase = iterations % kOverRelaxationWindow;
    if (phase == kOverRelaxationWindow / 2) {
      mark = std::max(du, dv);
    } else if (phase == 0 && mark > 0.0) {
      const double rho =
          std::pow(std::max(du, dv) / mark,
                   1.0 / static_cast<double>(kOverRelaxationWindow / 2));
      const double next = NextOverRelaxationFactor(relax.omega, rho);
      if (next != relax.omega) {
        relax = MakeOverRelaxation(next, options.lambda, options.epsilon);
      }
    }
  }
  return Status::OK();
}

/// One log-domain half-update, lp_i = λ'·(log marg_i − lse_i), fused with
/// its change metric against the previous potential `prev`. A zero
/// marginal or an unreachable entry keeps lp_i = −inf (the linear-domain
/// 0/0 := 0 convention). Over-relaxation follows the linear element
/// (simd_exp.h OverRelaxedScale) on log-potentials: with t = prev_i − lp_i
/// finite and in the guard window, lp_i moves to lp_i + (1 − ω)·t. Two
/// −inf entries are an unchanged "no mass"
/// state (Δ = 0 for that coordinate), but a potential flipping between
/// finite and −inf — mass appearing or disappearing under relaxed mode —
/// is a real, infinite change: it must read as Δ = ∞, never be skipped,
/// or the loop reports convergence in the very iteration the support
/// changed.
double LogHalfUpdate(const linalg::Vector& log_marginal,
                     const linalg::Vector& lse, double exponent,
                     const linalg::simd::OverRelaxation& relax,
                     const linalg::Vector& prev, linalg::Vector& next) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool over = relax.omega != 1.0;
  double d = 0.0;
  for (size_t i = 0; i < next.size(); ++i) {
    next[i] = (log_marginal[i] == kNegInf || lse[i] == kNegInf)
                  ? kNegInf
                  : exponent * (log_marginal[i] - lse[i]);
    if (over) {
      const double t = prev[i] - next[i];
      if (std::isfinite(t) && t >= relax.t_lo && t <= relax.t_hi) {
        next[i] = std::fma(1.0 - relax.omega, t, next[i]);
      }
    }
    if (next[i] == prev[i]) continue;  // equal finites, and −inf vs −inf
    const double di = std::fabs(next[i] - prev[i]);
    d = std::isfinite(di) ? std::max(d, di) : kInf;
  }
  return d;
}

/// ln with log(0) := −inf (the log-domain "no mass" marker; note this is
/// NOT Vector::CwiseLogSafe, whose 0 ↦ 0 convention serves entropy sums).
double LogOrNegInf(double x) {
  return x > 0.0 ? std::log(x) : kNegInf;
}

/// ε must be a positive finite number, and so must λ in relaxed mode (its
/// exponent λ/(λ+ε) is meaningless otherwise). NaN passes a plain `<= 0`
/// test, and a NaN, negative or zero λ would run to completion and drain
/// or freeze the plan — reject them up front, naming the field.
Status ValidateRegularization(const char* where,
                              const SinkhornOptions& options) {
  if (!(options.epsilon > 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument(
        std::string(where) + ": epsilon = " + std::to_string(options.epsilon) +
        " (it must be a positive finite number)");
  }
  if (options.relaxed &&
      (!(options.lambda > 0.0) || !std::isfinite(options.lambda))) {
    return Status::InvalidArgument(
        std::string(where) + ": lambda = " + std::to_string(options.lambda) +
        " (relaxed mode needs a positive finite number)");
  }
  return Status::OK();
}

Status ValidateMarginals(const char* where, const linalg::Vector& p,
                         const linalg::Vector& q) {
  for (size_t i = 0; i < p.size(); ++i) {
    if (!std::isfinite(p[i]) || p[i] < 0.0) {
      return Status::InvalidArgument(
          std::string(where) + ": source marginal p[" + std::to_string(i) +
          "] = " + std::to_string(p[i]) + " (entries must be finite and >= 0)");
    }
  }
  for (size_t j = 0; j < q.size(); ++j) {
    if (!std::isfinite(q[j]) || q[j] < 0.0) {
      return Status::InvalidArgument(
          std::string(where) + ": target marginal q[" + std::to_string(j) +
          "] = " + std::to_string(q[j]) + " (entries must be finite and >= 0)");
    }
  }
  return Status::OK();
}

/// Warm starts either match the problem exactly or are an error — a
/// silently ignored warm vector cold-starts the solve, which an outer
/// loop (FastOTClean) would never notice beyond mysteriously slow
/// convergence.
Status ValidateWarmStart(const char* where, const linalg::Vector* warm_u,
                         size_t rows, const linalg::Vector* warm_v,
                         size_t cols) {
  if (warm_u != nullptr && warm_u->size() != rows) {
    return Status::InvalidArgument(
        std::string(where) + ": warm_u has size " +
        std::to_string(warm_u->size()) + " but the problem has " +
        std::to_string(rows) + " rows (pass null to cold-start)");
  }
  if (warm_v != nullptr && warm_v->size() != cols) {
    return Status::InvalidArgument(
        std::string(where) + ": warm_v has size " +
        std::to_string(warm_v->size()) + " but the problem has " +
        std::to_string(cols) + " columns (pass null to cold-start)");
  }
  return Status::OK();
}

/// Generous upper bound on annealing stages — a schedule whose geometric
/// decay needs more than this many stages to reach the final ε (decay
/// pathologically close to 1, or an absurd initial/final ratio) is a
/// configuration error, not a workload.
constexpr size_t kMaxAnnealStages = 64;

Status ValidateSchedule(const char* where, const SinkhornOptions& options) {
  const EpsilonSchedule& s = options.epsilon_schedule;
  if (!s.enabled()) return Status::OK();
  if (!(s.initial_epsilon > options.epsilon)) {
    return Status::InvalidArgument(
        std::string(where) + ": epsilon_schedule.initial_epsilon (" +
        std::to_string(s.initial_epsilon) +
        ") must exceed the final epsilon (" + std::to_string(options.epsilon) +
        ") — annealing runs from easy (large ε) to sharp (small ε)");
  }
  if (!(s.decay > 0.0 && s.decay < 1.0)) {
    return Status::InvalidArgument(
        std::string(where) + ": epsilon_schedule.decay = " +
        std::to_string(s.decay) + " must lie in (0, 1)");
  }
  if (!(s.stage_tolerance > 0.0)) {
    return Status::InvalidArgument(
        std::string(where) + ": epsilon_schedule.stage_tolerance must be > 0");
  }
  if (s.stage_max_iterations == 0) {
    return Status::InvalidArgument(
        std::string(where) +
        ": epsilon_schedule.stage_max_iterations must be positive");
  }
  size_t stages = 0;
  for (double e = s.initial_epsilon; e > options.epsilon;
       e = std::max(options.epsilon, e * s.decay)) {
    if (++stages > kMaxAnnealStages) {
      return Status::InvalidArgument(
          std::string(where) + ": epsilon_schedule would run more than " +
          std::to_string(kMaxAnnealStages) +
          " stages — use a smaller decay or initial_epsilon");
    }
  }
  return Status::OK();
}

Status ValidateInputs(const char* where, const linalg::CostProvider& cost,
                      const linalg::Vector& p, const linalg::Vector& q,
                      const SinkhornOptions& options) {
  if (p.size() != cost.rows() || q.size() != cost.cols()) {
    return Status::InvalidArgument(std::string(where) +
                                   ": marginal dimension mismatch");
  }
  OTCLEAN_RETURN_NOT_OK(ValidateRegularization(where, options));
  // max_iterations == 0 silently returned the cold-start potentials as a
  // "converged: false" result — an all-ones plan scaling that looks like a
  // solve. tolerance <= 0 (or NaN) can never be met, so every run burned
  // the full iteration budget and reported failure. Both are caller bugs;
  // reject them loudly.
  if (options.max_iterations == 0) {
    return Status::InvalidArgument(
        std::string(where) +
        ": max_iterations must be positive (a 0-iteration run would return "
        "the unsolved cold-start scalings)");
  }
  if (!(options.tolerance > 0.0)) {
    return Status::InvalidArgument(
        std::string(where) + ": tolerance = " +
        std::to_string(options.tolerance) +
        " can never be reached (it must be a positive number)");
  }
  if (Status s = ValidateSchedule(where, options); !s.ok()) return s;
  // Costs are checked for finiteness by the kernel build (a miss), not
  // here: a solve-cache hit streams no cost at all.
  return ValidateMarginals(where, p, q);
}

}  // namespace

// A NaN or ±inf cost entry propagates through the kernel into a NaN (or
// silently empty) plan; reject it up front, naming the offending entry.
Status NonFiniteCostError(const char* where, size_t row, size_t col,
                          double value) {
  return Status::InvalidArgument(
      std::string(where) + ": cost(" + std::to_string(row) + ", " +
      std::to_string(col) + ") = " + std::to_string(value) +
      " is not finite; costs must be finite (use a large finite penalty "
      "for forbidden moves)");
}

Status ValidateFiniteCosts(const char* where,
                           const linalg::CostProvider& cost) {
  const size_t rows = cost.rows();
  const size_t cols = cost.cols();
  if (const linalg::Matrix* dense = cost.AsMatrix()) {
    const double* data = dense->data().data();
    for (size_t i = 0; i < dense->size(); ++i) {
      if (!std::isfinite(data[i])) {
        return NonFiniteCostError(where, i / cols, i % cols, data[i]);
      }
    }
    return Status::OK();
  }
  std::vector<double> tile(std::min(cols, linalg::kCostStreamTileCols));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c0 = 0; c0 < cols; c0 += tile.size()) {
      const size_t c1 = std::min(cols, c0 + tile.size());
      cost.Fill(r, c0, c1, tile.data());
      for (size_t c = c0; c < c1; ++c) {
        if (!std::isfinite(tile[c - c0])) {
          return NonFiniteCostError(where, r, c, tile[c - c0]);
        }
      }
    }
  }
  return Status::OK();
}

namespace {

/// Per-solve view of the cross-request cache: resolves the key once,
/// no-ops throughout when the cache is absent or the fingerprint is 0.
/// One instance serves all four kernel-building paths (dense/sparse ×
/// linear/log) — the key's log_domain/sparse flags come from the options
/// and cutoff. `where` names the solve in a rejected build's error.
struct CacheSession {
  const char* where;
  core::SolveCache* cache = nullptr;
  core::SolveCacheKey key;
  std::optional<core::CachedWarmStart> stored;
  bool warm_used = false;
  bool use_warm_store = false;

  CacheSession(const char* solve, const SinkhornOptions& options, size_t rows,
               size_t cols, double cutoff)
      : where(solve) {
    if (options.solve_cache == nullptr) return;
    key = core::MakeSolveCacheKey(options.cache_cost_fingerprint, rows, cols,
                                  options.epsilon, cutoff, options.log_domain,
                                  /*salt=*/0, options.precision);
    if (!key.valid()) return;
    cache = options.solve_cache;
    use_warm_store = options.cache_warm_start;
  }

  bool active() const { return cache != nullptr; }

  /// Find-or-build of a `Kernel` from `Kernel::FromCost(args...)` under
  /// the session key (a plain build when the session is inactive), held
  /// as a `Base`. A miss rejects a non-finite cost (BuildCheckedKernel);
  /// a hit reads none.
  template <typename Kernel, typename Base = Kernel, typename... Args>
  Result<std::unique_ptr<const Base>> Acquire(size_t num_threads,
                                              linalg::ThreadPool* pool,
                                              const Args&... args) {
    OTCLEAN_ASSIGN_OR_RETURN(
        core::AcquiredKernel<Kernel> acquired,
        core::AcquireKernel<Kernel>(
            cache, key, num_threads, pool, [&](core::CachedKernel&) {
              return BuildCheckedKernel<Kernel>(where, args..., num_threads,
                                                pool);
            }));
    return std::unique_ptr<const Base>(
        std::make_unique<Kernel>(std::move(acquired.kernel)));
  }

  /// Redirects null warm pointers at the stored potentials (caller's
  /// explicit warm vectors always win; stored sizes must match exactly —
  /// else cold-start fallback).
  void MaybeWarm(const linalg::Vector*& warm_u,
                 const linalg::Vector*& warm_v) {
    if (!active() || !use_warm_store) return;
    if (warm_u != nullptr || warm_v != nullptr) return;
    stored = cache->FindWarmStart(key);
    if (!stored) return;
    if (stored->u.size() != key.rows || stored->v.size() != key.cols) {
      stored.reset();
      return;
    }
    warm_u = &stored->u;
    warm_v = &stored->v;
    warm_used = true;
  }

  /// Persists converged potentials and credits iteration savings against
  /// the key's cold baseline. Diverged runs store nothing — their
  /// potentials would poison later warm starts.
  void Finish(const linalg::Vector& u, const linalg::Vector& v,
              size_t iterations, bool converged) {
    if (!active() || !use_warm_store || !converged) return;
    cache->StoreWarmStart(key, u, v, iterations);
    if (warm_used && stored->cold_iterations > iterations) {
      cache->RecordWarmSavings(stored->cold_iterations - iterations);
    }
  }
};

/// Lifts linear-domain warm-start scalings into log-potentials when
/// present (the public RunSinkhorn/RunSinkhornSparse APIs speak linear u/v
/// even in log-domain mode, so warm starts round-trip between domains).
void WarmLogPotentials(const linalg::Vector* warm, size_t size,
                       std::optional<linalg::Vector>& out) {
  if (warm == nullptr) return;
  out.emplace(size);
  for (size_t i = 0; i < size; ++i) (*out)[i] = LogOrNegInf((*warm)[i]);
}

/// Shared tail of both log-domain entry points: linear-domain u/v from
/// the converged log-potentials.
void ExpPotentials(const linalg::Vector& lp, linalg::Vector& out) {
  out = linalg::Vector(lp.size());
  for (size_t i = 0; i < lp.size(); ++i) {
    out[i] = lp[i] == kNegInf ? 0.0 : std::exp(lp[i]);
  }
  ClampScaling(out);
}

/// Potential carry-over between annealing stages: u ≈ e^{f/ε} for a dual
/// potential f that varies slowly with ε, so the stage-(k+1) start is
/// u^{ε_k/ε_{k+1}}. Zeros ("no mass") stay zero; the exponent exceeds 1
/// (ε shrinks), so clamp the blow-up exactly as the engine loop would.
void RescalePotentials(linalg::Vector& s, double ratio) {
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = s[i] > 0.0 ? std::pow(s[i], ratio) : 0.0;
  }
  ClampScaling(s);
}

/// Annealing applies only when nobody supplied a better start: explicit
/// warm vectors and warm-store hits are already warm. Call after
/// CacheSession::MaybeWarm so store hits have claimed the pointers.
bool ShouldAnneal(const SinkhornOptions& options, const linalg::Vector* warm_u,
                  const linalg::Vector* warm_v) {
  return options.epsilon_schedule.enabled() && warm_u == nullptr &&
         warm_v == nullptr;
}

/// One annealing stage: build (or fetch from the solve cache) the kernel
/// at the stage ε and run the engine loop at the schedule's loose
/// tolerance, updating the linear-domain potentials in place. The stage
/// honors log_domain and precision exactly as the final solve will, so
/// its warm start is shaped by the same arithmetic; no plan or transport
/// cost is ever materialized — stages exist only to move potentials.
Result<EpsilonAnnealStage> RunAnnealStage(
    const char* where, const linalg::CostProvider& cost,
    const linalg::Vector& p, const linalg::Vector& q,
    const SinkhornOptions& stage_options, bool sparse, double cutoff,
    linalg::Vector& u, linalg::Vector& v, linalg::ThreadPool* pool,
    const ExecContext& ctx) {
  const size_t threads = stage_options.num_threads;
  const double eps = stage_options.epsilon;
  CacheSession session(where, stage_options, cost.rows(), cost.cols(),
                       sparse ? cutoff : 0.0);
  EpsilonAnnealStage stage;
  stage.epsilon = eps;

  // No per-stage support check: a stage ε exceeds the final ε, so its
  // truncated kept-set is a superset of the final kernel's — the final
  // solve's check governs. An emptied stage row merely yields a zero
  // potential there, which the final solve overwrites or rejects.
  if (stage_options.log_domain) {
    OTCLEAN_ASSIGN_OR_RETURN(
        const auto kernel,
        linalg::WithKernelScalar(
            stage_options.precision,
            [&](auto scalar)
                -> Result<std::unique_ptr<const linalg::LogTransportKernel>> {
              using T = decltype(scalar);
              if (sparse) {
                return session.Acquire<linalg::BasicSparseLogTransportKernel<T>,
                                       linalg::LogTransportKernel>(
                    threads, pool, cost, eps, cutoff);
              }
              return session.Acquire<linalg::BasicDenseLogTransportKernel<T>,
                                     linalg::LogTransportKernel>(threads, pool,
                                                                 cost, eps);
            }));
    std::optional<linalg::Vector> lu, lv;
    WarmLogPotentials(&u, u.size(), lu);
    WarmLogPotentials(&v, v.size(), lv);
    OTCLEAN_ASSIGN_OR_RETURN(
        SinkhornLogScaling scaling,
        RunSinkhornLogScaling(*kernel, p, q, stage_options, &*lu, &*lv, ctx));
    ExpPotentials(scaling.lu, u);
    ExpPotentials(scaling.lv, v);
    stage.iterations = scaling.iterations;
    stage.converged = scaling.converged;
    return stage;
  }

  // Dense linear kernels build from an in-memory cost; a function-backed
  // provider on the dense path falls back to a cutoff-0 sparse kernel
  // (same support, streamed build) so the stage never materializes the
  // cost matrix.
  const linalg::Matrix* dense_cost = cost.AsMatrix();
  OTCLEAN_ASSIGN_OR_RETURN(
      const auto kernel,
      linalg::WithKernelScalar(
          stage_options.precision,
          [&](auto scalar)
              -> Result<std::unique_ptr<const linalg::TransportKernel>> {
            using T = decltype(scalar);
            if (sparse || dense_cost == nullptr) {
              return session.Acquire<linalg::BasicSparseTransportKernel<T>,
                                     linalg::TransportKernel>(
                  threads, pool, cost, eps, sparse ? cutoff : 0.0);
            }
            return session.Acquire<linalg::BasicDenseTransportKernel<T>,
                                   linalg::TransportKernel>(
                threads, pool, *dense_cost, eps);
          }));
  OTCLEAN_ASSIGN_OR_RETURN(
      SinkhornScaling scaling,
      RunSinkhornScaling(*kernel, p, q, stage_options, &u, &v, ctx));
  u = std::move(scaling.u);
  v = std::move(scaling.v);
  stage.iterations = scaling.iterations;
  stage.converged = scaling.converged;
  return stage;
}

/// The annealing stage sequence of RunSinkhornAnnealed, on inputs the
/// caller validated; `where` names the solve in a rejected stage build.
Result<EpsilonAnnealWarmStart> RunAnnealStages(
    const char* where, const linalg::CostProvider& cost,
    const linalg::Vector& p, const linalg::Vector& q,
    const SinkhornOptions& options, bool sparse, double cutoff,
    linalg::ThreadPool* pool, const ExecContext& ctx) {
  const EpsilonSchedule& sched = options.epsilon_schedule;
  std::optional<linalg::ThreadPool> owned_pool;
  if (pool == nullptr) {
    pool = linalg::ResolveSolvePool(options.thread_pool, options.num_threads,
                                    owned_pool);
  }

  EpsilonAnnealWarmStart out;
  out.u = linalg::Vector::Ones(cost.rows());
  out.v = linalg::Vector::Ones(cost.cols());
  double eps = sched.initial_epsilon;
  while (eps > options.epsilon) {
    // Per-stage stop check; the stage's own engine loop polls the same
    // context every iteration.
    OTCLEAN_RETURN_NOT_OK(CheckStop(ctx, "RunSinkhornAnnealed"));
    SinkhornOptions stage_options = options;
    stage_options.epsilon = eps;
    stage_options.tolerance = sched.stage_tolerance;
    stage_options.max_iterations = sched.stage_max_iterations;
    // Stage kernels get their own cache entries (the key carries the
    // stage ε), but the warm-start tier stays final-ε only: stage
    // potentials are deliberately half-baked.
    stage_options.cache_warm_start = false;
    stage_options.epsilon_schedule = EpsilonSchedule{};
    OTCLEAN_ASSIGN_OR_RETURN(
        EpsilonAnnealStage stage,
        RunAnnealStage(where, cost, p, q, stage_options, sparse, cutoff,
                       out.u, out.v, pool, ctx));
    out.stages.push_back(stage);
    const double next = std::max(options.epsilon, eps * sched.decay);
    RescalePotentials(out.u, eps / next);
    RescalePotentials(out.v, eps / next);
    eps = next;
  }
  return out;
}

/// Log-domain dense solve: a thin client of RunSinkhornLogScaling over a
/// DenseLogTransportKernel — the same engine loop, SIMD'd streamed-LSE
/// primitives, and thread pool as every other variant (this replaces the
/// seed's one-off loop that re-read the cost matrix twice per iteration).
Result<SinkhornResult> RunSinkhornLogDomain(const linalg::Matrix& cost,
                                            const linalg::Vector& p,
                                            const linalg::Vector& q,
                                            const SinkhornOptions& options,
                                            const linalg::Vector* warm_u,
                                            const linalg::Vector* warm_v,
                                            linalg::ThreadPool* pool,
                                            const ExecContext& ctx) {
  CacheSession session("RunSinkhorn", options, cost.rows(), cost.cols(),
                       /*cutoff=*/0.0);
  session.MaybeWarm(warm_u, warm_v);
  EpsilonAnnealWarmStart anneal;
  if (ShouldAnneal(options, warm_u, warm_v)) {
    OTCLEAN_ASSIGN_OR_RETURN(
        anneal, RunAnnealStages("RunSinkhorn",
                                linalg::MatrixCostProvider(cost), p, q,
                                options, /*sparse=*/false, /*cutoff=*/0.0,
                                pool, ctx));
    warm_u = &anneal.u;
    warm_v = &anneal.v;
  }
  OTCLEAN_ASSIGN_OR_RETURN(
      const auto kernel,
      linalg::WithKernelScalar(
          options.precision,
          [&](auto scalar)
              -> Result<std::unique_ptr<const linalg::LogTransportKernel>> {
            return session.Acquire<
                linalg::BasicDenseLogTransportKernel<decltype(scalar)>,
                linalg::LogTransportKernel>(options.num_threads, pool, cost,
                                            options.epsilon);
          }));
  std::optional<linalg::Vector> warm_lu, warm_lv;
  WarmLogPotentials(warm_u, cost.rows(), warm_lu);
  WarmLogPotentials(warm_v, cost.cols(), warm_lv);
  OTCLEAN_ASSIGN_OR_RETURN(
      SinkhornLogScaling scaling,
      RunSinkhornLogScaling(*kernel, p, q, options,
                            warm_lu ? &*warm_lu : nullptr,
                            warm_lv ? &*warm_lv : nullptr, ctx));

  SinkhornResult result;
  result.plan = kernel->ScaleToPlan(scaling.lu, scaling.lv);
  result.transport_cost =
      kernel->TransportCost(linalg::MatrixCostProvider(cost), scaling.lu,
                            scaling.lv);
  ExpPotentials(scaling.lu, result.u);
  ExpPotentials(scaling.lv, result.v);
  result.iterations = scaling.iterations;
  result.converged = scaling.converged;
  result.omega = scaling.omega;
  result.anneal_stages = std::move(anneal.stages);
  session.Finish(result.u, result.v, result.iterations, result.converged);
  return result;
}

}  // namespace

Result<SinkhornScaling> RunSinkhornScaling(
    const linalg::TransportKernel& kernel, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    const linalg::Vector* warm_u, const linalg::Vector* warm_v,
    const ExecContext& ctx) {
  const size_t m = kernel.rows();
  const size_t n = kernel.cols();
  if (p.size() != m || q.size() != n) {
    return Status::InvalidArgument(
        "RunSinkhornScaling: marginal dimension mismatch");
  }
  if (Status s = ValidateMarginals("RunSinkhornScaling", p, q); !s.ok()) {
    return s;
  }
  if (options.relaxed) {
    OTCLEAN_RETURN_NOT_OK(
        ValidateRegularization("RunSinkhornScaling", options));
  }
  if (Status s = ValidateWarmStart("RunSinkhornScaling", warm_u, m, warm_v, n);
      !s.ok()) {
    return s;
  }
  SinkhornScaling out;
  out.u = warm_u != nullptr ? *warm_u : linalg::Vector::Ones(m);
  out.v = warm_v != nullptr ? *warm_v : linalg::Vector::Ones(n);

  const double exponent = RelaxedExponent(options);
  linalg::Vector kv(m), ktu(n);

  // While the loop runs, pooled kernel dispatches observe the token too:
  // a fired token drains in-flight Apply/ApplyTranspose dispatches without
  // touching their chunk decomposition.
  linalg::ThreadPool::ScopedStopFlag stop_scope(ctx.stop_flag());
  // Each half-update is one SIMD pass (linalg/simd.h RelaxedScaling): the
  // ratio, the relaxed exponent, the clamp to [0, 1e150] and the
  // max-change against the previous potential, into the loop's
  // preallocated buffer.
  OTCLEAN_RETURN_NOT_OK(RunScalingLoop(
      out.u, out.v, options, ctx, "RunSinkhornScaling", out.iterations,
      out.converged, out.omega,
      /*row_update=*/
      [&](const linalg::Vector& v, const linalg::Vector& u,
          linalg::Vector& next_u, const linalg::simd::OverRelaxation& relax) {
        kernel.Apply(v, kv);
        return linalg::simd::RelaxedScaling(
            p.data().data(), kv.data().data(), exponent, u.data().data(),
            next_u.data().data(), m, relax);
      },
      /*col_update=*/
      [&](const linalg::Vector& u, const linalg::Vector& v,
          linalg::Vector& next_v, const linalg::simd::OverRelaxation& relax) {
        kernel.ApplyTranspose(u, ktu);
        return linalg::simd::RelaxedScaling(
            q.data().data(), ktu.data().data(), exponent, v.data().data(),
            next_v.data().data(), n, relax);
      }));
  return out;
}

Result<SinkhornLogScaling> RunSinkhornLogScaling(
    const linalg::LogTransportKernel& kernel, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    const linalg::Vector* warm_lu, const linalg::Vector* warm_lv,
    const ExecContext& ctx) {
  const size_t m = kernel.rows();
  const size_t n = kernel.cols();
  if (p.size() != m || q.size() != n) {
    return Status::InvalidArgument(
        "RunSinkhornLogScaling: marginal dimension mismatch");
  }
  if (Status s = ValidateMarginals("RunSinkhornLogScaling", p, q); !s.ok()) {
    return s;
  }
  if (options.relaxed) {
    OTCLEAN_RETURN_NOT_OK(
        ValidateRegularization("RunSinkhornLogScaling", options));
  }
  if (Status s = ValidateWarmStart("RunSinkhornLogScaling", warm_lu, m,
                                   warm_lv, n);
      !s.ok()) {
    return s;
  }
  linalg::Vector log_p(m), log_q(n);
  for (size_t i = 0; i < m; ++i) log_p[i] = LogOrNegInf(p[i]);
  for (size_t j = 0; j < n; ++j) log_q[j] = LogOrNegInf(q[j]);

  SinkhornLogScaling out;
  out.lu = warm_lu != nullptr ? *warm_lu : linalg::Vector(m, 0.0);
  out.lv = warm_lv != nullptr ? *warm_lv : linalg::Vector(n, 0.0);

  const double exponent = RelaxedExponent(options);
  linalg::Vector lse_rows(m), lse_cols(n);
  linalg::ThreadPool::ScopedStopFlag stop_scope(ctx.stop_flag());
  // Log-domain half-iterations: lu_i = λ'·(log p_i − log(K·v)_i) with the
  // LSE streamed by the kernel (see LogHalfUpdate for the −inf rules).
  OTCLEAN_RETURN_NOT_OK(RunScalingLoop(
      out.lu, out.lv, options, ctx, "RunSinkhornLogScaling", out.iterations,
      out.converged, out.omega,
      /*row_update=*/
      [&](const linalg::Vector& lvv, const linalg::Vector& luu,
          linalg::Vector& next_lu, const linalg::simd::OverRelaxation& relax) {
        kernel.LogApply(lvv, lse_rows);
        return LogHalfUpdate(log_p, lse_rows, exponent, relax, luu, next_lu);
      },
      /*col_update=*/
      [&](const linalg::Vector& luu, const linalg::Vector& lvv,
          linalg::Vector& next_lv, const linalg::simd::OverRelaxation& relax) {
        kernel.LogApplyTranspose(luu, lse_cols);
        return LogHalfUpdate(log_q, lse_cols, exponent, relax, lvv, next_lv);
      }));
  return out;
}

Result<SinkhornResult> RunSinkhorn(const linalg::Matrix& cost,
                                   const linalg::Vector& p,
                                   const linalg::Vector& q,
                                   const SinkhornOptions& options,
                                   const linalg::Vector* warm_u,
                                   const linalg::Vector* warm_v,
                                   const ExecContext& ctx) {
  if (Status s = ValidateInputs("RunSinkhorn", linalg::MatrixCostProvider(cost),
                                p, q, options);
      !s.ok()) {
    return s;
  }
  if (Status s = ValidateWarmStart("RunSinkhorn", warm_u, cost.rows(), warm_v,
                                   cost.cols());
      !s.ok()) {
    return s;
  }
  // Entry stop check: an already-fired token / expired deadline aborts
  // before any kernel is built (or fetched and pinned from the cache).
  OTCLEAN_RETURN_NOT_OK(CheckStop(ctx, "RunSinkhorn"));
  std::optional<linalg::ThreadPool> owned_pool;
  linalg::ThreadPool* pool = linalg::ResolveSolvePool(
      options.thread_pool, options.num_threads, owned_pool);
  if (options.log_domain) {
    return RunSinkhornLogDomain(cost, p, q, options, warm_u, warm_v, pool,
                                ctx);
  }

  CacheSession session("RunSinkhorn", options, cost.rows(), cost.cols(),
                       /*cutoff=*/0.0);
  session.MaybeWarm(warm_u, warm_v);
  EpsilonAnnealWarmStart anneal;
  if (ShouldAnneal(options, warm_u, warm_v)) {
    OTCLEAN_ASSIGN_OR_RETURN(
        anneal, RunAnnealStages("RunSinkhorn",
                                linalg::MatrixCostProvider(cost), p, q,
                                options, /*sparse=*/false, /*cutoff=*/0.0,
                                pool, ctx));
    warm_u = &anneal.u;
    warm_v = &anneal.v;
  }
  OTCLEAN_ASSIGN_OR_RETURN(
      const auto kernel,
      linalg::WithKernelScalar(
          options.precision,
          [&](auto scalar)
              -> Result<std::unique_ptr<const linalg::TransportKernel>> {
            return session.Acquire<
                linalg::BasicDenseTransportKernel<decltype(scalar)>,
                linalg::TransportKernel>(options.num_threads, pool, cost,
                                         options.epsilon);
          }));
  OTCLEAN_ASSIGN_OR_RETURN(
      SinkhornScaling scaling,
      RunSinkhornScaling(*kernel, p, q, options, warm_u, warm_v, ctx));

  SinkhornResult result;
  result.plan = kernel->ScaleToPlan(scaling.u, scaling.v);
  result.transport_cost = kernel->TransportCost(cost, scaling.u, scaling.v);
  result.u = std::move(scaling.u);
  result.v = std::move(scaling.v);
  result.iterations = scaling.iterations;
  result.converged = scaling.converged;
  result.omega = scaling.omega;
  result.anneal_stages = std::move(anneal.stages);
  session.Finish(result.u, result.v, result.iterations, result.converged);
  return result;
}

Status CheckTruncatedKernelSupport(const std::vector<size_t>& row_ptr,
                                   const std::vector<size_t>& col_ptr,
                                   const linalg::Vector* p,
                                   const linalg::Vector* q,
                                   const char* where) {
  if (p != nullptr) {
    for (size_t r = 0; r + 1 < row_ptr.size(); ++r) {
      if ((*p)[r] > 0.0 && row_ptr[r + 1] == row_ptr[r]) {
        return Status::InvalidArgument(
            std::string(where) + ": truncation emptied kernel row " +
            std::to_string(r) + " which carries source mass " +
            std::to_string((*p)[r]) +
            " — that mass would be stranded; lower the kernel cutoff");
      }
    }
  }
  if (q != nullptr) {
    for (size_t c = 0; c + 1 < col_ptr.size(); ++c) {
      if ((*q)[c] > 0.0 && col_ptr[c + 1] == col_ptr[c]) {
        return Status::InvalidArgument(
            std::string(where) + ": truncation emptied kernel column " +
            std::to_string(c) + " which carries target mass " +
            std::to_string((*q)[c]) +
            " — that mass would be stranded; lower the kernel cutoff");
      }
    }
  }
  return Status::OK();
}

Result<EpsilonAnnealWarmStart> RunSinkhornAnnealed(
    const linalg::CostProvider& cost, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options, bool sparse,
    double cutoff, linalg::ThreadPool* pool, const ExecContext& ctx) {
  const EpsilonSchedule& sched = options.epsilon_schedule;
  if (!sched.enabled()) {
    return Status::InvalidArgument(
        "RunSinkhornAnnealed: epsilon_schedule is disabled "
        "(initial_epsilon == 0) — there are no stages to run");
  }
  if (Status s = ValidateSchedule("RunSinkhornAnnealed", options); !s.ok()) {
    return s;
  }
  OTCLEAN_RETURN_NOT_OK(
      ValidateRegularization("RunSinkhornAnnealed", options));
  if (p.size() != cost.rows() || q.size() != cost.cols()) {
    return Status::InvalidArgument(
        "RunSinkhornAnnealed: marginal dimension mismatch");
  }
  if (Status s = ValidateMarginals("RunSinkhornAnnealed", p, q); !s.ok()) {
    return s;
  }
  return RunAnnealStages("RunSinkhornAnnealed", cost, p, q, options, sparse,
                         cutoff, pool, ctx);
}

double PlanEntropy(const linalg::Matrix& plan) {
  double h = 0.0;
  for (double v : plan.data()) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

namespace {

/// The sparse solve on a built (or cached) kernel of either domain and
/// storage scalar: support check, engine loop, CSR plan, streamed cost and
/// warm-store bookkeeping. The log kernels lift linear warm starts to
/// log-potentials and exponentiate the converged ones back.
template <typename Kernel>
Result<SparseSinkhornResult> SolveSparse(
    const Kernel& kernel, const linalg::CostProvider& cost,
    const linalg::Vector& p, const linalg::Vector& q,
    const linalg::Vector* q_check, const SinkhornOptions& options,
    const linalg::Vector* warm_u, const linalg::Vector* warm_v,
    CacheSession& session, const ExecContext& ctx) {
  // Support depends on p/q, not just the kernel — re-check on hits too.
  const auto& storage = *kernel.shared_storage();
  OTCLEAN_RETURN_NOT_OK(CheckTruncatedKernelSupport(
      storage.matrix.row_ptr(), storage.csc.col_ptr, &p, q_check,
      "RunSinkhornSparse"));
  SparseSinkhornResult result;
  if constexpr (std::is_base_of_v<linalg::LogTransportKernel, Kernel>) {
    std::optional<linalg::Vector> warm_lu, warm_lv;
    WarmLogPotentials(warm_u, cost.rows(), warm_lu);
    WarmLogPotentials(warm_v, cost.cols(), warm_lv);
    OTCLEAN_ASSIGN_OR_RETURN(
        SinkhornLogScaling scaling,
        RunSinkhornLogScaling(kernel, p, q, options,
                              warm_lu ? &*warm_lu : nullptr,
                              warm_lv ? &*warm_lv : nullptr, ctx));
    result.plan = kernel.ScaleToPlanSparse(scaling.lu, scaling.lv);
    result.transport_cost = kernel.TransportCost(cost, scaling.lu, scaling.lv);
    ExpPotentials(scaling.lu, result.u);
    ExpPotentials(scaling.lv, result.v);
    result.iterations = scaling.iterations;
    result.converged = scaling.converged;
    result.omega = scaling.omega;
  } else {
    OTCLEAN_ASSIGN_OR_RETURN(
        SinkhornScaling scaling,
        RunSinkhornScaling(kernel, p, q, options, warm_u, warm_v, ctx));
    result.plan = kernel.ScaleToPlanSparse(scaling.u, scaling.v);
    result.transport_cost = kernel.TransportCost(cost, scaling.u, scaling.v);
    result.u = std::move(scaling.u);
    result.v = std::move(scaling.v);
    result.iterations = scaling.iterations;
    result.converged = scaling.converged;
    result.omega = scaling.omega;
  }
  session.Finish(result.u, result.v, result.iterations, result.converged);
  return result;
}

}  // namespace

Result<SparseSinkhornResult> RunSinkhornSparse(
    const linalg::CostProvider& cost, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    double kernel_cutoff, const linalg::Vector* warm_u,
    const linalg::Vector* warm_v, const ExecContext& ctx) {
  if (Status s = ValidateInputs("RunSinkhornSparse", cost, p, q, options);
      !s.ok()) {
    return s;
  }
  if (kernel_cutoff < 0.0) {
    return Status::InvalidArgument(
        "RunSinkhornSparse: kernel_cutoff must be >= 0");
  }
  if (Status s = ValidateWarmStart("RunSinkhornSparse", warm_u, cost.rows(),
                                   warm_v, cost.cols());
      !s.ok()) {
    return s;
  }
  OTCLEAN_RETURN_NOT_OK(CheckStop(ctx, "RunSinkhornSparse"));

  std::optional<linalg::ThreadPool> owned_pool;
  linalg::ThreadPool* pool = linalg::ResolveSolvePool(
      options.thread_pool, options.num_threads, owned_pool);

  // Hard-marginal mode must reach every row and column carrying mass.
  // Relaxed mode only soft-matches the target marginal, so an unreachable
  // column legitimately ends up under-served — check rows only (stranded
  // *source* mass silently degrades repairs to the identity either way).
  // Linear and log-domain kernels share one kept-set, so the check is the
  // same for both.
  const linalg::Vector* q_check = options.relaxed ? nullptr : &q;

  CacheSession session("RunSinkhornSparse", options, cost.rows(), cost.cols(),
                       kernel_cutoff);
  session.MaybeWarm(warm_u, warm_v);
  EpsilonAnnealWarmStart anneal;
  if (ShouldAnneal(options, warm_u, warm_v)) {
    OTCLEAN_ASSIGN_OR_RETURN(
        anneal, RunAnnealStages("RunSinkhornSparse", cost, p, q, options,
                                /*sparse=*/true, kernel_cutoff, pool, ctx));
    warm_u = &anneal.u;
    warm_v = &anneal.v;
  }

  OTCLEAN_ASSIGN_OR_RETURN(
      SparseSinkhornResult result,
      linalg::WithKernelScalar(
          options.precision,
          [&](auto scalar) -> Result<SparseSinkhornResult> {
            using T = decltype(scalar);
            if (options.log_domain) {
              OTCLEAN_ASSIGN_OR_RETURN(
                  const auto kernel,
                  session.Acquire<linalg::BasicSparseLogTransportKernel<T>>(
                      options.num_threads, pool, cost, options.epsilon,
                      kernel_cutoff));
              return SolveSparse(*kernel, cost, p, q, q_check, options,
                                 warm_u, warm_v, session, ctx);
            }
            OTCLEAN_ASSIGN_OR_RETURN(
                const auto kernel,
                session.Acquire<linalg::BasicSparseTransportKernel<T>>(
                    options.num_threads, pool, cost, options.epsilon,
                    kernel_cutoff));
            return SolveSparse(*kernel, cost, p, q, q_check, options, warm_u,
                               warm_v, session, ctx);
          }));
  result.anneal_stages = std::move(anneal.stages);
  return result;
}

Result<SparseSinkhornResult> RunSinkhornSparse(
    const linalg::Matrix& cost, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    double kernel_cutoff, const linalg::Vector* warm_u,
    const linalg::Vector* warm_v, const ExecContext& ctx) {
  return RunSinkhornSparse(linalg::MatrixCostProvider(cost), p, q, options,
                           kernel_cutoff, warm_u, warm_v, ctx);
}

}  // namespace otclean::ot
