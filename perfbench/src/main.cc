// perfbench: the end-to-end repair benchmark. Drives the library the way a
// client does — CSV bytes -> dataset::ParseCsv -> core::RepairTable (or
// core::RepairScheduler Submit/Wait) -> dataset::ToCsvString — checks every
// output, and prints each metric by name with its unit. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit ID] [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the same pass untraced, then traced (spans around every call into a
// layer), and prints the per-layer metrics. Workloads and metrics are
// described in README.md beside this directory.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "core/repair.h"
#include "core/repair_scheduler.h"
#include "core/solve_cache.h"
#include "dataset/csv.h"
#include "inputs.h"
#include "linalg/simd.h"
#include "linalg/thread_pool.h"
#include "linalg/transport_kernel.h"
#include "ot/cost.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace linalg = otclean::linalg;
namespace ot = otclean::ot;
using otclean::WallTimer;

/// Setups per run; setup_s is their median.
constexpr size_t kSetups = 5;
/// serve-mixed cache budget: room for the two hot kernels plus the three
/// most recent cold ones (~17-19 MB each). The cache is full within the
/// first 16 requests; from then on cold keys evict each other and the hot
/// keys, used more recently, stay resident.
constexpr size_t kServeCacheBytes = size_t{96} << 20;

// ------------------------------------------------------------- helpers --

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return linalg::ResolveThreadCount(0);
  }
  return static_cast<size_t>(CPU_COUNT(&set));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Last-level cache size in bytes, 0 when the system does not say.
double LastLevelCacheBytes() {
  for (const char* index : {"index3", "index2"}) {
    std::ifstream in(std::string("/sys/devices/system/cpu/cpu0/cache/") +
                     index + "/size");
    std::string size;
    if (in >> size && !size.empty()) {
      double value = std::atof(size.c_str());
      const char unit = size.back();
      if (unit == 'K') value *= 1024.0;
      if (unit == 'M') value *= 1024.0 * 1024.0;
      return value;
    }
  }
  return 0.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// ------------------------------------------------------------ outcomes --

/// What one request produced, and whether it passed its checks.
struct Outcome {
  size_t k = 0;  ///< position in the run's request stream
  uint64_t key = 0;
  bool fast = true;  ///< FastOTClean (false: QCLP)
  double seconds = 0.0;  ///< CSV bytes in -> repaired CSV bytes out
  double scheduler_seconds = 0.0;  ///< Submit -> Wait (serve-mixed)
  std::string error;  ///< empty when the status was OK and every check passed
  double initial_cmi = 0.0;
  double final_cmi = 0.0;
  double tv_distortion = 0.0;
  double transport_cost = 0.0;
  size_t outer_iterations = 0;
  size_t sinkhorn_iterations = 0;
  bool converged = false;
  size_t plan_nnz = 0;
  size_t plan_bytes = 0;
  size_t cache_hits = 0;
  size_t csv_bytes = 0;
};

/// First output seen per repeating key; every later output must match it.
class RepeatRegistry {
 public:
  /// Returns false when `csv` differs from the first output of `key`.
  bool Match(uint64_t key, const std::string& csv) OTCLEAN_EXCLUDES(mu_) {
    otclean::MutexLock lock(mu_);
    auto [it, inserted] = first_.emplace(key, csv);
    return inserted || it->second == csv;
  }
  std::map<uint64_t, std::string> Snapshot() const OTCLEAN_EXCLUDES(mu_) {
    otclean::MutexLock lock(mu_);
    return first_;
  }

 private:
  mutable otclean::Mutex mu_;
  std::map<uint64_t, std::string> first_ OTCLEAN_GUARDED_BY(mu_);
};

/// Fills the accuracy fields of `out` and runs the per-request checks:
/// schema and row count kept, the output parses again, FastOTClean targets
/// are CI (target_cmi < 1e-6), CMI does not grow, repeats are identical.
void Verify(const Request& request, const dataset::Table& input,
            const core::RepairReport& report, const std::string& csv,
            RepeatRegistry& repeats, Tracer* tracer, Outcome& out) {
  out.initial_cmi = report.initial_cmi;
  out.final_cmi = report.final_cmi;
  out.transport_cost = report.transport_cost;
  out.outer_iterations = report.outer_iterations;
  out.sinkhorn_iterations = report.total_sinkhorn_iterations;
  out.converged = report.converged;
  out.plan_nnz = report.plan_nnz;
  out.plan_bytes = report.plan_memory_bytes;
  out.cache_hits = report.cache_kernel_hits;

  // The empirical joints are taken over the columns the repair cleaned —
  // the call OtCleanRepairer::Fit makes — and the distortion over the
  // constraint attributes, which come first.
  ScopedSpan check(tracer, "check", -1, out.k);
  auto u_cols = request.constraint.ResolveColumns(input.schema());
  if (!u_cols.ok()) {
    out.error = u_cols.status().ToString();
    return;
  }
  std::vector<size_t> cleaned = *u_cols;
  if (!request.options.use_saturation) {
    for (size_t c = 0; c < input.num_columns(); ++c) {
      if (std::find(u_cols->begin(), u_cols->end(), c) == u_cols->end()) {
        cleaned.push_back(c);
      }
    }
  }
  std::optional<otclean::prob::JointDistribution> before, after;
  {
    ScopedSpan s(tracer, "dataset.empirical", check.id(), out.k);
    before.emplace(input.Empirical(cleaned));
  }
  {
    ScopedSpan s(tracer, "dataset.empirical", check.id(), out.k);
    after.emplace(report.repaired.Empirical(cleaned));
  }
  std::vector<size_t> u_positions(u_cols->size());
  for (size_t i = 0; i < u_positions.size(); ++i) u_positions[i] = i;
  out.tv_distortion = before->Marginal(u_positions)
                          .TotalVariation(after->Marginal(u_positions));

  const dataset::Schema& in_schema = input.schema();
  const dataset::Schema& out_schema = report.repaired.schema();
  bool same_schema = in_schema.num_columns() == out_schema.num_columns();
  for (size_t c = 0; same_schema && c < in_schema.num_columns(); ++c) {
    same_schema = in_schema.column(c).name == out_schema.column(c).name &&
                  in_schema.column(c).categories ==
                      out_schema.column(c).categories;
  }
  auto reparsed = dataset::ParseCsv(csv);
  if (!same_schema || report.repaired.num_rows() != input.num_rows()) {
    out.error = "schema or row count changed";
  } else if (!reparsed.ok()) {
    out.error = "output does not parse: " + reparsed.status().ToString();
  } else if (reparsed->num_rows() != input.num_rows() ||
             reparsed->num_columns() != input.num_columns()) {
    out.error = "re-parsed output has another shape";
  } else if (out.fast && !(report.target_cmi < 1e-6)) {
    out.error = "target_cmi " + std::to_string(report.target_cmi) +
                " is not below 1e-6";
  } else if (!(report.final_cmi <= report.initial_cmi)) {
    out.error = "final_cmi exceeds initial_cmi";
  } else if (request.repeats && !repeats.Match(request.key, csv)) {
    out.error = "output differs from an earlier request with the same key";
  }
}

/// One request straight through the library. Untraced it is exactly what a
/// client calls: ParseCsv, RepairTable, ToCsvString. Traced, RepairTable is
/// spelled out as its public steps (TableCmi, OtCleanRepairer::Fit/Apply,
/// TableCmi) so each gets a span.
Outcome RunDirect(const Inputs& inputs, size_t k, RepeatRegistry& repeats,
                  Tracer* tracer) {
  const Request request = MakeRequest(inputs, k);
  const std::string& csv = inputs.csvs[request.table];
  Outcome out;
  out.k = k;
  out.key = request.key;
  out.fast = request.options.solver == core::Solver::kFastOtClean;
  out.csv_bytes = csv.size();

  std::optional<dataset::Table> input;
  std::optional<core::RepairReport> report;
  std::string repaired_csv;
  otclean::Status status;
  WallTimer timer;
  {
    ScopedSpan root(tracer, "request", -1, k);
    auto parsed = [&] {
      ScopedSpan s(tracer, "dataset.parse", root.id(), k);
      return dataset::ParseCsv(csv);
    }();
    if (!parsed.ok()) {
      status = parsed.status();
    } else if (tracer == nullptr) {
      input.emplace(std::move(parsed).value());
      auto result = core::RepairTable(*input, request.constraint,
                                      request.options);
      if (result.ok()) {
        report.emplace(std::move(result).value());
        repaired_csv = dataset::ToCsvString(report->repaired);
      } else {
        status = result.status();
      }
    } else {
      input.emplace(std::move(parsed).value());
      core::RepairReport r;
      auto initial = [&] {
        ScopedSpan s(tracer, "prob.cmi", root.id(), k);
        return core::TableCmi(*input, request.constraint);
      }();
      core::OtCleanRepairer repairer(request.constraint, request.options);
      status = [&] {
        ScopedSpan s(tracer, out.fast ? "core.fit" : "lp.qclp", root.id(), k);
        return repairer.Fit(*input);
      }();
      if (status.ok() && initial.ok()) {
        otclean::Rng rng(request.options.seed);
        auto applied = [&] {
          ScopedSpan s(tracer, "ot.plan_apply", root.id(), k);
          return repairer.Apply(*input, rng);
        }();
        if (applied.ok()) {
          r = repairer.fit_report();
          r.repaired = std::move(applied).value();
          auto final_cmi = [&] {
            ScopedSpan s(tracer, "prob.cmi", root.id(), k);
            return core::TableCmi(r.repaired, request.constraint);
          }();
          if (final_cmi.ok()) {
            r.final_cmi = *final_cmi;
            {
              ScopedSpan s(tracer, "dataset.serialize", root.id(), k);
              repaired_csv = dataset::ToCsvString(r.repaired);
            }
            report.emplace(std::move(r));
          } else {
            status = final_cmi.status();
          }
        } else {
          status = applied.status();
        }
      } else if (status.ok()) {
        status = initial.status();
      }
    }
  }
  out.seconds = timer.ElapsedSeconds();
  if (!status.ok() || !report.has_value()) {
    out.error = status.ToString();
    return out;
  }
  // A traced request samples its repair with its own Rng stream, so each
  // pass checks repeats against its own registry.
  Verify(request, *input, *report, repaired_csv, repeats, tracer, out);
  return out;
}

// ---------------------------------------------------------------- passes --

struct Pass {
  std::vector<Outcome> outcomes;  ///< in request-stream order
  double wall_seconds = 0.0;
  core::SolveCacheStats cache;  ///< serve-mixed: activity during the pass
};

/// car-noise and compas-fair: one request at a time, for at least
/// `seconds` and at least one request per table.
Pass RunSequential(const Inputs& inputs, double seconds, Tracer* tracer) {
  Pass pass;
  RepeatRegistry repeats;
  WallTimer timer;
  for (size_t k = 0;
       k < inputs.quality_requests || timer.ElapsedSeconds() < seconds; ++k) {
    pass.outcomes.push_back(RunDirect(inputs, k, repeats, tracer));
  }
  pass.wall_seconds = timer.ElapsedSeconds();
  return pass;
}

/// serve-mixed: a closed loop of kServeInFlight clients on one scheduler.
/// Each client parses its request's CSV, submits it, waits, serializes the
/// result and checks it before sending its next request.
Pass RunServe(const Inputs& inputs, double seconds, Tracer* tracer,
              RepeatRegistry& repeats) {
  core::RepairSchedulerOptions options;
  options.max_concurrent_jobs = kServeInFlight;
  options.pool_threads = kServeInFlight;
  options.cache_bytes = kServeCacheBytes;
  core::RepairScheduler scheduler(options);

  Pass pass;
  otclean::Mutex mu;
  std::vector<Outcome> outcomes;
  std::atomic<size_t> next{0};
  WallTimer timer;

  auto client = [&] {
    for (;;) {
      const size_t k = next.fetch_add(1);
      if (k >= inputs.quality_requests && timer.ElapsedSeconds() >= seconds) {
        return;
      }
      const Request request = MakeRequest(inputs, k);
      const std::string& csv = inputs.csvs[request.table];
      Outcome out;
      out.k = k;
      out.key = request.key;
      out.fast = request.options.solver == core::Solver::kFastOtClean;
      out.csv_bytes = csv.size();

      std::optional<dataset::Table> input;
      std::optional<core::RepairReport> report;
      std::string repaired_csv;
      otclean::Status status;
      WallTimer request_timer;
      {
        ScopedSpan root(tracer, "request", -1, k);
        auto parsed = [&] {
          ScopedSpan s(tracer, "dataset.parse", root.id(), k);
          return dataset::ParseCsv(csv);
        }();
        if (parsed.ok()) {
          input.emplace(std::move(parsed).value());
          core::RepairJob job;
          job.table = &*input;
          job.constraints = {request.constraint};
          job.options = request.options;
          job.id = request.key;
          WallTimer scheduler_timer;
          auto result = [&]() -> Result<core::RepairReport> {
            ScopedSpan s(tracer, "scheduler.submit_wait", root.id(), k);
            auto ticket = scheduler.Submit(job);
            if (!ticket.ok()) return ticket.status();
            return scheduler.Wait(*ticket);
          }();
          out.scheduler_seconds = scheduler_timer.ElapsedSeconds();
          if (result.ok()) {
            report.emplace(std::move(result).value());
            ScopedSpan s(tracer, "dataset.serialize", root.id(), k);
            repaired_csv = dataset::ToCsvString(report->repaired);
          } else {
            status = result.status();
          }
        } else {
          status = parsed.status();
        }
      }
      out.seconds = request_timer.ElapsedSeconds();
      if (!status.ok() || !report.has_value()) {
        out.error = status.ToString();
      } else {
        Verify(request, *input, *report, repaired_csv, repeats, tracer, out);
      }
      otclean::MutexLock lock(mu);
      outcomes.push_back(std::move(out));
    }
  };

  const core::SolveCacheStats before = scheduler.shared_cache()->Stats();
  {
    // otclean-lint: allow(raw-thread) — benchmark clients, not kernel work.
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kServeInFlight; ++c) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
  }
  pass.wall_seconds = timer.ElapsedSeconds();
  pass.cache = core::DeltaStats(before, scheduler.shared_cache()->Stats());
  otclean::MutexLock lock(mu);
  pass.outcomes = std::move(outcomes);
  std::sort(pass.outcomes.begin(), pass.outcomes.end(),
            [](const Outcome& a, const Outcome& b) { return a.k < b.k; });
  return pass;
}

/// serve-mixed: each repeating key's output must equal a direct RepairTable
/// call with the seed the scheduler derives for that key. Returns the
/// number of keys that disagree.
size_t CheckServeAgainstDirect(const Inputs& inputs, const Pass& pass,
                               const RepeatRegistry& repeats) {
  size_t mismatches = 0;
  const std::map<uint64_t, std::string> firsts = repeats.Snapshot();
  for (const auto& [key, csv] : firsts) {
    const auto it = std::find_if(
        pass.outcomes.begin(), pass.outcomes.end(),
        [key = key](const Outcome& o) { return o.key == key; });
    if (it == pass.outcomes.end()) continue;
    const Request request = MakeRequest(inputs, it->k);
    auto input = dataset::ParseCsv(inputs.csvs[request.table]);
    core::RepairOptions options = request.options;
    options.seed = core::DeriveJobSeed(options.seed, request.key);
    auto direct = input.ok() ? core::RepairTable(*input, request.constraint,
                                                 options)
                             : Result<core::RepairReport>(input.status());
    if (!direct.ok() || dataset::ToCsvString(direct->repaired) != csv) {
      std::fprintf(stderr,
                   "perfbench: serve-mixed key %" PRIu64
                   " differs from a direct RepairTable call\n",
                   key);
      ++mismatches;
    }
  }
  return mismatches;
}

/// serve-mixed, traced: replays the first quality_requests requests one at a
/// time, directly (Fit, Apply, TableCmi) on a pool and a cache of the
/// scheduler's sizes, so the scheduler's overhead is Submit->Wait minus
/// this direct work. Returns the overhead per replayed request.
std::vector<double> ReplayServe(const Inputs& inputs, const Pass& traced,
                                Tracer* tracer) {
  linalg::ThreadPool pool(kServeInFlight);
  core::SolveCache cache(kServeCacheBytes);
  std::vector<double> overheads;
  for (const Outcome& o : traced.outcomes) {
    if (o.k >= inputs.quality_requests || !o.error.empty()) continue;
    const Request request = MakeRequest(inputs, o.k);
    auto input = dataset::ParseCsv(inputs.csvs[request.table]);
    if (!input.ok()) continue;
    core::RepairOptions options = request.options;
    options.seed = core::DeriveJobSeed(options.seed, request.key);
    options.fast.thread_pool = &pool;
    options.qclp.thread_pool = &pool;
    options.fast.solve_cache = &cache;

    ScopedSpan root(tracer, "replay", -1, o.k);
    const Result<double> initial_cmi = [&] {
      ScopedSpan s(tracer, "prob.cmi", root.id(), o.k);
      return core::TableCmi(*input, request.constraint);
    }();
    if (!initial_cmi.ok()) continue;
    WallTimer timer;
    core::OtCleanRepairer repairer(request.constraint, options);
    otclean::Status fit = [&] {
      ScopedSpan s(tracer, o.fast ? "core.fit" : "lp.qclp", root.id(), o.k);
      return repairer.Fit(*input);
    }();
    if (!fit.ok()) continue;
    otclean::Rng rng(options.seed);
    auto applied = [&] {
      ScopedSpan s(tracer, "ot.plan_apply", root.id(), o.k);
      return repairer.Apply(*input, rng);
    }();
    if (!applied.ok()) continue;
    const Result<double> final_cmi = [&] {
      ScopedSpan s(tracer, "prob.cmi", root.id(), o.k);
      return core::TableCmi(*applied, request.constraint);
    }();
    if (!final_cmi.ok()) continue;
    overheads.push_back(o.scheduler_seconds - timer.ElapsedSeconds());
  }
  return overheads;
}

// ----------------------------------------------------------- linalg probe --

struct KernelProbe {
  double rows = 0, cols = 0;
  double apply_us_serial = 0, apply_t_us_serial = 0;
  double apply_us_pooled = 0, apply_t_us_pooled = 0;
  double lanes = 0;
  bool identical = true;  ///< pooled results bit-equal the serial ones
};

/// Median microseconds per call of `fn` over batches of about 20 ms.
double TimeCallUs(const std::function<void()>& fn) {
  size_t reps = 1;
  for (;;) {
    WallTimer t;
    for (size_t i = 0; i < reps; ++i) fn();
    if (t.ElapsedSeconds() >= 0.02) break;
    reps *= 2;
  }
  std::vector<double> batches;
  for (int b = 0; b < 9; ++b) {
    WallTimer t;
    for (size_t i = 0; i < reps; ++i) fn();
    batches.push_back(t.ElapsedSeconds() * 1e6 / static_cast<double>(reps));
  }
  return Median(batches);
}

/// Builds the workload's own dense kernel (its C1 cost and ε, active rows x
/// all cells, as FastOTClean does) and times Apply/ApplyTranspose serially
/// and on an nproc-lane pool.
Result<KernelProbe> ProbeKernel(const Inputs& inputs, size_t lanes) {
  const Request request = MakeRequest(inputs, 0);
  OTCLEAN_ASSIGN_OR_RETURN(dataset::Table table,
                           dataset::ParseCsv(inputs.csvs[request.table]));
  OTCLEAN_ASSIGN_OR_RETURN(std::vector<size_t> u_cols,
                           request.constraint.ResolveColumns(table.schema()));
  const otclean::prob::Domain domain = table.schema().ToDomain(u_cols);
  const otclean::prob::JointDistribution p = table.Empirical(u_cols);
  const ot::EuclideanCost cost(ot::InverseStddevWeights(domain, p.probs()));
  std::vector<size_t> rows, cols(domain.TotalSize());
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] > 0.0) rows.push_back(i);
  }
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  const linalg::Matrix c = ot::BuildCostMatrix(domain, rows, cols, cost);
  const double epsilon = request.options.fast.epsilon;

  linalg::ThreadPool pool(lanes);
  const linalg::DenseTransportKernel serial =
      linalg::DenseTransportKernel::FromCost(c, epsilon, 1);
  const linalg::DenseTransportKernel pooled =
      linalg::DenseTransportKernel::FromCost(c, epsilon, lanes, &pool);
  const linalg::Vector v(cols.size(), 1.0 / static_cast<double>(cols.size()));
  const linalg::Vector u(rows.size(), 1.0 / static_cast<double>(rows.size()));
  linalg::Vector ys, yp, ts, tp;

  KernelProbe probe;
  probe.rows = static_cast<double>(rows.size());
  probe.cols = static_cast<double>(cols.size());
  probe.lanes = static_cast<double>(pool.num_threads());
  probe.apply_us_serial = TimeCallUs([&] { serial.Apply(v, ys); });
  probe.apply_t_us_serial = TimeCallUs([&] { serial.ApplyTranspose(u, ts); });
  probe.apply_us_pooled = TimeCallUs([&] { pooled.Apply(v, yp); });
  probe.apply_t_us_pooled = TimeCallUs([&] { pooled.ApplyTranspose(u, tp); });
  probe.identical = ys.data() == yp.data() && ts.data() == tp.data();
  return probe;
}

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         std::find(WorkloadNames().begin(), WorkloadNames().end(),
                   args.workload) != WorkloadNames().end();
}

std::vector<double> Collect(const std::vector<Outcome>& outcomes,
                            double Outcome::*field) {
  std::vector<double> v;
  for (const Outcome& o : outcomes) {
    if (o.error.empty()) v.push_back(o.*field);
  }
  return v;
}

std::vector<double> CollectCount(const std::vector<Outcome>& outcomes,
                                 size_t Outcome::*field) {
  std::vector<double> v;
  for (const Outcome& o : outcomes) {
    if (o.error.empty() && o.fast) v.push_back(static_cast<double>(o.*field));
  }
  return v;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload car-noise|compas-fair|"
                 "serve-mixed|car-noise-full --seed N --seconds S "
                 "--trace 0|1 [--commit ID] [--trace-dir DIR]\n");
    return 2;
  }
  const size_t nproc = Nproc();
  const size_t hardware = linalg::ResolveThreadCount(0);
  // All cores, but never more threads than this process may run on.
  const size_t threads = hardware <= nproc ? 0 : nproc;

  char stamp[4096];
  std::snprintf(
      stamp, sizeof(stamp),
      "{\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"nproc\": %zu, \"hardware_concurrency\": %zu, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": \"%s\", "
      "\"commit\": \"%s\"}",
      args.workload.c_str(), args.seed, nproc, hardware,
      linalg::simd::ActiveIsaName(), PERFBENCH_BUILD_TYPE,
      JsonEscape(PERFBENCH_CXX_FLAGS).c_str(), PERFBENCH_COMPILER,
      JsonEscape(args.commit).c_str());
  std::printf("# stamp %s\n", stamp);

  // Set-up: generate every input of the run, kSetups times.
  std::vector<double> setup_seconds;
  std::optional<Inputs> inputs;
  for (size_t i = 0; i < kSetups; ++i) {
    WallTimer timer;
    auto made = MakeInputs(args.workload, args.seed, threads);
    setup_seconds.push_back(timer.ElapsedSeconds());
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    inputs.emplace(std::move(made).value());
  }
  for (size_t i = 0; i < inputs->labels.size(); ++i) {
    std::printf("# input %zu: %s, %zu CSV bytes\n", i,
                inputs->labels[i].c_str(), inputs->csvs[i].size());
  }

  const bool serve = args.workload == "serve-mixed";
  RepeatRegistry repeats;
  const Pass untraced = serve ? RunServe(*inputs, args.seconds, nullptr, repeats)
                              : RunSequential(*inputs, args.seconds, nullptr);
  size_t attempted = untraced.outcomes.size();
  size_t failed = 0;
  for (const Outcome& o : untraced.outcomes) {
    std::printf("# request %zu key %" PRIu64
                " %s %.4f s outer=%zu inner=%zu cost=%.6f cmi %.6e -> %.6e "
                "tv=%.6f converged=%d cache_hit=%zu%s%s\n",
                o.k, o.key, o.fast ? "fast" : "qclp", o.seconds,
                o.outer_iterations, o.sinkhorn_iterations, o.transport_cost,
                o.initial_cmi, o.final_cmi, o.tv_distortion, o.converged ? 1 : 0,
                o.cache_hits,
                o.error.empty() ? "" : " FAILED: ", o.error.c_str());
    if (!o.error.empty()) ++failed;
  }
  if (serve) {
    failed += CheckServeAgainstDirect(*inputs, untraced, repeats);
  }

  // Accuracy metrics: one value per distinct request among the first
  // quality_requests, whatever else the run managed to send.
  std::vector<Outcome> quality;
  for (const Outcome& o : untraced.outcomes) {
    const bool seen = std::any_of(
        quality.begin(), quality.end(),
        [&](const Outcome& q) { return q.key == o.key; });
    if (o.k < inputs->quality_requests && !seen) quality.push_back(o);
  }
  const double final_cmi = Median(Collect(quality, &Outcome::final_cmi));
  const std::vector<double> latencies =
      Collect(untraced.outcomes, &Outcome::seconds);
  size_t ok = 0, unconverged = 0;
  for (const Outcome& o : untraced.outcomes) {
    if (!o.error.empty()) continue;
    ++ok;
    if (!o.converged) ++unconverged;
  }
  const double unconverged_fraction =
      ok > 0 ? static_cast<double>(unconverged) / static_cast<double>(ok) : 0.0;
  const double failed_fraction =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const double jobs_per_s = static_cast<double>(ok) / untraced.wall_seconds;
  std::printf("# unconverged_fraction %.6g, failed_fraction %.6g "
              "(%zu of %zu requests), final_cmi %.6g nats, "
              "repair_s_p95 %.6g s, jobs_per_s %.6g 1/s\n",
              unconverged_fraction, failed_fraction, failed, attempted,
              final_cmi, Percentile(latencies, 0.95), jobs_per_s);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"repair_s", Median(latencies), "s"},
        {"tv_distortion", Median(Collect(quality, &Outcome::tv_distortion)),
         "fraction"},
        {"transport_cost", Median(Collect(quality, &Outcome::transport_cost)),
         "cost"},
        {"setup_s", Median(setup_seconds), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    Tracer tracer;
    RepeatRegistry traced_repeats;
    const Pass traced =
        serve ? RunServe(*inputs, args.seconds, &tracer, traced_repeats)
              : RunSequential(*inputs, args.seconds, &tracer);
    attempted += traced.outcomes.size();
    for (const Outcome& o : traced.outcomes) {
      if (o.error.empty()) continue;
      std::fprintf(stderr, "perfbench: traced request %zu failed: %s\n", o.k,
                   o.error.c_str());
      ++failed;
    }
    // Tracing must not change a result: the fit of each traced request
    // matches the untraced one of the same position.
    for (const Outcome& t : traced.outcomes) {
      for (const Outcome& u : untraced.outcomes) {
        if (u.k != t.k || !u.error.empty() || !t.error.empty()) continue;
        if (u.sinkhorn_iterations != t.sinkhorn_iterations ||
            u.transport_cost != t.transport_cost) {
          std::fprintf(stderr,
                       "perfbench: traced request %zu fitted differently\n",
                       t.k);
          ++failed;
        }
      }
    }
    std::vector<double> overheads;
    if (serve) overheads = ReplayServe(*inputs, traced, &tracer);

    KernelProbe probe;
    if (!serve) {
      auto probed = ProbeKernel(*inputs, nproc);
      ++attempted;
      if (!probed.ok() || !probed->identical) {
        std::fprintf(stderr, "perfbench: kernel probe failed%s\n",
                     probed.ok() ? ": pooled != serial" : "");
        ++failed;
      } else {
        probe = *probed;
      }
    }

    const std::vector<Span> spans = tracer.Spans();
    const TraceSummary summary = Summarize(spans);
    auto median_of = [&](const char* name) {
      const auto it = summary.durations.find(name);
      return it == summary.durations.end() ? 0.0 : Median(it->second);
    };
    std::vector<double> parse_rates;
    {
      // MB/s of each traced parse, matched to its request's CSV size.
      std::map<uint64_t, size_t> bytes_of;
      for (const Outcome& o : traced.outcomes) bytes_of[o.k] = o.csv_bytes;
      for (const Span& s : spans) {
        if (s.name == "dataset.parse" && s.end > s.start) {
          parse_rates.push_back(static_cast<double>(bytes_of[s.request]) /
                                1e6 / (s.end - s.start));
        }
      }
    }
    const std::vector<Outcome>& fits = traced.outcomes;
    const double fit_s = median_of("core.fit");
    const double iterations =
        Median(CollectCount(fits, &Outcome::sinkhorn_iterations));
    const double outer = Median(CollectCount(fits, &Outcome::outer_iterations));
    const double bytes_per_iteration =
        2.0 * probe.rows * probe.cols * sizeof(double) +
        2.0 * (probe.rows + probe.cols) * sizeof(double);
    const double pair_us_serial = probe.apply_us_serial + probe.apply_t_us_serial;
    const double pair_us_pooled = probe.apply_us_pooled + probe.apply_t_us_pooled;
    const double hits = static_cast<double>(traced.cache.kernel_hits);
    const double misses = static_cast<double>(traced.cache.kernel_misses);
    const double traced_s = Median(Collect(traced.outcomes, &Outcome::seconds));
    auto self = [&](const char* layer) {
      const auto it = summary.self_seconds_per_request.find(layer);
      return it == summary.self_seconds_per_request.end() ? 0.0 : it->second;
    };

    metrics = {
        {"repair_s_p95", Percentile(latencies, 0.95), "s"},
        {"jobs_per_s", jobs_per_s, "1/s"},
        {"dataset.parse_s", median_of("dataset.parse"), "s"},
        {"dataset.parse_mb_per_s", Median(parse_rates), "MB/s"},
        {"dataset.empirical_s", median_of("dataset.empirical"), "s"},
        {"dataset.serialize_s", median_of("dataset.serialize"), "s"},
        {"prob.cmi_s", median_of("prob.cmi"), "s"},
        {"prob.final_cmi", final_cmi, "nats"},
        {"core.fit_s", fit_s, "s"},
        {"core.outer_iterations", outer, "count"},
        {"core.unconverged_fraction", unconverged_fraction, "fraction"},
        {"ot.sinkhorn_iterations", iterations, "count"},
        {"ot.inner_per_outer", outer > 0.0 ? iterations / outer : 0.0,
         "count"},
        {"ot.us_per_iteration", iterations > 0.0 ? fit_s * 1e6 / iterations : 0.0,
         "us"},
        {"ot.plan_apply_s", median_of("ot.plan_apply"), "s"},
        {"ot.plan_nnz", Median(CollectCount(fits, &Outcome::plan_nnz)), "count"},
        {"ot.plan_bytes", Median(CollectCount(fits, &Outcome::plan_bytes)), "B"},
        {"linalg.kernel_rows", probe.rows, "count"},
        {"linalg.kernel_cols", probe.cols, "count"},
        {"linalg.kernel_bytes", probe.rows * probe.cols * sizeof(double), "B"},
        {"linalg.llc_bytes", LastLevelCacheBytes(), "B"},
        {"linalg.apply_us_serial", probe.apply_us_serial, "us"},
        {"linalg.apply_t_us_serial", probe.apply_t_us_serial, "us"},
        {"linalg.apply_us_pooled", probe.apply_us_pooled, "us"},
        {"linalg.apply_t_us_pooled", probe.apply_t_us_pooled, "us"},
        {"linalg.pool_lanes", probe.lanes, "count"},
        {"linalg.pool_speedup",
         pair_us_pooled > 0.0 ? pair_us_serial / pair_us_pooled : 0.0, "x"},
        {"linalg.bytes_per_iteration", probe.rows > 0 ? bytes_per_iteration : 0.0,
         "B"},
        {"linalg.gbps",
         pair_us_serial > 0.0 ? bytes_per_iteration / pair_us_serial / 1e3 : 0.0,
         "GB/s"},
        {"linalg.kernel_share",
         fit_s > 0.0 ? pair_us_serial * 1e-6 * iterations / fit_s : 0.0,
         "fraction"},
        {"cache.hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
         "fraction"},
        {"cache.kernel_hits", hits, "count"},
        {"cache.kernel_misses", misses, "count"},
        {"cache.evictions", static_cast<double>(traced.cache.evictions), "count"},
        {"cache.bytes_cached", static_cast<double>(traced.cache.bytes_cached),
         "B"},
        {"scheduler.overhead_s", Median(overheads), "s"},
        {"lp.qclp_s", median_of("lp.qclp"), "s"},
        {"self.request_s", self("request"), "s"},
        {"self.dataset_s", self("dataset"), "s"},
        {"self.prob_s", self("prob"), "s"},
        {"self.core_s", self("core"), "s"},
        {"self.ot_s", self("ot"), "s"},
        {"self.lp_s", self("lp"), "s"},
        {"self.scheduler_s", self("scheduler"), "s"},
        {"trace.overhead",
         Median(latencies) > 0.0 ? traced_s / Median(latencies) : 0.0, "x"},
        {"trace.coverage", summary.min_request_coverage, "fraction"},
        {"outcome.failed_fraction",
         static_cast<double>(failed) / static_cast<double>(attempted),
         "fraction"},
    };

    const std::string path = args.trace_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!WriteTrace(path, stamp, spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      ++failed;
    } else {
      std::printf("# wrote %zu spans to %s\n", spans.size(), path.c_str());
    }
  }

  PrintResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
