#include "inputs.h"

#include <optional>
#include <string>

#include "cleaning/noise.h"
#include "datagen/datasets.h"
#include "datagen/synthetic.h"
#include "dataset/csv.h"

namespace perfbench {

namespace {

namespace datagen = otclean::datagen;
namespace cleaning = otclean::cleaning;

/// Inner-iteration cap of car-noise. The uncapped default request runs 300
/// outer steps and 1,236,221 Sinkhorn iterations (up to 5000 per inner
/// solve), 70-90 s on 4 cores, too long to repeat within one run. The
/// capped request keeps the default's 300-step outer loop and stops every
/// inner solve at 250 iterations: exactly 75,000 dense Sinkhorn iterations.
constexpr size_t kCarInnerIterations = 250;

/// Kernel threads of car-noise. On a shared 4-vCPU host the all-cores
/// request (a thread spawn per kernel call) took 4.7-19 s within one run,
/// against a steady 3.2 s serially, so the timed request runs serially and
/// the linalg probe reports serial against pooled kernel times.
constexpr size_t kCarThreads = 1;

/// Tables per run of the single-request workloads; their accuracy metrics
/// are the median over these tables.
constexpr size_t kTablesPerRun = 6;

/// serve-mixed request shape: 7 of every 8 requests clean the full joint
/// of a scaling table, 1 is a COMPAS QCLP repair.
constexpr size_t kServePeriod = 8;
constexpr size_t kServeRows = 50000;
constexpr size_t kServeQualityRequests = 16;
constexpr double kServeEpsilon = 0.3;
constexpr uint64_t kQclpKey = 1000;
constexpr uint64_t kColdKeyBase = 100;

/// Generator seed of table `index` of the run with workload seed `seed`.
/// Seed 0, table 0 is `base` itself: the inputs named in README.md.
uint64_t TableSeed(uint64_t base, uint64_t seed, size_t index) {
  return base + 1000 * (seed * 16 + index);
}

std::string SeedLabel(const char* what, uint64_t seed) {
  return std::string(what) + std::to_string(seed) + ")";
}

/// The threads a single-request workload may use: the request's own
/// kernel threads (0 = all cores) — one repair at a time.
core::RepairOptions SingleRequestOptions(size_t threads) {
  core::RepairOptions options;
  options.fast.num_threads = threads;
  options.qclp.num_threads = threads;
  return options;
}

/// The converging configuration of the solve-cache bench: full-joint
/// cleaning over the Section 6.5 truncated sparse kernel.
core::RepairOptions ServeScalingOptions(double epsilon) {
  core::RepairOptions options;
  options.use_saturation = false;
  options.fast.epsilon = epsilon;
  options.fast.lambda = 2.0;
  options.fast.sinkhorn_tolerance = 1e-4;
  options.fast.outer_tolerance = 5e-3;
  options.fast.max_outer_iterations = 150;
  options.fast.max_sinkhorn_iterations = 1000;
  options.fast.kernel_truncation = 1e-2;
  options.fast.restrict_columns_to_active = true;
  return options;
}

/// Rows of `table` listed so that the categories of each of `cols` first
/// appear in code order, or nullopt when no such order exists (it needs a
/// row with every one of `cols` at code 0).
std::optional<std::vector<size_t>> CodeOrder(const dataset::Table& table,
                                             const std::vector<size_t>& cols) {
  const size_t rows = table.num_rows();
  // Codes [0, next[i]) of column cols[i] have appeared; a row may be listed
  // once none of its codes is beyond the next unseen one.
  std::vector<int> next(cols.size(), 0);
  std::vector<bool> listed(rows, false);
  std::vector<size_t> order;
  order.reserve(rows);
  bool progress = true;
  while (order.size() < rows && progress) {
    progress = false;
    for (size_t r = 0; r < rows; ++r) {
      if (listed[r]) continue;
      bool admissible = true;
      for (size_t i = 0; i < cols.size() && admissible; ++i) {
        admissible = table.Value(r, cols[i]) <= next[i];
      }
      if (!admissible) continue;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (table.Value(r, cols[i]) == next[i]) ++next[i];
      }
      listed[r] = true;
      order.push_back(r);
      progress = true;
    }
  }
  if (order.size() < rows) return std::nullopt;
  return order;
}

/// Adds `table` to the run as CSV bytes. ParseCsv numbers categories by
/// first appearance and the default C1 cost is Euclidean over the codes, so
/// where the table allows it the rows are listed such that the categories of
/// the constraint attributes first appear in code order: the parsed request
/// then has the generator's codes on them, and the default seed reproduces
/// the ROADMAP probe, which ran on the generated tables. Other columns are
/// numbered by first appearance; they matter only to full-joint cleaning.
Status AddTable(const dataset::Table& table, std::string label,
                const core::CiConstraint& constraint, Inputs& inputs) {
  OTCLEAN_ASSIGN_OR_RETURN(std::vector<size_t> constrained,
                           constraint.ResolveColumns(table.schema()));
  const std::optional<std::vector<size_t>> order =
      CodeOrder(table, constrained);
  const dataset::Table listed = order ? table.SelectRows(*order) : table;
  std::string csv = dataset::ToCsvString(listed);
  if (order) {
    OTCLEAN_ASSIGN_OR_RETURN(dataset::Table parsed, dataset::ParseCsv(csv));
    for (size_t c : constrained) {
      if (parsed.ColumnData(c) != listed.ColumnData(c) ||
          parsed.schema().column(c).cardinality() !=
              listed.schema().column(c).cardinality()) {
        return Status::Internal("AddTable: the CSV does not parse back to "
                                "the generator's codes");
      }
    }
  }
  inputs.csvs.push_back(std::move(csv));
  inputs.constraints.push_back(constraint);
  inputs.labels.push_back(
      label + (order ? ", constraint codes kept"
                     : ", constraint codes renumbered by ParseCsv"));
  return Status::OK();
}

Status MakeCarInputs(size_t inner_iterations, size_t tables, size_t threads,
                     Inputs& inputs) {
  for (size_t i = 0; i < tables; ++i) {
    const uint64_t seed = TableSeed(901, inputs.seed, i);
    OTCLEAN_ASSIGN_OR_RETURN(datagen::DatasetBundle bundle,
                             datagen::MakeCar(2500, seed));
    const dataset::Table& table = bundle.table;
    std::vector<size_t> even_rows;
    for (size_t r = 0; r < table.num_rows(); r += 2) even_rows.push_back(r);
    const dataset::Table train = table.SelectRows(even_rows);

    cleaning::AttributeNoiseOptions noise;
    OTCLEAN_ASSIGN_OR_RETURN(noise.target_col,
                             train.schema().ColumnIndex("doors"));
    OTCLEAN_ASSIGN_OR_RETURN(noise.driver_col,
                             train.schema().ColumnIndex(bundle.label_col));
    noise.rate = 0.8;
    noise.seed = seed + 1;
    OTCLEAN_ASSIGN_OR_RETURN(dataset::Table dirty,
                             cleaning::InjectAttributeNoise(train, noise));
    OTCLEAN_RETURN_NOT_OK(AddTable(
        dirty,
        "even rows of " + SeedLabel("MakeCar(2500, ", seed) +
            " + 80% doors noise seed " + std::to_string(noise.seed),
        bundle.constraint, inputs));

    Request request;
    request.table = i;
    request.constraint = bundle.constraint;
    request.options = SingleRequestOptions(threads);
    request.options.fast.max_sinkhorn_iterations = inner_iterations;
    request.key = i;
    request.repeats = true;
    inputs.cycle.push_back(std::move(request));
  }
  inputs.quality_requests = tables;
  return Status::OK();
}

Status MakeCompasInputs(size_t threads, Inputs& inputs) {
  for (size_t i = 0; i < kTablesPerRun; ++i) {
    const uint64_t seed = TableSeed(907, inputs.seed, i);
    OTCLEAN_ASSIGN_OR_RETURN(datagen::DatasetBundle bundle,
                             datagen::MakeCompas(3000, seed));
    OTCLEAN_RETURN_NOT_OK(AddTable(bundle.table,
                                   SeedLabel("MakeCompas(3000, ", seed),
                                   bundle.constraint, inputs));
    Request request;
    request.table = i;
    request.constraint = bundle.constraint;
    request.options = SingleRequestOptions(threads);
    request.key = i;
    request.repeats = true;
    inputs.cycle.push_back(std::move(request));
  }
  inputs.quality_requests = kTablesPerRun;
  return Status::OK();
}

/// Tables 0-1 carry the hot keys, 2-3 the cold ones, 4 the QCLP request.
Status MakeServeInputs(Inputs& inputs) {
  for (size_t i = 0; i < 4; ++i) {
    datagen::ScalingDatasetOptions gen;
    gen.num_rows = kServeRows;
    gen.num_z_attrs = 2;
    gen.z_card = 4;
    gen.num_w_attrs = 3;
    gen.w_card = 6;
    gen.violation = i % 2 == 0 ? 0.6 : 0.4;
    gen.seed = TableSeed(21, inputs.seed, i);
    OTCLEAN_ASSIGN_OR_RETURN(dataset::Table table,
                             datagen::MakeScalingDataset(gen));
    OTCLEAN_RETURN_NOT_OK(AddTable(
        table, SeedLabel("MakeScalingDataset(50000 rows, seed ", gen.seed),
        core::CiConstraint({"x"}, {"y"}, {"z0", "z1"}), inputs));
  }
  const uint64_t compas_seed = TableSeed(907, inputs.seed, 4);
  OTCLEAN_ASSIGN_OR_RETURN(datagen::DatasetBundle compas,
                           datagen::MakeCompas(3000, compas_seed));
  OTCLEAN_RETURN_NOT_OK(AddTable(compas.table,
                                 SeedLabel("MakeCompas(3000, ", compas_seed),
                                 compas.constraint, inputs));
  inputs.quality_requests = kServeQualityRequests;
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "car-noise", "compas-fair", "serve-mixed", "car-noise-full"};
  return names;
}

Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed,
                          size_t threads) {
  Inputs inputs;
  inputs.seed = seed;
  if (workload == "car-noise") {
    OTCLEAN_RETURN_NOT_OK(
        MakeCarInputs(kCarInnerIterations, kTablesPerRun, kCarThreads, inputs));
  } else if (workload == "car-noise-full") {
    OTCLEAN_RETURN_NOT_OK(MakeCarInputs(
        core::FastOtCleanOptions{}.max_sinkhorn_iterations, 1, threads, inputs));
  } else if (workload == "compas-fair") {
    OTCLEAN_RETURN_NOT_OK(MakeCompasInputs(threads, inputs));
  } else if (workload == "serve-mixed") {
    OTCLEAN_RETURN_NOT_OK(MakeServeInputs(inputs));
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  return inputs;
}

Request MakeRequest(const Inputs& inputs, size_t k) {
  if (!inputs.cycle.empty()) return inputs.cycle[k % inputs.cycle.size()];

  // Each period of 8: QCLP at position 7, a cold key at 1 and 4 (a new ε
  // on a cold table: always a cache miss), a hot key elsewhere (one of two
  // tables at the base ε: a hit after each table's first use). Hits are
  // then ~5/8 of the requests and misses ~2/8, so the median latency lies
  // among the hits and the p95 among the misses; with half hits the median
  // would sit on the boundary and flip between the two from run to run.
  Request request;
  const size_t position = k % kServePeriod;
  if (position == kServePeriod - 1) {
    request.table = 4;
    request.options.solver = core::Solver::kQclp;
    request.key = kQclpKey;
    request.repeats = true;
  } else if (position == 1 || position == 4) {
    const size_t cold = 2 * (k / kServePeriod) + (position == 4 ? 1 : 0);
    request.table = 2 + cold % 2;
    request.options = ServeScalingOptions(
        kServeEpsilon * (1.0 + 0.01 * static_cast<double>(cold + 1)));
    request.key = kColdKeyBase + cold;
  } else {
    request.table = position % 2;
    request.options = ServeScalingOptions(kServeEpsilon);
    request.key = request.table;
    request.repeats = true;
  }
  request.constraint = inputs.constraints[request.table];
  return request;
}

}  // namespace perfbench
