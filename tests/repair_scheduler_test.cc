#include "core/repair_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "common/cancellation.h"
#include "datagen/synthetic.h"

namespace otclean::core {
namespace {

dataset::Table MakeViolatingTable(uint64_t seed, size_t rows = 400,
                                  size_t num_w_attrs = 0) {
  datagen::ScalingDatasetOptions opts;
  opts.num_rows = rows;
  opts.num_z_attrs = 1;
  opts.z_card = 2;
  opts.num_w_attrs = num_w_attrs;
  opts.w_card = 2;
  opts.violation = 0.7;
  opts.seed = seed;
  return datagen::MakeScalingDataset(opts).value();
}

CiConstraint XyGivenZ() { return CiConstraint({"x"}, {"y"}, {"z0"}); }


/// A small mixed batch: two tables, varied options, one multi-constraint
/// job — enough shape diversity that scheduling bugs cannot hide behind
/// identical jobs.
std::vector<RepairJob> MakeBatch(const dataset::Table& t1,
                                 const dataset::Table& t2) {
  std::vector<RepairJob> jobs;
  {
    RepairJob j;
    j.table = &t1;
    j.constraints = {XyGivenZ()};
    jobs.push_back(j);
  }
  {
    RepairJob j;
    j.table = &t2;
    j.constraints = {XyGivenZ()};
    j.options.fast.epsilon = 0.05;
    j.options.seed = 7;
    jobs.push_back(j);
  }
  {
    RepairJob j;  // multi-constraint over the union of attributes
    j.table = &t2;
    j.constraints = {XyGivenZ(), CiConstraint({"x"}, {"w0"})};
    jobs.push_back(j);
  }
  {
    RepairJob j;  // deterministic MAP repairs + truncated sparse kernel
    j.table = &t1;
    j.constraints = {XyGivenZ()};
    j.options.sample_repair = false;
    j.options.fast.kernel_truncation = 1e-12;
    jobs.push_back(j);
  }
  {
    RepairJob j;  // log-domain Sinkhorn
    j.table = &t1;
    j.constraints = {XyGivenZ()};
    j.options.fast.log_domain = true;
    j.options.seed = 99;
    jobs.push_back(j);
  }
  return jobs;
}

void ExpectSameJobResults(const BatchReport& a, const BatchReport& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    ASSERT_TRUE(a.jobs[i].ok()) << i << ": " << a.jobs[i].status().ToString();
    ASSERT_TRUE(b.jobs[i].ok()) << i << ": " << b.jobs[i].status().ToString();
    const RepairReport& ra = *a.jobs[i];
    const RepairReport& rb = *b.jobs[i];
    EXPECT_TRUE(ra.repaired.SameContents(rb.repaired)) << "job " << i;
    EXPECT_EQ(ra.initial_cmi, rb.initial_cmi) << "job " << i;
    EXPECT_EQ(ra.final_cmi, rb.final_cmi) << "job " << i;
    EXPECT_EQ(ra.target_cmi, rb.target_cmi) << "job " << i;
    EXPECT_EQ(ra.transport_cost, rb.transport_cost) << "job " << i;
    EXPECT_EQ(ra.outer_iterations, rb.outer_iterations) << "job " << i;
    EXPECT_EQ(ra.total_sinkhorn_iterations, rb.total_sinkhorn_iterations)
        << "job " << i;
    EXPECT_EQ(ra.plan_nnz, rb.plan_nnz) << "job " << i;
    EXPECT_STREQ(ra.sinkhorn_domain, rb.sinkhorn_domain) << "job " << i;
  }
}

TEST(RepairSchedulerTest, ConcurrentBatchBitIdenticalToSequential) {
  const auto t1 = MakeViolatingTable(21);
  const auto t2 = MakeViolatingTable(22, 500, /*num_w_attrs=*/1);
  const std::vector<RepairJob> jobs = MakeBatch(t1, t2);

  RepairSchedulerOptions sequential;
  sequential.max_concurrent_jobs = 1;
  sequential.pool_threads = 1;
  const BatchReport seq = RepairScheduler(sequential).Run(jobs);

  RepairSchedulerOptions concurrent;
  concurrent.max_concurrent_jobs = 4;
  concurrent.pool_threads = 3;  // all four executors share 3 lanes
  const BatchReport conc = RepairScheduler(concurrent).Run(jobs);

  ExpectSameJobResults(seq, conc);
  EXPECT_EQ(conc.completed_jobs, jobs.size());
  EXPECT_EQ(conc.failed_jobs, 0u);
}

TEST(RepairSchedulerTest, MatchesManuallySeededStandaloneRepairs) {
  // The scheduler's only semantic deltas vs a plain RepairTable call are
  // the derived seed and the shared pool — and the pool must not change
  // results. So job i through the scheduler == RepairTable with
  // DeriveJobSeed(seed, i) applied by hand.
  const auto t1 = MakeViolatingTable(23);
  std::vector<RepairJob> jobs;
  for (uint64_t s : {42u, 7u}) {
    RepairJob j;
    j.table = &t1;
    j.constraints = {XyGivenZ()};
    j.options.seed = s;
    jobs.push_back(j);
  }
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 2;
  opts.pool_threads = 2;
  const BatchReport batch = RepairScheduler(opts).Run(jobs);

  for (size_t i = 0; i < jobs.size(); ++i) {
    RepairOptions manual = jobs[i].options;
    manual.seed = DeriveJobSeed(jobs[i].options.seed, i);
    const auto standalone = RepairTable(t1, XyGivenZ(), manual).value();
    ASSERT_TRUE(batch.jobs[i].ok());
    EXPECT_TRUE(standalone.repaired.SameContents(batch.jobs[i]->repaired));
    EXPECT_EQ(standalone.transport_cost, batch.jobs[i]->transport_cost);
    EXPECT_EQ(standalone.final_cmi, batch.jobs[i]->final_cmi);
  }
}

TEST(RepairSchedulerTest, ExplicitIdsKeepResultsUnderReordering) {
  // With explicit stable ids, shuffling the batch permutes the slots but
  // never changes any job's result: the seed depends on (seed, id) only.
  const auto t1 = MakeViolatingTable(24);
  const auto t2 = MakeViolatingTable(25);
  std::vector<RepairJob> jobs;
  for (uint64_t id : {10u, 11u, 12u}) {
    RepairJob j;
    j.table = id == 11 ? &t2 : &t1;
    j.constraints = {XyGivenZ()};
    j.id = id;
    jobs.push_back(j);
  }
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 3;
  opts.pool_threads = 2;
  const BatchReport forward = RepairScheduler(opts).Run(jobs);

  std::vector<RepairJob> reversed(jobs.rbegin(), jobs.rend());
  const BatchReport backward = RepairScheduler(opts).Run(reversed);

  for (size_t i = 0; i < jobs.size(); ++i) {
    const size_t ri = jobs.size() - 1 - i;
    ASSERT_TRUE(forward.jobs[i].ok());
    ASSERT_TRUE(backward.jobs[ri].ok());
    EXPECT_TRUE(
        forward.jobs[i]->repaired.SameContents(backward.jobs[ri]->repaired));
    EXPECT_EQ(forward.jobs[i]->transport_cost,
              backward.jobs[ri]->transport_cost);
  }
}

TEST(RepairSchedulerTest, DeriveJobSeedIsStableAndCollisionFree) {
  // Stable: the derivation is a pure function of (base_seed, id).
  EXPECT_EQ(DeriveJobSeed(42, 0), DeriveJobSeed(42, 0));
  // Decorrelated: distinct ids (or bases) give distinct seeds, and job 0
  // never degenerates to the bare base seed.
  std::set<uint64_t> seeds;
  for (uint64_t base : {0u, 1u, 42u}) {
    for (uint64_t id = 0; id < 100; ++id) {
      seeds.insert(DeriveJobSeed(base, id));
      EXPECT_NE(DeriveJobSeed(base, id), base);
    }
  }
  EXPECT_EQ(seeds.size(), 300u);
}

TEST(RepairSchedulerTest, FailedJobDoesNotAbortBatch) {
  const auto t1 = MakeViolatingTable(26);
  std::vector<RepairJob> jobs;
  {
    RepairJob j;
    j.table = &t1;
    j.constraints = {XyGivenZ()};
    jobs.push_back(j);
  }
  {
    RepairJob j;  // invalid: multi-constraint + use_saturation=false
    j.table = &t1;
    j.constraints = {XyGivenZ(), CiConstraint({"x"}, {"z0"})};
    j.options.use_saturation = false;
    jobs.push_back(j);
  }
  {
    RepairJob j;  // invalid: no table
    j.constraints = {XyGivenZ()};
    jobs.push_back(j);
  }
  linalg::ThreadPool private_pool(2);
  {
    RepairJob j;  // invalid: brings its own pool (scheduler owns sharing)
    j.table = &t1;
    j.constraints = {XyGivenZ()};
    j.options.fast.thread_pool = &private_pool;
    jobs.push_back(j);
  }
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 3;
  const BatchReport report = RepairScheduler(opts).Run(jobs);
  EXPECT_EQ(report.completed_jobs, 1u);
  EXPECT_EQ(report.failed_jobs, 3u);
  EXPECT_TRUE(report.jobs[0].ok());
  EXPECT_EQ(report.jobs[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.jobs[3].status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.jobs[3].status().message().find("thread_pool"),
            std::string::npos);
  EXPECT_EQ(report.jobs[2].status().code(), StatusCode::kInvalidArgument);
}

TEST(RepairSchedulerTest, AggregatesBatchDiagnostics) {
  const auto t1 = MakeViolatingTable(27);
  std::vector<RepairJob> jobs(3);
  for (auto& j : jobs) {
    j.table = &t1;
    j.constraints = {XyGivenZ()};
  }
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 2;
  const BatchReport report = RepairScheduler(opts).Run(jobs);
  ASSERT_EQ(report.completed_jobs, 3u);
  EXPECT_GT(report.jobs_per_second, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  size_t iters = 0, peak = 0;
  for (const auto& r : report.jobs) {
    iters += r->total_sinkhorn_iterations;
    peak = std::max(peak, r->plan_memory_bytes);
  }
  EXPECT_EQ(report.total_sinkhorn_iterations, iters);
  EXPECT_EQ(report.peak_plan_bytes, peak);
  EXPECT_GT(report.peak_plan_bytes, 0u);
}

TEST(RepairSchedulerTest, SerialPoolForcesSerialSolvesWithSameResults) {
  // pool_threads=1 resolves to no shared pool; the scheduler then forces
  // per-job solves serial (instead of letting every executor spawn a
  // private pool) — and thread-count bit-compatibility means results
  // still match a wide-pool run exactly, even for jobs requesting
  // num_threads > 1.
  const auto t1 = MakeViolatingTable(29);
  std::vector<RepairJob> jobs(2);
  for (auto& j : jobs) {
    j.table = &t1;
    j.constraints = {XyGivenZ()};
    j.options.fast.num_threads = 8;
  }
  RepairSchedulerOptions serial;
  serial.max_concurrent_jobs = 2;
  serial.pool_threads = 1;
  RepairScheduler serial_scheduler(serial);
  EXPECT_EQ(serial_scheduler.shared_pool(), nullptr);
  const BatchReport no_pool = serial_scheduler.Run(jobs);

  RepairSchedulerOptions wide;
  wide.max_concurrent_jobs = 2;
  wide.pool_threads = 8;
  RepairScheduler wide_scheduler(wide);
  EXPECT_NE(wide_scheduler.shared_pool(), nullptr);
  const BatchReport pooled = wide_scheduler.Run(jobs);

  ExpectSameJobResults(no_pool, pooled);
}

TEST(RepairSchedulerTest, EmptyBatchIsANoOp) {
  RepairScheduler scheduler;
  const BatchReport report = scheduler.Run({});
  EXPECT_TRUE(report.jobs.empty());
  EXPECT_EQ(report.completed_jobs, 0u);
  EXPECT_EQ(report.failed_jobs, 0u);
}

TEST(RepairSchedulerTest, SchedulerIsReusableAcrossBatches) {
  // One long-lived scheduler (the serving model): pool persists, batches
  // keep their determinism contract run to run.
  const auto t1 = MakeViolatingTable(28);
  RepairJob j;
  j.table = &t1;
  j.constraints = {XyGivenZ()};
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 2;
  opts.pool_threads = 2;
  RepairScheduler scheduler(opts);
  const BatchReport first = scheduler.Run({j, j});
  const BatchReport second = scheduler.Run({j, j});
  ExpectSameJobResults(first, second);
}

// ----------------------------------------------------- Submit/Wait/Cancel --

/// A job whose solve runs for minutes unless stopped: an 864-cell domain
/// and tolerances no iterate meets, so a stop signal is the only fast exit.
struct SlowJobFixture {
  dataset::Table table;
  CiConstraint wide{{"x"}, {"y"}, {"z0", "z1", "z2"}};
  RepairJob job;

  SlowJobFixture() {
    datagen::ScalingDatasetOptions opts;
    opts.num_rows = 1000;
    opts.num_z_attrs = 3;
    opts.z_card = 6;
    opts.violation = 0.7;
    opts.seed = 51;
    table = datagen::MakeScalingDataset(opts).value();
    job.table = &table;
    job.constraints = {wide};
    job.options.fast.max_outer_iterations = 100000;
    job.options.fast.outer_tolerance = 0.0;
    job.options.fast.max_sinkhorn_iterations = 5000;
    job.options.fast.sinkhorn_tolerance = 0.0;
  }
};

TEST(RepairSchedulerLifecycleTest, SubmitWaitServesAndConsumesTickets) {
  const auto t1 = MakeViolatingTable(50);
  RepairJob job;
  job.table = &t1;
  job.constraints = {XyGivenZ()};

  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 2;
  opts.pool_threads = 1;
  RepairScheduler scheduler(opts);

  const Result<JobTicket> ticket = scheduler.Submit(job);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const Result<RepairReport> r = scheduler.Wait(*ticket);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->total_sinkhorn_iterations, 0u);

  // Wait consumes: the ticket is gone, a second Wait cannot block forever.
  const Result<RepairReport> again = scheduler.Wait(*ticket);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Cancel(*ticket).code(), StatusCode::kNotFound);
}

TEST(RepairSchedulerLifecycleTest, CancelStopsQueuedAndRunningJobs) {
  SlowJobFixture slow;
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 1;  // one executor: the second job must queue
  opts.pool_threads = 1;
  RepairScheduler scheduler(opts);

  const Result<JobTicket> running = scheduler.Submit(slow.job);
  ASSERT_TRUE(running.ok());
  const Result<JobTicket> queued = scheduler.Submit(slow.job);
  ASSERT_TRUE(queued.ok());

  // The queued job dies at dequeue without spending a solve; the running
  // one aborts at its next cooperative checkpoint.
  ASSERT_TRUE(scheduler.Cancel(*queued).ok());
  ASSERT_TRUE(scheduler.Cancel(*running).ok());

  const Result<RepairReport> queued_result = scheduler.Wait(*queued);
  ASSERT_FALSE(queued_result.ok());
  EXPECT_EQ(queued_result.status().code(), StatusCode::kCancelled);

  const Result<RepairReport> running_result = scheduler.Wait(*running);
  ASSERT_FALSE(running_result.ok());
  EXPECT_EQ(running_result.status().code(), StatusCode::kCancelled);
}

TEST(RepairSchedulerLifecycleTest, DrainAndStopFailsQueuedAndRefusesNewWork) {
  SlowJobFixture slow;
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 1;
  opts.pool_threads = 1;
  RepairScheduler scheduler(opts);

  const Result<JobTicket> running = scheduler.Submit(slow.job);
  ASSERT_TRUE(running.ok());
  const Result<JobTicket> queued = scheduler.Submit(slow.job);
  ASSERT_TRUE(queued.ok());

  // Cancel the in-flight job first so the drain's join is prompt; drain
  // then fails everything still queued without running it.
  ASSERT_TRUE(scheduler.Cancel(*running).ok());
  scheduler.DrainAndStop();

  const Result<RepairReport> queued_result = scheduler.Wait(*queued);
  ASSERT_FALSE(queued_result.ok());
  EXPECT_EQ(queued_result.status().code(), StatusCode::kCancelled);
  EXPECT_NE(queued_result.status().message().find("queued"),
            std::string::npos);

  const Result<JobTicket> refused = scheduler.Submit(slow.job);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RepairSchedulerLifecycleTest, FullQueueRejectsCompetingSubmitters) {
  SlowJobFixture slow;
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 1;
  opts.pool_threads = 1;
  opts.max_queued_jobs = 1;
  RepairScheduler scheduler(opts);

  const Result<JobTicket> running = scheduler.Submit(slow.job);
  ASSERT_TRUE(running.ok());
  // Give the executor time to dequeue the first job so the queue is
  // genuinely empty before the next admission.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const Result<JobTicket> queued = scheduler.Submit(slow.job);
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  const Result<JobTicket> rejected = scheduler.Submit(slow.job);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("queue full"),
            std::string::npos);

  ASSERT_TRUE(scheduler.Cancel(*queued).ok());
  ASSERT_TRUE(scheduler.Cancel(*running).ok());
  EXPECT_EQ(scheduler.Wait(*queued).status().code(), StatusCode::kCancelled);
  EXPECT_EQ(scheduler.Wait(*running).status().code(), StatusCode::kCancelled);
}

TEST(RepairSchedulerLifecycleTest, JobSuppliedStopStateIsRejectedLoudly) {
  const auto t1 = MakeViolatingTable(52);
  RepairScheduler scheduler;
  RepairJob base;
  base.table = &t1;
  base.constraints = {XyGivenZ()};

  for (double bad : {0.0, -1.0}) {
    RepairJob with_bad_seconds = base;
    with_bad_seconds.deadline_seconds = bad;
    const Result<JobTicket> r = scheduler.Submit(with_bad_seconds);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }

  RepairSchedulerOptions bad_default;
  bad_default.default_deadline_seconds = -2.0;
  RepairScheduler bad_scheduler(bad_default);
  const Result<JobTicket> r = bad_scheduler.Submit(base);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("default_deadline_seconds"),
            std::string::npos);
}

TEST(RepairSchedulerLifecycleTest, DefaultDeadlineAppliesToEveryJob) {
  SlowJobFixture slow;
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 1;
  opts.pool_threads = 1;
  opts.default_deadline_seconds = 1e-3;
  const BatchReport report = RepairScheduler(opts).Run({slow.job});
  ASSERT_EQ(report.jobs.size(), 1u);
  ASSERT_FALSE(report.jobs[0].ok());
  EXPECT_EQ(report.jobs[0].status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.deadline_exceeded_jobs, 1u);
  EXPECT_EQ(report.failed_jobs, 1u);
}

// ------------------------------------------------------- solver matrix --

/// Every solver family — QCLP (alternating exact LPs), both Capuchin
/// baselines and CapMaxSat — must complete as an ordinary RepairJob on the
/// shared scheduler infrastructure, filling the shared report surface.
TEST(RepairSchedulerSolverMatrixTest, EverySolverFamilyCompletesThroughTheScheduler) {
  const auto table = MakeViolatingTable(61);
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 2;
  opts.pool_threads = 1;
  RepairScheduler scheduler(opts);

  std::vector<RepairJob> jobs;
  {
    RepairJob j;  // the exact/LP path
    j.table = &table;
    j.constraints = {XyGivenZ()};
    j.options.solver = Solver::kQclp;
    j.name = "qclp";
    jobs.push_back(j);
  }
  {
    RepairJob j;
    j.table = &table;
    j.constraints = {XyGivenZ()};
    j.options.solver = Solver::kCapuchinIC;
    j.name = "capuchin-ic";
    jobs.push_back(j);
  }
  {
    RepairJob j;
    j.table = &table;
    j.constraints = {XyGivenZ()};
    j.options.solver = Solver::kCapuchinMF;
    j.options.fairness.nmf_max_iterations = 200;
    j.name = "capuchin-mf";
    jobs.push_back(j);
  }
  {
    RepairJob j;
    j.table = &table;
    j.constraints = {XyGivenZ()};
    j.options.solver = Solver::kCapMaxSat;
    j.name = "capmaxsat";
    jobs.push_back(j);
  }

  const BatchReport report = scheduler.Run(jobs);
  ASSERT_EQ(report.jobs.size(), 4u);
  for (size_t i = 0; i < report.jobs.size(); ++i) {
    ASSERT_TRUE(report.jobs[i].ok())
        << jobs[i].name << ": " << report.jobs[i].status().ToString();
  }
  EXPECT_EQ(report.completed_jobs, 4u);
  EXPECT_EQ(report.failed_jobs, 0u);

  // QCLP drives the constraint out through exact LPs.
  EXPECT_GT(report.jobs[0]->outer_iterations, 0u);
  EXPECT_LT(report.jobs[0]->target_cmi, 1e-6);
  EXPECT_GT(report.jobs[0]->transport_cost, 0.0);
  // The Capuchin IC baseline resamples toward the CI projection; the
  // violation shrinks even under sampling noise.
  EXPECT_LT(report.jobs[1]->final_cmi, report.jobs[1]->initial_cmi);
  EXPECT_LT(report.jobs[2]->final_cmi, report.jobs[2]->initial_cmi);
  // CapMaxSat repairs rows directly (no transport plan) and enforces the
  // MVD *structurally* — per-z cross-product support, reported through
  // `converged` — while the distributional CMI may legitimately stay put.
  EXPECT_TRUE(report.jobs[3]->converged);
}

TEST(RepairSchedulerSolverMatrixTest, QclpJobsHonorCancelAndFairnessJobsHonorDeadlines) {
  const auto table = MakeViolatingTable(62, 400, 2);
  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 1;  // one executor: the fairness job must queue
  opts.pool_threads = 1;
  RepairScheduler scheduler(opts);

  // A QCLP job that never converges on its own (negative tolerance, huge
  // alternation budget): only the scheduler's token can stop it, at the
  // per-alternation / per-pivot cooperative checkpoints.
  RepairJob slow_qclp;
  slow_qclp.table = &table;
  slow_qclp.constraints = {XyGivenZ()};
  slow_qclp.options.solver = Solver::kQclp;
  slow_qclp.options.qclp.max_outer_iterations = 100000000;
  slow_qclp.options.qclp.outer_tolerance = -1.0;
  const Result<JobTicket> running = scheduler.Submit(slow_qclp);
  ASSERT_TRUE(running.ok()) << running.status().ToString();

  // A fairness job queued behind it with a deadline it cannot make: the
  // Submit-anchored clock runs while it waits, so it must die with
  // kDeadlineExceeded, never silently run late.
  RepairJob fair;
  fair.table = &table;
  fair.constraints = {XyGivenZ()};
  fair.options.solver = Solver::kCapuchinIC;
  fair.deadline_seconds = 0.001;
  const Result<JobTicket> queued = scheduler.Submit(fair);
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(scheduler.Cancel(*running).ok());
  const Result<RepairReport> cancelled = scheduler.Wait(*running);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  const Result<RepairReport> deadlined = scheduler.Wait(*queued);
  ASSERT_FALSE(deadlined.ok());
  EXPECT_EQ(deadlined.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace otclean::core
