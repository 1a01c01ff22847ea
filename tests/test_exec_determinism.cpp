// Thread-count determinism: every parallel kernel partitions work by
// output element without changing any per-element accumulation order,
// so the whole stack -- linalg kernels, SVT, LRR, LoLi-IR, the KNN
// matcher -- must produce the same numbers at 1 thread and at 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tafloc/exec/exec_config.h"
#include "tafloc/exec/thread_pool.h"
#include "tafloc/fingerprint/distortion.h"
#include "tafloc/fingerprint/reference.h"
#include "tafloc/linalg/matrix.h"
#include "tafloc/loc/matcher.h"
#include "tafloc/recon/loli_ir.h"
#include "tafloc/recon/lrr.h"
#include "tafloc/recon/svt.h"
#include "tafloc/sim/scenario.h"
#include "tafloc/telemetry/metrics.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

/// RAII guard: set the global pool size, restore the old one on exit.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t threads) : previous_(global_thread_count()) {
    set_global_threads(threads);
  }
  ~ThreadGuard() { set_global_threads(previous_); }

 private:
  std::size_t previous_;
};

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.normal(0.0, 1.0);
  return m;
}

template <class Fn>
auto at_threads(std::size_t threads, Fn&& fn) {
  ThreadGuard guard(threads);
  return fn();
}

/// One localize() call per query, in order (the serving path's shape).
std::vector<Point2> localize_each(const KnnMatcher& matcher, const std::vector<Vector>& queries) {
  std::vector<Point2> out;
  for (const Vector& rss : queries) out.push_back(matcher.localize(rss));
  return out;
}

// ---------------- linalg kernels ----------------

TEST(ExecDeterminism, IntoKernelsMatchValueApiBitwise) {
  const Matrix a = random_matrix(37, 53, 11);
  const Matrix b = random_matrix(53, 29, 12);
  const Matrix c = random_matrix(29, 53, 13);

  ThreadGuard guard(8);
  Matrix prod(a.rows(), b.cols());
  multiply_into(a, b, prod);
  EXPECT_EQ(max_abs_diff(prod, a * b), 0.0);

  Matrix gram(a.cols(), a.cols());
  gram_product_into(a, a, gram);
  EXPECT_EQ(max_abs_diff(gram, gram_product(a, a)), 0.0);

  Matrix tr(a.cols(), a.rows());
  transposed_into(a, tr);
  EXPECT_EQ(max_abs_diff(tr, a.transposed()), 0.0);

  Matrix outer(a.rows(), c.rows());
  outer_product_into(a, c, outer);
  EXPECT_EQ(max_abs_diff(outer, outer_product(a, c)), 0.0);
}

TEST(ExecDeterminism, GemmBitIdenticalAcrossThreadCounts) {
  const Matrix a = random_matrix(96, 64, 21);
  const Matrix b = random_matrix(64, 80, 22);
  const Matrix p1 = at_threads(1, [&] { return a * b; });
  const Matrix p8 = at_threads(8, [&] { return a * b; });
  EXPECT_EQ(max_abs_diff(p1, p8), 0.0);
}

TEST(ExecDeterminism, ViewKernelsBitIdenticalToCopyPathsAcrossThreads) {
  // Property: running a kernel on a col_view/block_view/columns_view of
  // a larger matrix gives bitwise the same result as first copying the
  // slice out -- at 1 thread and at 8.
  const Matrix big = random_matrix(48, 72, 61);
  const Matrix b = random_matrix(24, 33, 62);

  const Matrix slice_copy(big.block_view(8, 16, 40, 24));  // owning copy
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadGuard guard(threads);
    // gemm on the strided block view vs on the copy.
    Matrix from_view(40, 33);
    multiply_into(big.block_view(8, 16, 40, 24), b.view(), from_view.view());
    Matrix from_copy;
    multiply_into(slice_copy, b, from_copy);
    EXPECT_EQ(from_view, from_copy) << "threads=" << threads;

    // gram product on a contiguous column-range view vs on the copy.
    const Matrix cols_copy(big.columns_view(10, 20));
    Matrix gram_view(20, 20);
    gram_product_into(big.columns_view(10, 20), big.columns_view(10, 20), gram_view.view());
    Matrix gram_copy;
    gram_product_into(cols_copy, cols_copy, gram_copy);
    EXPECT_EQ(gram_view, gram_copy) << "threads=" << threads;

    // transpose of a strided block.
    Matrix tr_view(24, 40);
    transposed_into(big.block_view(8, 16, 40, 24), tr_view.view());
    Matrix tr_copy;
    transposed_into(slice_copy, tr_copy);
    EXPECT_EQ(tr_view, tr_copy) << "threads=" << threads;
  }
}

TEST(ExecDeterminism, GatherColumnsMatchesSelectColumnsAcrossThreads) {
  const Matrix x = random_matrix(32, 50, 63);
  const std::vector<std::size_t> idx = {0, 7, 7, 49, 13};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadGuard guard(threads);
    Matrix gathered;
    gather_columns_into(x, idx, gathered);
    EXPECT_EQ(gathered, x.select_columns(idx)) << "threads=" << threads;
  }
}

// ---------------- reconstruction solvers ----------------

TEST(ExecDeterminism, SvtAgreesAcrossThreadCounts) {
  // Low-rank ground truth with a random observation mask.
  const Matrix u = random_matrix(24, 3, 31);
  const Matrix v = random_matrix(20, 3, 32);
  const Matrix truth = outer_product(u, v);
  Rng rng(33);
  Matrix mask(truth.rows(), truth.cols());
  for (double& x : mask.data()) x = rng.uniform01() < 0.6 ? 1.0 : 0.0;
  const Matrix known = mask.hadamard(truth);

  const SvtResult r1 = at_threads(1, [&] { return svt_complete(known, mask); });
  const SvtResult r8 = at_threads(8, [&] { return svt_complete(known, mask); });
  EXPECT_EQ(r1.iterations, r8.iterations);
  EXPECT_LE(max_abs_diff(r1.x, r8.x), 1e-12);
}

/// A ready-to-solve LoLi-IR instance from the simulated paper room
/// (assembled the same way TafLocSystem does it).
LoliIrProblem paper_room_problem(std::uint64_t seed, double t_days) {
  Scenario scenario = Scenario::paper_room(seed);
  Rng rng0(seed + 500);
  const Matrix x0 = scenario.collector().survey_all(0.0, rng0);
  Rng rng1(seed + 501);
  const Vector ambient0 = scenario.collector().ambient_scan(0.0, rng1);
  const DistortionMask mask = DistortionDetector().detect_from_data(x0, ambient0);
  const std::vector<std::size_t> refs =
      select_reference_locations(x0, 10, ReferencePolicy::QrPivot);
  const LrrModel lrr(x0, refs);

  Rng rng(seed + 1000);
  const Matrix fresh_refs = scenario.collector().survey_grids(refs, t_days, rng);
  const Vector fresh_ambient = scenario.collector().ambient_scan(t_days, rng);

  LoliIrProblem problem;
  problem.mask_undistorted = mask.undistorted;
  problem.known = known_entry_matrix(mask, fresh_ambient);
  problem.prediction = lrr.predict(fresh_refs);
  problem.reference_columns = fresh_refs;
  problem.reference_indices = refs;
  problem.continuity = continuity_pairs(scenario.deployment(), &mask.undistorted);
  problem.similarity = similarity_pairs(scenario.deployment(), &mask.undistorted);
  return problem;
}

TEST(ExecDeterminism, LoliIrAgreesAcrossThreadCounts) {
  const LoliIrProblem problem = paper_room_problem(7, 45.0);

  const LoliIrResult r1 = at_threads(1, [&] { return loli_ir_reconstruct(problem); });
  const LoliIrResult r8 = at_threads(8, [&] { return loli_ir_reconstruct(problem); });

  EXPECT_EQ(r1.outer_iterations, r8.outer_iterations);
  EXPECT_EQ(r1.converged, r8.converged);
  EXPECT_LE(max_abs_diff(r1.x, r8.x), 1e-12);
  ASSERT_EQ(r1.objective_trace.size(), r8.objective_trace.size());
  for (std::size_t i = 0; i < r1.objective_trace.size(); ++i)
    EXPECT_NEAR(r1.objective_trace[i], r8.objective_trace[i],
                1e-12 * std::abs(r1.objective_trace[i]));
}

TEST(ExecDeterminism, LoliIrSteadyStateIsAllocationFree) {
  const LoliIrProblem problem = paper_room_problem(8, 45.0);
  const LoliIrResult res = loli_ir_reconstruct(problem);
  ASSERT_GE(res.outer_iterations, 2u)
      << "fixture must iterate at least twice to exercise the steady state";
  EXPECT_GT(res.workspace_allocations, 0u);
  EXPECT_EQ(res.workspace_allocations_steady, 0u)
      << "iterations after warm-up must reuse every workspace buffer";
}

// ---------------- telemetry neutrality ----------------

TEST(ExecDeterminism, LoliIrBitIdenticalWithTelemetryOnOffAcrossThreadCounts) {
  // The determinism contract of the telemetry layer: metrics observe,
  // never steer, so an attached registry changes no output bit at any
  // thread count.
  const LoliIrProblem problem = paper_room_problem(11, 45.0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadGuard guard(threads);
    MetricRegistry registry;
    LoliIrConfig with_telemetry;
    with_telemetry.telemetry = &registry;
    const LoliIrResult on = loli_ir_reconstruct(problem, with_telemetry);
    const LoliIrResult off = loli_ir_reconstruct(problem, LoliIrConfig{});

    EXPECT_EQ(max_abs_diff(on.x, off.x), 0.0) << "threads=" << threads;
    EXPECT_EQ(on.outer_iterations, off.outer_iterations) << "threads=" << threads;
    EXPECT_EQ(on.converged, off.converged) << "threads=" << threads;
    ASSERT_EQ(on.objective_trace.size(), off.objective_trace.size());
    for (std::size_t i = 0; i < on.objective_trace.size(); ++i)
      EXPECT_EQ(on.objective_trace[i], off.objective_trace[i])
          << "threads=" << threads << " sweep " << i;
    EXPECT_GT(registry.counter("recon.loli_ir.outer_iterations").value(), 0u)
        << "the instrumented run must actually have recorded metrics";
  }
}

TEST(ExecDeterminism, KnnBitIdenticalWithTelemetryAttachedAcrossThreadCounts) {
  Scenario scenario = Scenario::paper_room(12);
  Rng rng(1201);
  const Matrix fingerprints = scenario.collector().survey_all(0.0, rng);
  KnnMatcher plain(fingerprints, scenario.deployment().grid(), 3);
  KnnMatcher instrumented(fingerprints, scenario.deployment().grid(), 3);
  MetricRegistry registry;
  instrumented.attach_telemetry(&registry);

  std::vector<Vector> batch;
  for (std::size_t q = 0; q < 24; ++q) {
    Vector rss(fingerprints.rows());
    for (double& v : rss) v = rng.normal(-50.0, 5.0);
    batch.push_back(std::move(rss));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadGuard guard(threads);
    const std::vector<Point2> expected = localize_each(plain, batch);
    const std::vector<Point2> observed = localize_each(instrumented, batch);
    ASSERT_EQ(expected.size(), observed.size());
    for (std::size_t q = 0; q < expected.size(); ++q) {
      EXPECT_EQ(expected[q].x, observed[q].x) << "threads=" << threads << " query " << q;
      EXPECT_EQ(expected[q].y, observed[q].y) << "threads=" << threads << " query " << q;
    }
  }
  EXPECT_EQ(registry.counter("loc.knn.queries").value(), 2u * 24u);
  EXPECT_EQ(registry.histogram("loc.knn.query_seconds").count(), 2u * 24u);
}

// ---------------- localization ----------------

TEST(ExecDeterminism, KnnPerQueryPathIsAllocationFree) {
  // The Fig. 5 per-query loop: after one warm-up query per thread, the
  // KNN scratch counter must stay flat no matter how many queries run --
  // on the float scan, and on the two-tier scan for unmasked queries, a
  // masked one and one whose re-rank widens to every grid.
  Scenario scenario = Scenario::paper_room(10);
  Rng rng(1001);
  const Matrix fingerprints = scenario.collector().survey_all(0.0, rng);
  KnnMatcher matcher(fingerprints, scenario.deployment().grid(), 3);

  Vector rss(fingerprints.rows());
  for (double& v : rss) v = rng.normal(-50.0, 5.0);

  ThreadGuard guard(1);  // single lane -> one thread_local scratch
  (void)matcher.localize(rss);  // warm up the scratch
  std::size_t before = KnnMatcher::scratch_allocations();
  for (std::size_t q = 0; q < 200; ++q) {
    for (double& v : rss) v = rng.normal(-50.0, 5.0);
    (void)matcher.localize(rss);
  }
  EXPECT_EQ(KnnMatcher::scratch_allocations(), before)
      << "localize() must not grow its scratch after the first query";

  QuantizedTier tier;
  tier.rebuild(fingerprints.view());
  matcher.attach_quantized_tier(&tier);
  ASSERT_TRUE(matcher.quantized_active());
  MetricRegistry registry;
  matcher.attach_telemetry(&registry);
  (void)matcher.localize(rss);  // warm up the two-tier buffers
  before = KnnMatcher::scratch_allocations();
  for (std::size_t q = 0; q < 200; ++q) {
    for (double& v : rss) v = rng.normal(-50.0, 5.0);
    (void)matcher.localize(rss);
  }
  EXPECT_EQ(KnnMatcher::scratch_allocations(), before)
      << "unmasked two-tier queries must not count a scratch growth";

  LinkHealth health(fingerprints.rows());
  health.mark_dead(0);
  matcher.attach_link_health(&health);
  rss[0] = std::nan("");
  (void)matcher.localize(rss);
  EXPECT_EQ(KnnMatcher::scratch_allocations(), before) << "masked two-tier query";
  matcher.attach_link_health(nullptr);

  // Far above every surveyed level: the clamp residual defeats the
  // exclusion bound, so the candidate set doubles until it is all grids.
  const std::size_t n = fingerprints.cols();
  std::size_t doublings = 0;
  for (std::size_t m = std::max<std::size_t>(3 * 4, 3 + 8); m < n; m *= 2) ++doublings;
  const std::uint64_t widenings = registry.counter("loc.knn.rerank_widenings").value();
  (void)matcher.localize(Vector(fingerprints.rows(), -20.0));
  EXPECT_EQ(registry.counter("loc.knn.rerank_widenings").value() - widenings, doublings);
  EXPECT_EQ(KnnMatcher::scratch_allocations(), before) << "query widened to every grid";
}

TEST(ExecDeterminism, KnnAllHealthyMaskBitIdenticalAcrossThreadCounts) {
  // Attaching a LinkHealth mask with every link usable must leave the
  // scan on its exact unmasked code path: same bits as no mask, at any
  // thread count.
  Scenario scenario = Scenario::paper_room(13);
  Rng rng(1301);
  const Matrix fingerprints = scenario.collector().survey_all(0.0, rng);
  const LinkHealth health(fingerprints.rows());
  KnnMatcher plain(fingerprints, scenario.deployment().grid(), 3);
  KnnMatcher masked(fingerprints, scenario.deployment().grid(), 3);
  masked.attach_link_health(&health);

  std::vector<Vector> batch;
  for (std::size_t q = 0; q < 24; ++q) {
    Vector rss(fingerprints.rows());
    for (double& v : rss) v = rng.normal(-50.0, 5.0);
    batch.push_back(std::move(rss));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadGuard guard(threads);
    const std::vector<Point2> expected = localize_each(plain, batch);
    const std::vector<Point2> observed = localize_each(masked, batch);
    ASSERT_EQ(expected.size(), observed.size());
    for (std::size_t q = 0; q < expected.size(); ++q) {
      EXPECT_EQ(expected[q].x, observed[q].x) << "threads=" << threads << " query " << q;
      EXPECT_EQ(expected[q].y, observed[q].y) << "threads=" << threads << " query " << q;
    }
  }
}

TEST(ExecDeterminism, KnnMaskedScanBitIdenticalAcrossThreadCounts) {
  Scenario scenario = Scenario::paper_room(14);
  Rng rng(1401);
  const Matrix fingerprints = scenario.collector().survey_all(0.0, rng);
  LinkHealth health(fingerprints.rows());
  health.mark_dead(0);
  health.mark_dead(fingerprints.rows() / 2);
  KnnMatcher matcher(fingerprints, scenario.deployment().grid(), 3);
  matcher.attach_link_health(&health);

  std::vector<Vector> batch;
  for (std::size_t q = 0; q < 16; ++q) {
    Vector rss(fingerprints.rows());
    for (double& v : rss) v = rng.normal(-50.0, 5.0);
    batch.push_back(std::move(rss));
  }

  const std::vector<Point2> reference =
      at_threads(1, [&] { return localize_each(matcher, batch); });
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const std::vector<Point2> observed =
        at_threads(threads, [&] { return localize_each(matcher, batch); });
    ASSERT_EQ(reference.size(), observed.size());
    for (std::size_t q = 0; q < reference.size(); ++q) {
      EXPECT_EQ(reference[q].x, observed[q].x) << "threads=" << threads << " query " << q;
      EXPECT_EQ(reference[q].y, observed[q].y) << "threads=" << threads << " query " << q;
    }
  }
}

TEST(ExecDeterminism, KnnTieBreakDeterministicWithDuplicateColumns) {
  // Duplicate fingerprint columns give exactly equal distances; the
  // index tie-break must pick the same (lowest-index) neighbours at
  // every thread count instead of whatever partial_sort happens to do.
  const GridMap grid(2.4, 0.6, 0.6);  // 4 cells in a row
  Matrix fp(2, 4);
  // Columns 1 and 2 are exact duplicates; column 0 is the best match.
  const double cols[4][2] = {{-40.0, -40.0}, {-55.0, -55.0}, {-55.0, -55.0}, {-70.0, -70.0}};
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 2; ++i) fp(i, j) = cols[j][i];
  const KnnMatcher matcher(fp, grid, 2, /*weighted=*/true, /*spatial_gate_m=*/0.0);
  const std::vector<double> y{-41.0, -41.0};

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadGuard guard(threads);
    const std::vector<std::size_t> nearest = matcher.nearest_grids(y);
    ASSERT_EQ(nearest.size(), 2u);
    EXPECT_EQ(nearest[0], 0u) << "threads=" << threads;
    EXPECT_EQ(nearest[1], 1u) << "threads=" << threads;  // 1 beats its duplicate 2
  }
}

}  // namespace
}  // namespace tafloc
