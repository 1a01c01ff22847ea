// Property suite for the two-tier KNN scan (matcher.h): the int8
// pre-pass + exact re-rank must return the SAME top-k -- neighbour
// indices in the same order AND bit-identical distances, hence
// bit-identical weighted centroids -- as the plain float scan, for
// every database, mask state, and k.  "Same speed class, same answer"
// is the whole contract of the quantized tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "tafloc/exec/exec_config.h"
#include "tafloc/fingerprint/link_health.h"
#include "tafloc/fingerprint/quantized.h"
#include "tafloc/linalg/backend.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/loc/matcher.h"
#include "tafloc/sim/grid.h"
#include "tafloc/telemetry/metrics.h"
#include "tafloc/telemetry/trace.h"
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

/// RAII guard: restore the process-wide kernel backend on exit, so a
/// test that walks the tables cannot leak its last one into the suite.
class BackendGuard {
 public:
  BackendGuard() : previous_(active_kernel_backend()) {}
  ~BackendGuard() { set_kernel_backend(previous_); }

 private:
  KernelBackend previous_;
};

struct Fixture {
  Matrix fingerprints;
  GridMap grid;
  QuantizedTier tier;

  Fixture(std::size_t links, std::size_t grid_w, std::size_t grid_h, std::uint64_t seed)
      : grid(static_cast<double>(grid_w), static_cast<double>(grid_h), 1.0) {
    Rng rng(seed);
    const std::size_t cells = grid_w * grid_h;
    fingerprints = random_gaussian(links, cells, rng);
    for (std::size_t i = 0; i < links; ++i) {
      const double offset = -70.0 + 3.0 * static_cast<double>(i % 11);
      for (std::size_t j = 0; j < cells; ++j)
        fingerprints(i, j) = offset + 5.0 * fingerprints(i, j);
    }
    // Exact duplicate columns and a near-tie: the pre-pass must resolve
    // them with the same (distance, index) rule as the float scan.
    if (cells >= 8) {
      for (std::size_t i = 0; i < links; ++i) {
        fingerprints(i, 5) = fingerprints(i, 2);
        fingerprints(i, 7) = fingerprints(i, 2) + (i == 0 ? 1e-9 : 0.0);
      }
    }
    tier.rebuild(fingerprints.view());
  }

  std::vector<Vector> make_queries(std::size_t count, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Vector> queries;
    const std::size_t cells = fingerprints.cols();
    for (std::size_t q = 0; q < count; ++q) {
      Vector query = fingerprints.col((q * 13) % cells);
      for (double& v : query) v += 2.0 * rng.normal();
      queries.push_back(std::move(query));
    }
    // One far-from-everything query (stresses the widening bound) and
    // one exact-column query (distance 0 ties).
    queries.push_back(Vector(fingerprints.rows(), -20.0));
    queries.push_back(fingerprints.col(2));
    return queries;
  }
};

void expect_identical(const KnnMatcher& exact, const KnnMatcher& quantized, const Vector& query,
                      const char* label) {
  const std::vector<std::size_t> n_exact = exact.nearest_grids(query);
  const std::vector<std::size_t> n_quant = quantized.nearest_grids(query);
  EXPECT_EQ(n_exact, n_quant) << label;
  const Point2 p_exact = exact.localize(query);
  const Point2 p_quant = quantized.localize(query);
  // Bit-identical, not approximately equal: the re-rank reuses the
  // exact float kernels, so the weighted centroid must match exactly.
  EXPECT_EQ(p_exact.x, p_quant.x) << label;
  EXPECT_EQ(p_exact.y, p_quant.y) << label;
}

TEST(QuantizedMatcher, TopKMatchesExactFloatScan) {
  // 41 x 30 cells at 40 links (64 padded bytes): more than twice the
  // pre-pass grain of 2^15 / 64 = 512 cells, so at 4 threads the pool
  // splits the pre-pass (and the float scan) into cell ranges, the last
  // one not a multiple of the kernel's 4-cell block.  Once per kernel
  // table this CPU runs: each scores the unmasked pre-pass its own way.
  ThreadGuard guard(4);
  BackendGuard backend_guard;
  for (const KernelBackend backend : supported_kernel_backends()) {
    set_kernel_backend(backend);
    SCOPED_TRACE(kernel_backend_name(backend));
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      for (const auto& [links, w, h] :
           {std::tuple<std::size_t, std::size_t, std::size_t>{6, 8, 5},
            {33, 12, 8},
            {10, 15, 10},
            {40, 41, 30}}) {
        Fixture f(links, w, h, seed);
        ASSERT_TRUE(f.tier.ready());
        for (std::size_t k : {1u, 3u, 8u}) {
          KnnMatcher exact(f.fingerprints.view(), f.grid, k);
          KnnMatcher quantized(f.fingerprints.view(), f.grid, k);
          quantized.attach_quantized_tier(&f.tier);
          ASSERT_TRUE(quantized.quantized_active());
          for (const Vector& q : f.make_queries(12, seed * 97 + k))
            expect_identical(exact, quantized, q, "unmasked");
        }
      }
    }
  }
}

TEST(QuantizedMatcher, MaskedScanMatchesExactFloatScan) {
  BackendGuard backend_guard;
  for (const KernelBackend backend : supported_kernel_backends()) {
    set_kernel_backend(backend);
    SCOPED_TRACE(kernel_backend_name(backend));
    for (std::uint64_t seed : {5u, 6u}) {
      Fixture f(12, 10, 8, seed);
      LinkHealth health(12);
      health.mark_dead(1);
      health.mark_dead(7);
      health.mark_suspect(3);
      ASSERT_LT(health.usable_count(), 12u);
      KnnMatcher exact(f.fingerprints.view(), f.grid, 4);
      KnnMatcher quantized(f.fingerprints.view(), f.grid, 4);
      exact.attach_link_health(&health);
      quantized.attach_link_health(&health);
      quantized.attach_quantized_tier(&f.tier);
      for (Vector q : f.make_queries(10, seed)) {
        // NaN parked on a dead link: exactly the fault the mask covers.
        q[1] = std::nan("");
        expect_identical(exact, quantized, q, "masked");
      }
    }
  }
}

TEST(QuantizedMatcher, AllLinksDeadThrowsOnBothPaths) {
  Fixture f(5, 6, 4, 9);
  LinkHealth health(5);
  for (std::size_t i = 0; i < 5; ++i) health.mark_dead(i);
  KnnMatcher exact(f.fingerprints.view(), f.grid, 3);
  KnnMatcher quantized(f.fingerprints.view(), f.grid, 3);
  exact.attach_link_health(&health);
  quantized.attach_link_health(&health);
  quantized.attach_quantized_tier(&f.tier);
  const Vector q(5, -50.0);
  EXPECT_THROW(exact.localize(q), std::invalid_argument);
  EXPECT_THROW(quantized.localize(q), std::invalid_argument);
}

TEST(QuantizedMatcher, WideningPreservesExactness) {
  // One outlier column stretches the shared scale so the remaining
  // columns' differences fall below one quantization level: integer
  // distances collapse into ties, the candidate-prefix proof cannot
  // separate them, and the scan must widen (observable via telemetry)
  // all the way to a full exact re-rank -- results still bit-identical
  // to the float scan.
  const std::size_t links = 8, cells = 120;
  Matrix fp(links, cells);
  Rng rng(10);
  for (std::size_t i = 0; i < links; ++i)
    for (std::size_t j = 0; j < cells; ++j) fp(i, j) = -55.0 + 1e-3 * rng.normal();
  fp(0, 0) = -55.0 + 120.0;  // outlier: link-0 half-range ~60 dB, scale ~0.5
  GridMap grid(12.0, 10.0, 1.0);
  QuantizedTier tier;
  tier.rebuild(fp.view());
  ASSERT_TRUE(tier.ready());

  KnnMatcher exact(fp.view(), grid, 5);
  KnnMatcher quantized(fp.view(), grid, 5);
  quantized.attach_quantized_tier(&tier);
  MetricRegistry registry;
  quantized.attach_telemetry(&registry);

  Rng qrng(11);
  for (int t = 0; t < 6; ++t) {
    Vector q(links);
    for (double& v : q) v = -55.0 + 1e-3 * qrng.normal();
    expect_identical(exact, quantized, q, "near-tie grid");
  }
  // Six queries, each scanned twice (nearest_grids and localize).  The
  // widening count is pinned: selection and re-rank may get cheaper, but
  // the candidate sequence m, 2m, ... and the stopping test may not move.
  EXPECT_EQ(registry.counter("loc.knn.prepass_queries").value(), 12u);
  EXPECT_EQ(registry.counter("loc.knn.rerank_widenings").value(), 36u);
}

TEST(QuantizedMatcher, RerankMultiplierNeverChangesResults) {
  Fixture f(9, 10, 6, 12);
  KnnMatcher exact(f.fingerprints.view(), f.grid, 4);
  for (std::size_t alpha : {1u, 2u, 16u}) {
    KnnMatcher quantized(f.fingerprints.view(), f.grid, 4);
    quantized.attach_quantized_tier(&f.tier);
    quantized.set_rerank_multiplier(alpha);
    for (const Vector& q : f.make_queries(8, 13))
      expect_identical(exact, quantized, q, "alpha sweep");
  }
  KnnMatcher bad(f.fingerprints.view(), f.grid, 4);
  EXPECT_THROW(bad.set_rerank_multiplier(0), std::invalid_argument);
}

TEST(QuantizedMatcher, StaleTierFallsBackToFloatScan) {
  Fixture f(7, 8, 5, 16);
  KnnMatcher matcher(f.fingerprints.view(), f.grid, 3);
  EXPECT_FALSE(matcher.quantized_active());  // no tier attached
  QuantizedTier wrong_shape;
  Rng rng(17);
  const Matrix other = random_gaussian(4, 40, rng);
  wrong_shape.rebuild(other.view());
  matcher.attach_quantized_tier(&wrong_shape);
  EXPECT_FALSE(matcher.quantized_active());  // shape mismatch ignored
  QuantizedTier empty;
  matcher.attach_quantized_tier(&empty);
  EXPECT_FALSE(matcher.quantized_active());  // not ready() ignored
  // Either way the query serves through the float path.
  const Vector q = f.fingerprints.col(3);
  KnnMatcher plain(f.fingerprints.view(), f.grid, 3);
  const Point2 a = matcher.localize(q);
  const Point2 b = plain.localize(q);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  matcher.attach_quantized_tier(nullptr);
  EXPECT_FALSE(matcher.quantized_active());
}

// ---- the projection bound (quantized.h; BoundSearch in matcher.cpp) ----

/// A survey shaped like warehouse_scan's, small enough for a test:
/// per-link offsets, rank-6 plane waves over the grid, 1 dB of noise,
/// at 288 links -- a row wide enough for the tier's projection.
struct SmoothFixture {
  Matrix fingerprints;
  GridMap grid;
  QuantizedTier tier;

  SmoothFixture(std::size_t links, std::size_t w, std::size_t h, std::uint64_t seed)
      : grid(static_cast<double>(w), static_cast<double>(h), 1.0) {
    Rng rng(seed);
    const std::size_t cells = w * h, rank = 6;
    const Matrix u = random_gaussian(links, rank, rng);
    Matrix v(rank, cells);
    for (std::size_t r = 0; r < rank; ++r) {
      const double angle = 6.283185307179586 * rng.uniform01();
      const double wavelength = rng.uniform(8.0, 40.0);
      for (std::size_t j = 0; j < cells; ++j) {
        const Point2 c = grid.center(j);
        v(r, j) = std::cos(6.283185307179586 *
                           (std::cos(angle) * c.x + std::sin(angle) * c.y) / wavelength);
      }
    }
    fingerprints = u * v;
    for (std::size_t i = 0; i < links; ++i) {
      const double offset = -70.0 + 30.0 * rng.uniform01();
      for (std::size_t j = 0; j < cells; ++j)
        fingerprints(i, j) = offset + 2.0 * fingerprints(i, j) + rng.normal();
    }
    tier.rebuild(fingerprints.view());
  }

  /// Readings of targets between cell centres: each blends two cell
  /// columns, plus 2 dB of noise; the last one is far from every cell.
  std::vector<Vector> make_queries(std::size_t count, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Vector> queries;
    const std::size_t cells = fingerprints.cols();
    for (std::size_t q = 0; q < count; ++q) {
      const std::size_t a = rng.index(cells), b = rng.index(cells);
      const double f = rng.uniform01();
      Vector query(fingerprints.rows());
      for (std::size_t i = 0; i < query.size(); ++i)
        query[i] = (1.0 - f) * fingerprints(i, a) + f * fingerprints(i, b) + 2.0 * rng.normal();
      queries.push_back(std::move(query));
    }
    queries.push_back(Vector(fingerprints.rows(), -20.0));
    return queries;
  }
};

/// The widenings of one unmasked query by brute force: every cell's
/// exact int8 key and exact float distance, then the doubling rule
/// replayed over the sorted keys.
std::size_t replay_widenings(const Matrix& fp, const QuantizedTier& tier, const Vector& query,
                             std::size_t k, std::size_t alpha) {
  const std::size_t n = tier.num_grids(), links = tier.num_links();
  std::vector<std::int8_t> q;
  std::vector<double> residual;
  tier.quantize_observation(query, {}, q, residual);
  std::vector<std::pair<std::uint64_t, std::size_t>> keys(n);  // (D_j, j)
  std::vector<double> dist(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < tier.padded_links(); ++i) {
      const std::int64_t diff = std::int64_t{q[i]} - tier.cell_data(j)[i];
      d += static_cast<std::uint64_t>(diff * diff);
    }
    keys[j] = {d, j};
    double acc = 0.0;  // the float scan's order: ascending links
    for (std::size_t i = 0; i < links; ++i) {
      const double diff = query[i] - fp(i, j);
      acc += diff * diff;
    }
    dist[j] = acc;
  }
  std::sort(keys.begin(), keys.end());
  double err_sq = 0.0;
  for (const double r : residual) err_sq += (r + 0.5 * tier.scale()) * (r + 0.5 * tier.scale());
  const double err = std::sqrt(err_sq) * (1.0 + 1e-9) + 1e-9;
  std::size_t widenings = 0;
  for (std::size_t m = std::min(n, std::max(k * alpha, k + 8));; m = std::min(n, 2 * m)) {
    if (m == n) break;
    std::vector<std::pair<double, std::size_t>> prefix;
    for (std::size_t c = 0; c < m; ++c) prefix.push_back({dist[keys[c].second], keys[c].second});
    std::sort(prefix.begin(), prefix.end());
    const double floor = tier.scale() * std::sqrt(static_cast<double>(keys[m - 1].first)) - err;
    if (std::sqrt(prefix[k - 1].first) < floor) break;
    ++widenings;
  }
  return widenings;
}

TEST(QuantizedMatcher, ProjectedTopKMatchesFloatScanOnEveryTable) {
  // The bound search serves the float scan's top-k bit for bit on every
  // table, at 1 and 4 threads, while computing exact int8 keys for only
  // a fraction of the cells.
  SmoothFixture f(288, 50, 40, 31);
  ASSERT_TRUE(f.tier.projected());
  const std::size_t n = f.fingerprints.cols();
  const std::vector<Vector> queries = f.make_queries(16, 32);
  BackendGuard backend_guard;
  for (const std::size_t threads : {1u, 4u}) {
    ThreadGuard guard(threads);
    for (const KernelBackend backend : supported_kernel_backends()) {
      set_kernel_backend(backend);
      SCOPED_TRACE(std::string(kernel_backend_name(backend)) + " threads=" +
                   std::to_string(threads));
      for (std::size_t k : {1u, 3u, 8u}) {
        KnnMatcher exact(f.fingerprints.view(), f.grid, k);
        KnnMatcher quantized(f.fingerprints.view(), f.grid, k);
        quantized.attach_quantized_tier(&f.tier);
        MetricRegistry registry;
        quantized.attach_telemetry(&registry);
        for (std::size_t t = 0; t + 1 < queries.size(); ++t)
          expect_identical(exact, quantized, queries[t], "projected");
        // Two scans per query; the near queries never fall back, and
        // compute exact keys for well under a quarter of the cells
        // (about 14% of them at this size).
        const std::size_t scans = 2 * (queries.size() - 1);
        EXPECT_EQ(registry.counter("loc.knn.bound_fallbacks").value(), 0u);
        EXPECT_LT(registry.counter("loc.knn.bound_cells").value(), scans * n / 6);
        expect_identical(exact, quantized, queries.back(), "far query");
      }
    }
  }
}

TEST(QuantizedMatcher, WideningsMatchBruteForceReplay) {
  // loc.knn.rerank_widenings counts exactly the doublings the full
  // pre-pass would make: the bound search hands every round the same
  // candidate prefix.
  SmoothFixture f(288, 50, 40, 33);
  ASSERT_TRUE(f.tier.projected());
  for (const std::size_t alpha : {1u, 4u}) {
    KnnMatcher quantized(f.fingerprints.view(), f.grid, 3);
    quantized.attach_quantized_tier(&f.tier);
    quantized.set_rerank_multiplier(alpha);
    MetricRegistry registry;
    quantized.attach_telemetry(&registry);
    std::size_t expected = 0;
    for (const Vector& q : f.make_queries(40, 34 + alpha)) {
      (void)quantized.nearest_grids(q);
      expected += replay_widenings(f.fingerprints, f.tier, q, 3, alpha);
    }
    EXPECT_GT(expected, 0u) << "alpha " << alpha;
    EXPECT_EQ(registry.counter("loc.knn.rerank_widenings").value(), expected) << "alpha " << alpha;
  }
}

TEST(QuantizedMatcher, RaiseRuleDecidesTheWidening) {
  // A survey built so that a widened prefix needs the raise rule.  Two
  // anchor cells span +-127 dB on every link, so the tier's offsets are
  // 0 and its scale 1: levels are the dB values, and an all-zero query
  // has D_j = ||c_j||^2, no residual, and E = 0.5 * sqrt(256) = 8.
  //   * 300 bulk cells of +-(50..100) dB on links 0-6 give the basis
  //     those axes (the anchors give it the all-ones direction);
  //   * 12 + 48 cells of +-1 / +-2 dB in one balanced sign pattern over
  //     links 8-255: D = 248 / 992, but N ~ 0 -- the bound sees nothing;
  //   * 3 + 10 cells of 15 / 20 dB on link 0 alone: D = 225 / 400 and
  //     N ~ kappa * D.
  // Round 1 (k = 3, alpha = 1: m = 11) takes U = 248 from the N ~ 0
  // cells; S(248) holds those and the three D = 225 cells.  The 15 dB
  // top-3 misses sqrt(248) - 8, so the scan widens to 22.  S's 22
  // smallest then reach D = 992 > U: the raise adds the ten D = 400
  // cells, T = 400, and 15 >= sqrt(400) - 8 widens once more.  Without
  // the raise T would read 992 and the scan would stop a round early.
  const std::size_t links = 256, cells = 375;
  Matrix fp(links, cells, 0.0);
  for (std::size_t i = 0; i < links; ++i) {
    fp(i, 0) = 127.0;
    fp(i, 1) = -127.0;
  }
  for (std::size_t j = 2; j < 62; ++j) {
    const double a = j < 14 ? 1.0 : 2.0;
    for (std::size_t i = 8; i < links; ++i) fp(i, j) = (i % 2 == 0) ? a : -a;
  }
  for (std::size_t j = 62; j < 75; ++j) fp(0, j) = j < 65 ? 15.0 : 20.0;
  Rng rng(40);
  for (std::size_t j = 75; j < cells; ++j)
    for (std::size_t i = 0; i < 7; ++i)
      fp(i, j) = (rng.uniform01() < 0.5 ? -1.0 : 1.0) * std::round(rng.uniform(50.0, 100.0));
  const GridMap grid(25.0, 15.0, 1.0);
  QuantizedTier tier;
  tier.rebuild(fp.view());
  ASSERT_TRUE(tier.projected());
  ASSERT_EQ(tier.scale(), 1.0);

  KnnMatcher exact(fp.view(), grid, 3);
  KnnMatcher quantized(fp.view(), grid, 3);
  quantized.attach_quantized_tier(&tier);
  quantized.set_rerank_multiplier(1);
  MetricRegistry registry;
  quantized.attach_telemetry(&registry);
  const Vector query(links, 0.0);
  ASSERT_EQ(replay_widenings(fp, tier, query, 3, 1), 2u);
  expect_identical(exact, quantized, query, "raise fixture");  // two scans
  EXPECT_EQ(registry.counter("loc.knn.rerank_widenings").value(), 4u);
  EXPECT_EQ(registry.counter("loc.knn.bound_raises").value(), 2u);
  EXPECT_EQ(registry.counter("loc.knn.bound_fallbacks").value(), 0u);
}

TEST(QuantizedMatcher, QuarterFallbackOnConstantMatrix) {
  // Every cell alike: the bound rules nothing out, the survivor set
  // passes a quarter of the cells on the first round, and the query
  // finishes on the full pre-pass -- with the float scan's answer.
  const Matrix fp(300, 400, -61.0);
  const GridMap grid(20.0, 20.0, 1.0);
  QuantizedTier tier;
  tier.rebuild(fp.view());
  ASSERT_TRUE(tier.projected());
  KnnMatcher exact(fp.view(), grid, 3);
  KnnMatcher quantized(fp.view(), grid, 3);
  quantized.attach_quantized_tier(&tier);
  MetricRegistry registry;
  quantized.attach_telemetry(&registry);
  Rng rng(37);
  for (int t = 0; t < 4; ++t) {
    Vector q(300);
    for (double& v : q) v = -61.0 + rng.normal();
    expect_identical(exact, quantized, q, "constant matrix");
  }
  EXPECT_EQ(registry.counter("loc.knn.bound_fallbacks").value(), 8u);
  EXPECT_GE(registry.counter("loc.knn.bound_cells").value(), 8u * 400u);
}

TEST(QuantizedMatcher, MaskedQueriesKeepTheFullPrepassAndScratchStaysFlat) {
  // A dead link leaves the bound out: the masked pre-pass scores every
  // cell, as before.  And no query -- unmasked, masked, or widened to a
  // fallback -- grows the scratch after the first.
  SmoothFixture f(288, 50, 40, 38);
  ASSERT_TRUE(f.tier.projected());
  const std::size_t n = f.fingerprints.cols();
  LinkHealth health(288);
  health.mark_dead(5);
  health.mark_dead(200);
  KnnMatcher exact(f.fingerprints.view(), f.grid, 3);
  KnnMatcher quantized(f.fingerprints.view(), f.grid, 3);
  exact.attach_link_health(&health);
  quantized.attach_quantized_tier(&f.tier);
  MetricRegistry registry;
  quantized.attach_telemetry(&registry);
  const std::vector<Vector> queries = f.make_queries(8, 39);
  (void)quantized.localize(queries[0]);  // warm up the scratch
  const std::size_t before = KnnMatcher::scratch_allocations();
  for (const Vector& q : queries) (void)quantized.localize(q);  // the last one falls back
  EXPECT_EQ(registry.counter("loc.knn.bound_fallbacks").value(), 1u);
  quantized.attach_link_health(&health);
  const std::uint64_t cells = registry.counter("loc.knn.bound_cells").value();
  for (Vector q : queries) {
    q[5] = std::nan("");
    const std::vector<std::size_t> n_exact = exact.nearest_grids(q);
    EXPECT_EQ(quantized.nearest_grids(q), n_exact);
  }
  EXPECT_EQ(registry.counter("loc.knn.bound_cells").value() - cells, queries.size() * n);
  EXPECT_EQ(registry.counter("loc.knn.bound_fallbacks").value(), 1u);
  EXPECT_EQ(KnnMatcher::scratch_allocations(), before);
}

TEST(QuantizedMatcher, TracesTheBoundStage) {
  // A traced unmasked query on a projected tier records loc.bound in
  // place of loc.prepass; a masked one keeps the full loc.prepass.
  SmoothFixture f(288, 50, 40, 41);
  ASSERT_TRUE(f.tier.projected());
  KnnMatcher quantized(f.fingerprints.view(), f.grid, 3);
  quantized.attach_quantized_tier(&f.tier);
  LinkHealth health(288);
  health.mark_dead(9);
  TracerConfig config;
  config.sample_every = 1;
  Tracer tracer(config);
  const Vector query = f.make_queries(1, 42).front();
  for (const bool masked : {false, true}) {
    quantized.attach_link_health(masked ? &health : nullptr);
    {
      TraceScope scope(tracer, {}, 0);
      ASSERT_TRUE(scope.capturing());
      (void)quantized.localize(query);
    }
    const TraceRecord r = tracer.ring().snapshot().back();
    std::vector<std::string> names;
    for (std::uint32_t i = 0; i < r.stage_count; ++i) names.emplace_back(r.stages[i].name);
    const auto has = [&](const char* name) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    EXPECT_EQ(has("loc.bound"), !masked) << (masked ? "masked" : "unmasked");
    EXPECT_EQ(has("loc.prepass"), masked) << (masked ? "masked" : "unmasked");
    EXPECT_TRUE(has("loc.rerank"));
  }
}

}  // namespace
}  // namespace tafloc
