// Property suite for the two-tier KNN scan (matcher.h): the int8
// pre-pass + exact re-rank must return the SAME top-k -- neighbour
// indices in the same order AND bit-identical distances, hence
// bit-identical weighted centroids -- as the plain float scan, for
// every database, mask state, and k.  "Same speed class, same answer"
// is the whole contract of the quantized tier.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tafloc/exec/exec_config.h"
#include "tafloc/fingerprint/link_health.h"
#include "tafloc/fingerprint/quantized.h"
#include "tafloc/linalg/backend.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/loc/matcher.h"
#include "tafloc/sim/grid.h"
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

}  // namespace
}  // namespace tafloc
