#include "tafloc/loc/matcher.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tafloc/sim/scenario.h"
#include "tafloc/sim/trace.h"

namespace tafloc {
namespace {

/// A toy 1x3 fingerprint setup on a 3-cell strip: RSS values -30/-40/-50.
struct Toy {
  GridMap grid{1.8, 0.6, 0.6};
  Matrix fp = Matrix::from_rows({{-30.0, -40.0, -50.0}});
};

TEST(KnnMatcher, K1PicksClosestColumn) {
  Toy toy;
  const KnnMatcher knn(toy.fp, toy.grid, 1);
  const std::vector<double> y{-41.0};
  EXPECT_EQ(knn.nearest_grids(y), std::vector<std::size_t>{1});
  const Point2 est = knn.localize(y);
  EXPECT_DOUBLE_EQ(est.x, 0.9);
  EXPECT_DOUBLE_EQ(est.y, 0.3);
}

TEST(KnnMatcher, RejectsWrongObservationLength) {
  Toy toy;
  const KnnMatcher knn(toy.fp, toy.grid, 1);
  const std::vector<double> y{-40.0, -40.0};
  EXPECT_THROW(knn.localize(y), std::invalid_argument);
}

TEST(KnnMatcher, RejectsMismatchedShapes) {
  const GridMap grid(1.8, 0.6, 0.6);
  const Matrix fp(1, 2, 0.0);  // 2 cols for 3 cells
  EXPECT_THROW(KnnMatcher(fp, grid, 1), std::invalid_argument);
}

TEST(KnnMatcher, InterpolatesBetweenGrids) {
  Toy toy;
  const KnnMatcher knn(toy.fp, toy.grid, 2, /*weighted=*/true);
  // Observation exactly between columns 0 and 1: estimate must fall
  // between the two grid centres.
  const std::vector<double> y{-35.0};
  const Point2 est = knn.localize(y);
  EXPECT_GT(est.x, 0.3);
  EXPECT_LT(est.x, 0.9);
}

TEST(KnnMatcher, WeightedPullsTowardCloserFingerprint) {
  Toy toy;
  const KnnMatcher knn(toy.fp, toy.grid, 2, /*weighted=*/true);
  const std::vector<double> y{-31.0};  // much closer to column 0
  const Point2 est = knn.localize(y);
  EXPECT_LT(est.x, 0.6);  // nearer the first grid centre at 0.3
}

TEST(KnnMatcher, UnweightedIsPlainCentroid) {
  Toy toy;
  const KnnMatcher knn(toy.fp, toy.grid, 2, /*weighted=*/false);
  const std::vector<double> y{-31.0};
  const Point2 est = knn.localize(y);
  EXPECT_NEAR(est.x, (0.3 + 0.9) / 2.0, 1e-12);
}

TEST(KnnMatcher, NearestGridsOrdered) {
  Toy toy;
  const KnnMatcher knn(toy.fp, toy.grid, 3);
  const std::vector<double> y{-49.0};
  const auto order = knn.nearest_grids(y);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 0u);
}

TEST(KnnMatcher, TightGateDropsFarNeighboursAndReportsThem) {
  // A strip long enough that the non-anchor neighbours sit beyond a
  // tight spatial gate: the centroid must collapse to the anchor
  // deliberately (guarded wsum), and the drop count must be visible.
  const GridMap grid(3.0, 0.6, 0.6);  // 5 cells, centres 0.6 m apart
  const Matrix fp = Matrix::from_rows({{-30.0, -60.0, -31.0, -60.0, -32.0}});
  const KnnMatcher knn(fp, grid, 3, /*weighted=*/true, /*spatial_gate_m=*/0.5);
  const std::vector<double> y{-30.4};  // neighbours: cells 0, 2, 4
  MatchStats stats;
  const Point2 est = knn.localize(y, &stats);
  EXPECT_EQ(stats.gated_out, 2u);  // cells 2 and 4 are >= 1.2 m from cell 0
  EXPECT_FALSE(stats.centroid_fallback);  // anchor weight keeps wsum > 0
  EXPECT_DOUBLE_EQ(est.x, grid.center(0).x);
  EXPECT_DOUBLE_EQ(est.y, grid.center(0).y);
  EXPECT_TRUE(std::isfinite(est.x) && std::isfinite(est.y));
}

TEST(KnnMatcher, HugeObservationFallsBackToAnchorNotNan) {
  // Finite-but-huge RSS overflows the squared distance to +inf, every
  // inverse-distance weight underflows to 0, and the old code returned
  // NaN/NaN.  The guarded path must return the anchor instead.
  Toy toy;
  const KnnMatcher knn(toy.fp, toy.grid, 2, /*weighted=*/true, /*spatial_gate_m=*/0.0);
  const std::vector<double> y{1e200};
  MatchStats stats;
  const Point2 est = knn.localize(y, &stats);
  EXPECT_TRUE(stats.centroid_fallback);
  EXPECT_TRUE(std::isfinite(est.x) && std::isfinite(est.y));
  EXPECT_DOUBLE_EQ(est.x, toy.grid.center(knn.nearest_grids(y).front()).x);
}

TEST(KnnMatcher, StatsReportLinksUsedUnderMask) {
  const GridMap grid(1.8, 0.6, 0.6);
  const Matrix fp =
      Matrix::from_rows({{-30.0, -40.0, -50.0}, {-35.0, -45.0, -55.0}, {-20.0, -25.0, -30.0}});
  LinkHealth health(3);
  health.mark_dead(2);
  KnnMatcher knn(fp, grid, 2);
  knn.attach_link_health(&health);
  const std::vector<double> y{-41.0, -46.0, std::numeric_limits<double>::quiet_NaN()};
  MatchStats stats;
  (void)knn.localize(y, &stats);
  EXPECT_EQ(stats.links_used, 2u);
}

TEST(KnnMatcher, RejectsBadK) {
  Toy toy;
  EXPECT_THROW(KnnMatcher(toy.fp, toy.grid, 0), std::invalid_argument);
  EXPECT_THROW(KnnMatcher(toy.fp, toy.grid, 4), std::invalid_argument);
}

TEST(KnnMatcher, NameEncodesVariant) {
  Toy toy;
  EXPECT_EQ(KnnMatcher(toy.fp, toy.grid, 3, true).name(), "WKNN-k3");
  EXPECT_EQ(KnnMatcher(toy.fp, toy.grid, 2, false).name(), "KNN-k2");
}

TEST(Matchers, LocalizeFreshFingerprintsAccurately) {
  // End-to-end sanity on the simulated paper room with a fresh DB: the
  // nearest-neighbour (k = 1) and weighted k = 3 matchers localize a
  // grid-centre target to well under a metre.
  const Scenario s = Scenario::paper_room(20);
  Rng rng(20);
  const Matrix fp = s.collector().survey_all(0.0, rng);
  const GridMap& grid = s.deployment().grid();
  const KnnMatcher nearest(fp, grid, 1);
  const KnnMatcher knn(fp, grid, 3);

  for (std::size_t j : {7u, 40u, 88u}) {
    const Point2 truth = grid.center(j);
    const Vector y = s.collector().observe(truth, 0.0, rng);
    EXPECT_LT(distance(nearest.localize(y), truth), 1.5);
    EXPECT_LT(distance(knn.localize(y), truth), 1.5);
  }
}

TEST(Matchers, BorrowingCtorMatchesOwningCtor) {
  // A matcher built over a borrowed view of the fingerprints must
  // behave exactly like one that copied them (toy.fp outlives both).
  Toy toy;
  const KnnMatcher knn_own(toy.fp, toy.grid, 2);
  const KnnMatcher knn_borrow(toy.fp.view(), toy.grid, 2);
  const std::vector<double> y{-37.0};
  EXPECT_EQ(knn_borrow.nearest_grids(y), knn_own.nearest_grids(y));
  const Point2 a = knn_own.localize(y);
  const Point2 b = knn_borrow.localize(y);
  EXPECT_DOUBLE_EQ(a.x, b.x);
  EXPECT_DOUBLE_EQ(a.y, b.y);
  // Copying a borrowing matcher keeps borrowing; copying an owning one
  // re-points the view at the copied storage.
  const KnnMatcher copy = knn_own;
  const Point2 c = copy.localize(y);
  EXPECT_DOUBLE_EQ(c.x, a.x);
  EXPECT_DOUBLE_EQ(c.y, a.y);
}

TEST(Matchers, KnnIsFineGrained) {
  // For an off-centre target, weighted KNN should usually beat plain NN
  // (k = 1 unweighted: quantized to grid centres).  Check on aggregate
  // error.
  const Scenario s = Scenario::paper_room(21);
  Rng rng(21);
  const Matrix fp = s.collector().survey_all(0.0, rng);
  const GridMap& grid = s.deployment().grid();
  const KnnMatcher nn(fp, grid, 1, /*weighted=*/false);
  const KnnMatcher knn(fp, grid, 3);

  double nn_total = 0.0, knn_total = 0.0;
  const auto targets = random_positions(grid, 40, rng);
  for (const Point2& truth : targets) {
    const Vector y = s.collector().observe(truth, 0.0, rng);
    nn_total += distance(nn.localize(y), truth);
    knn_total += distance(knn.localize(y), truth);
  }
  EXPECT_LT(knn_total, nn_total * 1.05);
}

}  // namespace
}  // namespace tafloc
