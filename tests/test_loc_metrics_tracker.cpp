#include <gtest/gtest.h>

#include "tafloc/loc/matcher.h"
#include "tafloc/loc/metrics.h"
#include "tafloc/loc/tracker.h"

namespace tafloc {
namespace {

TEST(LocalizationError, IsEuclideanDistance) {
  EXPECT_DOUBLE_EQ(localization_error({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(localization_error({1.0, 1.0}, {1.0, 1.0}), 0.0);
}

TEST(EvaluateLocalizer, PairsObservationsWithTruths) {
  const GridMap grid(1.8, 0.6, 0.6);
  const Matrix fp = Matrix::from_rows({{-30.0, -40.0, -50.0}});
  const KnnMatcher knn(fp, grid, 1);
  const std::vector<std::vector<double>> obs{{-30.0}, {-50.0}};
  const std::vector<Point2> truths{grid.center(0), grid.center(2)};
  const auto errors = evaluate_localizer(knn, obs, truths);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NEAR(errors[0], 0.0, 1e-12);
  EXPECT_NEAR(errors[1], 0.0, 1e-12);
}

TEST(EvaluateLocalizer, NonZeroErrorForWrongGrid) {
  const GridMap grid(1.8, 0.6, 0.6);
  const Matrix fp = Matrix::from_rows({{-30.0, -40.0, -50.0}});
  const KnnMatcher knn(fp, grid, 1);
  const std::vector<std::vector<double>> obs{{-30.0}};
  const std::vector<Point2> truths{grid.center(2)};  // truth is elsewhere
  const auto errors = evaluate_localizer(knn, obs, truths);
  EXPECT_NEAR(errors[0], 1.2, 1e-12);
}

TEST(EvaluateLocalizer, RejectsMismatchedSizes) {
  const GridMap grid(1.8, 0.6, 0.6);
  const Matrix fp = Matrix::from_rows({{-30.0, -40.0, -50.0}});
  const KnnMatcher knn(fp, grid, 1);
  const std::vector<std::vector<double>> obs{{-30.0}};
  const std::vector<Point2> truths;
  EXPECT_THROW(evaluate_localizer(knn, obs, truths), std::invalid_argument);
}

TEST(SummarizeErrors, KnownSample) {
  const std::vector<double> errors{1.0, 2.0, 3.0, 4.0, 5.0};
  const ErrorSummary s = summarize_errors(errors);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_GE(s.p95, s.p80);
  EXPECT_GE(s.p80, s.median);
}

TEST(SummarizeErrors, RejectsEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW(summarize_errors(empty), std::invalid_argument);
}

TEST(EmaTracker, FirstUpdatePassesThrough) {
  EmaTracker tracker(0.5);
  EXPECT_FALSE(tracker.position().has_value());
  const Point2 p = tracker.update({2.0, 4.0});
  EXPECT_DOUBLE_EQ(p.x, 2.0);
  EXPECT_DOUBLE_EQ(p.y, 4.0);
}

TEST(EmaTracker, BlendsSubsequentUpdates) {
  EmaTracker tracker(0.5);
  tracker.update({0.0, 0.0});
  const Point2 p = tracker.update({2.0, 4.0});
  EXPECT_DOUBLE_EQ(p.x, 1.0);
  EXPECT_DOUBLE_EQ(p.y, 2.0);
}

TEST(EmaTracker, AlphaOneIsNoSmoothing) {
  EmaTracker tracker(1.0);
  tracker.update({0.0, 0.0});
  const Point2 p = tracker.update({5.0, -1.0});
  EXPECT_DOUBLE_EQ(p.x, 5.0);
  EXPECT_DOUBLE_EQ(p.y, -1.0);
}

TEST(EmaTracker, SmoothsJitter) {
  EmaTracker tracker(0.3);
  tracker.update({1.0, 1.0});
  Point2 p{0.0, 0.0};
  // Alternating jitter around (1, 1) must stay near (1, 1).
  for (int i = 0; i < 50; ++i) {
    const double jitter = (i % 2 == 0) ? 0.5 : -0.5;
    p = tracker.update({1.0 + jitter, 1.0 - jitter});
  }
  EXPECT_NEAR(p.x, 1.0, 0.5);
  EXPECT_NEAR(p.y, 1.0, 0.5);
}

TEST(EmaTracker, ResetForgetsState) {
  EmaTracker tracker(0.5);
  tracker.update({1.0, 1.0});
  tracker.reset();
  EXPECT_FALSE(tracker.position().has_value());
  const Point2 p = tracker.update({9.0, 9.0});
  EXPECT_DOUBLE_EQ(p.x, 9.0);
}

TEST(EmaTracker, RejectsBadAlpha) {
  EXPECT_THROW(EmaTracker(0.0), std::invalid_argument);
  EXPECT_THROW(EmaTracker(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace tafloc
