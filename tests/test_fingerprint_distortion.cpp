#include "tafloc/fingerprint/distortion.h"

#include <gtest/gtest.h>

#include "tafloc/rf/geometry.h"
#include "tafloc/sim/scenario.h"

namespace tafloc {
namespace {

TEST(DistortionMask, CountsAndFraction) {
  DistortionMask mask{Matrix::from_rows({{1.0, 0.0}, {1.0, 1.0}})};
  EXPECT_EQ(mask.num_distorted(), 1u);
  EXPECT_EQ(mask.num_undistorted(), 3u);
  EXPECT_DOUBLE_EQ(mask.distorted_fraction(), 0.25);
}

TEST(DistortionDetector, RejectsBadConfig) {
  DistortionConfig cfg;
  cfg.rss_drop_threshold_db = 0.0;
  EXPECT_THROW(DistortionDetector{cfg}, std::invalid_argument);
  cfg.rss_drop_threshold_db = -1.0;
  EXPECT_THROW(DistortionDetector{cfg}, std::invalid_argument);
}

TEST(DistortionDetector, DataDrivenFlagsClearDrops) {
  // Link ambient = -30; entries more than 2 dB below are distorted.
  const Matrix x = Matrix::from_rows({{-30.1, -36.0, -29.0}});
  const Vector ambient{-30.0};
  const DistortionDetector det;
  const DistortionMask mask = det.detect_from_data(x, ambient);
  EXPECT_DOUBLE_EQ(mask.distorted(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(mask.distorted(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(mask.distorted(0, 2), 0.0);
}

TEST(DistortionDetector, MasksAreComplementary) {
  const Scenario s = Scenario::paper_room(1);
  Rng rng(1);
  const Matrix x = s.collector().survey_all(0.0, rng);
  const Vector ambient = s.collector().ambient_scan(0.0, rng);
  const DistortionMask mask = DistortionDetector().detect_from_data(x, ambient);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      EXPECT_DOUBLE_EQ(mask.distorted(i, j) + mask.undistorted(i, j), 1.0);
}

TEST(DistortionDetector, GeometricAndDataDrivenLargelyAgree) {
  // On clean simulated data the data-driven classification should
  // coincide with the floor-plan geometry -- a grid centre inside the
  // link's 0.35 m excess-path ellipse -- for the overwhelming majority
  // of entries.
  const Scenario s = Scenario::paper_room(2);
  Rng rng(2);
  const Matrix x = s.collector().survey_all(0.0, rng);
  const Vector ambient = s.collector().ambient_scan(0.0, rng);
  const DistortionMask from_data = DistortionDetector().detect_from_data(x, ambient);
  const Deployment& d = s.deployment();
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const bool inside = excess_path_length(d.grid().center(j), d.links()[i]) < 0.35;
      if (from_data.distorted(i, j) != inside) ++disagreements;
    }
  // Multipath ghost responses make the data-driven detector flag some
  // far-from-LoS entries the geometric test cannot see, so agreement is
  // majority-level, not exact.
  EXPECT_LT(static_cast<double>(disagreements) / static_cast<double>(x.size()), 0.40);
}

TEST(DistortionDetector, EveryGridDistortsSomeLink) {
  // The deployment covers the area: a target anywhere must largely
  // distort at least one link, or it would be invisible.
  const Scenario s = Scenario::paper_room(3);
  Rng rng(3);
  const Matrix x = s.collector().survey_all(0.0, rng);
  const Vector ambient = s.collector().ambient_scan(0.0, rng);
  const DistortionMask mask = DistortionDetector().detect_from_data(x, ambient);
  for (std::size_t j = 0; j < x.cols(); ++j) {
    double col_sum = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) col_sum += mask.distorted(i, j);
    EXPECT_GE(col_sum, 1.0) << "grid " << j << " distorts no link";
  }
}

TEST(DistortionDetector, MostEntriesAreUndistorted) {
  // M >> footprint of one target: the mask must be mostly undistorted --
  // that is exactly why the known entries carry so much information.
  const Scenario s = Scenario::paper_room(4);
  Rng rng(4);
  const Matrix x = s.collector().survey_all(0.0, rng);
  const Vector ambient = s.collector().ambient_scan(0.0, rng);
  const DistortionMask mask = DistortionDetector().detect_from_data(x, ambient);
  EXPECT_LT(mask.distorted_fraction(), 0.5);
  EXPECT_GT(mask.distorted_fraction(), 0.02);
}

TEST(DistortionDetector, DetectFromDataValidatesShapes) {
  const DistortionDetector det;
  const Matrix x(2, 3, -30.0);
  const Vector bad_ambient{1.0};
  EXPECT_THROW(det.detect_from_data(x, bad_ambient), std::invalid_argument);
  Matrix empty;
  EXPECT_THROW(det.detect_from_data(empty, bad_ambient), std::invalid_argument);
}

TEST(KnownEntryMatrix, FillsAmbientWhereUndistorted) {
  DistortionMask mask{Matrix::from_rows({{1.0, 0.0}, {0.0, 1.0}})};
  const Vector ambient{-30.0, -40.0};
  const Matrix known = known_entry_matrix(mask, ambient);
  EXPECT_DOUBLE_EQ(known(0, 0), -30.0);
  EXPECT_DOUBLE_EQ(known(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(known(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(known(1, 1), -40.0);
}

TEST(KnownEntryMatrix, RejectsMismatchedAmbient) {
  DistortionMask mask{Matrix(2, 2, 1.0)};
  const Vector bad{1.0};
  EXPECT_THROW(known_entry_matrix(mask, bad), std::invalid_argument);
}

TEST(KnownEntryMatrix, KnownEntriesApproximateTruth) {
  // The whole premise of property (i): undistorted entries of the true
  // fingerprint matrix equal the link ambient RSS (within noise).
  const Scenario s = Scenario::paper_room(5);
  Rng rng(5);
  const Matrix x = s.collector().survey_all(0.0, rng);
  const Vector ambient = s.collector().ambient_scan(0.0, rng);
  const DistortionMask mask = DistortionDetector().detect_from_data(x, ambient);
  const Matrix known = known_entry_matrix(mask, ambient);
  double worst = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      if (mask.undistorted(i, j) == 1.0)
        worst = std::max(worst, std::abs(known(i, j) - x(i, j)));
  EXPECT_LT(worst, 7.0);  // bounded by threshold + ghost amplitude + noise tails
}

}  // namespace
}  // namespace tafloc
