#include "tafloc/baselines/rti.h"

#include <gtest/gtest.h>

#include "tafloc/sim/scenario.h"
#include "tafloc/sim/trace.h"

namespace tafloc {
namespace {

class RtiTest : public ::testing::Test {
 protected:
  RtiTest() : scenario_(Scenario::paper_room(31)), rng_(31) {
    ambient_ = scenario_.collector().ambient_scan(0.0, rng_);
  }
  Scenario scenario_;
  Rng rng_;
  Vector ambient_;
};

TEST_F(RtiTest, WeightModelShapeAndSparsity) {
  const RtiLocalizer rti(scenario_.deployment(), ambient_);
  const Matrix& w = rti.weight_model();
  EXPECT_EQ(w.rows(), 10u);
  EXPECT_EQ(w.cols(), 96u);
  // Each link's ellipse covers only a band of grids, not the whole area.
  std::size_t nonzero = 0;
  for (double v : w.data())
    if (v != 0.0) ++nonzero;
  EXPECT_GT(nonzero, 0u);
  EXPECT_LT(nonzero, w.size() / 2);
}

TEST_F(RtiTest, WeightsScaleInverseSqrtLinkLength) {
  const RtiLocalizer rti(scenario_.deployment(), ambient_);
  const Matrix& w = rti.weight_model();
  const double expected = 1.0 / std::sqrt(scenario_.deployment().links()[0].length());
  for (std::size_t j = 0; j < w.cols(); ++j) {
    if (w(0, j) != 0.0) {
      EXPECT_NEAR(w(0, j), expected, 1e-12);
    }
  }
}

TEST_F(RtiTest, ImagePeaksNearTarget) {
  const RtiLocalizer rti(scenario_.deployment(), ambient_);
  const Point2 target = scenario_.deployment().grid().center(40);
  const Vector y = scenario_.collector().observe(target, 0.0, rng_);
  const Vector img = rti.image(y);
  std::size_t argmax = 0;
  for (std::size_t j = 1; j < img.size(); ++j)
    if (img[j] > img[argmax]) argmax = j;
  const Point2 peak = scenario_.deployment().grid().center(argmax);
  EXPECT_LT(distance(peak, target), 1.6);
}

TEST_F(RtiTest, LocalizesGridCenterTargets) {
  const RtiLocalizer rti(scenario_.deployment(), ambient_);
  double total = 0.0;
  const std::vector<std::size_t> cells{10, 30, 50, 70, 90};
  for (std::size_t j : cells) {
    const Point2 target = scenario_.deployment().grid().center(j);
    const Vector y = scenario_.collector().observe(target, 0.0, rng_);
    total += distance(rti.localize(y), target);
  }
  EXPECT_LT(total / static_cast<double>(cells.size()), 1.8);
}

TEST_F(RtiTest, AmbientObservationGivesFlatImage) {
  const RtiLocalizer rti(scenario_.deployment(), ambient_);
  const Vector y = scenario_.collector().observe_ambient(0.0, rng_);
  const Vector img = rti.image(y);
  double max_abs = 0.0;
  for (double v : img) max_abs = std::max(max_abs, std::abs(v));
  EXPECT_LT(max_abs, 0.6);  // nothing but noise in the image
}

TEST_F(RtiTest, NeedsNoFingerprintsSoAgeDoesNotMatter) {
  // RTI's accuracy at t=90 d (with a fresh ambient scan) should match
  // its accuracy at t=0: no fingerprint DB to go stale.
  const double t = 90.0;
  Vector ambient_now = scenario_.collector().ambient_scan(t, rng_);
  const RtiLocalizer rti_now(scenario_.deployment(), ambient_now);
  const RtiLocalizer rti_then(scenario_.deployment(), ambient_);

  double err_now = 0.0, err_then = 0.0;
  for (std::size_t j : {20u, 45u, 75u}) {
    const Point2 target = scenario_.deployment().grid().center(j);
    const Vector y_now = scenario_.collector().observe(target, t, rng_);
    const Vector y_then = scenario_.collector().observe(target, 0.0, rng_);
    err_now += distance(rti_now.localize(y_now), target);
    err_then += distance(rti_then.localize(y_then), target);
  }
  EXPECT_LT(err_now, err_then + 2.5);
}

TEST_F(RtiTest, RejectsBadConfig) {
  RtiConfig cfg;
  cfg.ellipse_width_m = 0.0;
  EXPECT_THROW(RtiLocalizer(scenario_.deployment(), ambient_, cfg), std::invalid_argument);
  cfg = RtiConfig{};
  cfg.ridge = 0.0;
  EXPECT_THROW(RtiLocalizer(scenario_.deployment(), ambient_, cfg), std::invalid_argument);
  cfg = RtiConfig{};
  cfg.top_fraction = 0.0;
  EXPECT_THROW(RtiLocalizer(scenario_.deployment(), ambient_, cfg), std::invalid_argument);
}

TEST_F(RtiTest, RejectsWrongAmbientLength) {
  Vector bad{1.0, 2.0};
  EXPECT_THROW(RtiLocalizer(scenario_.deployment(), bad), std::invalid_argument);
}

TEST_F(RtiTest, RejectsWrongObservationLength) {
  const RtiLocalizer rti(scenario_.deployment(), ambient_);
  const std::vector<double> bad{1.0};
  EXPECT_THROW(rti.localize(bad), std::invalid_argument);
}

TEST_F(RtiTest, NameIsRti) {
  const RtiLocalizer rti(scenario_.deployment(), ambient_);
  EXPECT_EQ(rti.name(), "RTI");
}

}  // namespace
}  // namespace tafloc
