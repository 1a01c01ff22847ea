#include "tafloc/tafloc/system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "tafloc/loc/matcher.h"
#include "tafloc/recon/error.h"
#include "tafloc/sim/scenario.h"

namespace tafloc {
namespace {

class TafLocSystemTest : public ::testing::Test {
 protected:
  TafLocSystemTest() : scenario_(Scenario::paper_room(51)), rng_(51) {}

  /// Calibrate a system at t = 0 from a fresh full survey.
  TafLocSystem calibrated_system(const TafLocConfig& cfg = {}) {
    TafLocSystem system(scenario_.deployment(), cfg);
    const Matrix x0 = scenario_.collector().survey_all(0.0, rng_);
    Vector ambient = scenario_.collector().ambient_scan(0.0, rng_);
    system.calibrate(x0, std::move(ambient), 0.0);
    return system;
  }

  Scenario scenario_;
  Rng rng_;
};

TEST_F(TafLocSystemTest, UncalibratedOperationsThrow) {
  TafLocSystem system(scenario_.deployment());
  EXPECT_FALSE(system.calibrated());
  const std::vector<double> y(10, -40.0);
  EXPECT_THROW(system.localize(y), std::logic_error);
  EXPECT_THROW(system.reference_locations(), std::logic_error);
  EXPECT_THROW(system.database(), std::logic_error);
  EXPECT_THROW(system.lrr(), std::logic_error);
  EXPECT_THROW(system.update(Matrix(10, 5, 0.0), Vector(10, 0.0), 1.0), std::logic_error);
}

TEST_F(TafLocSystemTest, CalibrationPopulatesState) {
  const TafLocSystem system = calibrated_system();
  EXPECT_TRUE(system.calibrated());
  EXPECT_FALSE(system.reference_locations().empty());
  EXPECT_LE(system.reference_locations().size(), 12u);  // n << N = 96
  EXPECT_EQ(system.database().num_links(), 10u);
  EXPECT_EQ(system.database().num_grids(), 96u);
  EXPECT_GT(system.distortion_mask().num_distorted(), 0u);
}

TEST_F(TafLocSystemTest, CalibrationValidatesShapes) {
  TafLocSystem system(scenario_.deployment());
  EXPECT_THROW(system.calibrate(Matrix(5, 96, 0.0), Vector(5, 0.0), 0.0),
               std::invalid_argument);
  EXPECT_THROW(system.calibrate(Matrix(10, 90, 0.0), Vector(10, 0.0), 0.0),
               std::invalid_argument);
}

TEST_F(TafLocSystemTest, ExplicitReferenceCountRespected) {
  TafLocConfig cfg;
  cfg.reference_count = 7;
  const TafLocSystem system = calibrated_system(cfg);
  EXPECT_EQ(system.reference_locations().size(), 7u);
}

TEST_F(TafLocSystemTest, LocalizesFreshlyCalibrated) {
  const TafLocSystem system = calibrated_system();
  double total = 0.0;
  for (std::size_t j : {11u, 44u, 77u}) {
    const Point2 target = scenario_.deployment().grid().center(j);
    const Vector y = scenario_.collector().observe(target, 0.0, rng_);
    total += distance(system.localize(y), target);
  }
  EXPECT_LT(total / 3.0, 1.5);
}

TEST_F(TafLocSystemTest, UpdateReconstructsDatabase) {
  TafLocSystem system = calibrated_system();
  const double t = 45.0;
  const auto report = system.update_with_collector(scenario_.collector(), t, rng_);
  EXPECT_EQ(report.references_surveyed, system.reference_locations().size());
  EXPECT_DOUBLE_EQ(report.updated_at_days, t);
  EXPECT_DOUBLE_EQ(system.database().surveyed_at_days(), t);

  const Matrix truth = scenario_.collector().ground_truth(t);
  const double err = mean_abs_error(system.database().fingerprints(), truth);
  EXPECT_LT(err, 5.0);  // paper band: ~3.6 dBm at 45 days
}

TEST_F(TafLocSystemTest, UpdateBeatsStaleDatabaseForLocalization) {
  TafLocSystem updated = calibrated_system();
  TafLocSystem stale = calibrated_system();
  const double t = 90.0;
  updated.update_with_collector(scenario_.collector(), t, rng_);

  double err_updated = 0.0, err_stale = 0.0;
  for (std::size_t j = 3; j < 96; j += 9) {
    const Point2 target = scenario_.deployment().grid().center(j);
    const Vector y = scenario_.collector().observe(target, t, rng_);
    err_updated += distance(updated.localize(y), target);
    err_stale += distance(stale.localize(y), target);
  }
  EXPECT_LT(err_updated, err_stale);
}

TEST_F(TafLocSystemTest, UpdateValidatesInputs) {
  TafLocSystem system = calibrated_system();
  const std::size_t n = system.reference_locations().size();
  EXPECT_THROW(system.update(Matrix(10, n + 1, 0.0), Vector(10, 0.0), 1.0),
               std::invalid_argument);
  EXPECT_THROW(system.update(Matrix(9, n, 0.0), Vector(10, 0.0), 1.0), std::invalid_argument);
  EXPECT_THROW(system.update(Matrix(10, n, 0.0), Vector(9, 0.0), 1.0), std::invalid_argument);
}

TEST_F(TafLocSystemTest, SolverReportIsPlausible) {
  TafLocSystem system = calibrated_system();
  const auto report = system.update_with_collector(scenario_.collector(), 15.0, rng_);
  EXPECT_GT(report.solver.outer_iterations, 0u);
  EXPECT_FALSE(report.solver.objective_trace.empty());
  EXPECT_GT(report.solver.rank, 0u);
}

TEST_F(TafLocSystemTest, NameIsTafLoc) {
  const TafLocSystem system = calibrated_system();
  EXPECT_EQ(system.name(), "TafLoc");
}

TEST_F(TafLocSystemTest, RejectsBadConfig) {
  TafLocConfig cfg;
  cfg.knn_k = 0;
  EXPECT_THROW(TafLocSystem(scenario_.deployment(), cfg), std::invalid_argument);
}

TEST_F(TafLocSystemTest, StateExportImportRoundTrip) {
  TafLocSystem original = calibrated_system();
  original.update_with_collector(scenario_.collector(), 30.0, rng_);
  const TafLocState state = original.export_state();

  // Restore into a FRESH system with no calibration of its own.
  TafLocSystem restored(scenario_.deployment());
  restored.import_state(state);
  EXPECT_TRUE(restored.calibrated());
  EXPECT_EQ(restored.reference_locations(), original.reference_locations());
  EXPECT_DOUBLE_EQ(restored.database().surveyed_at_days(), 30.0);

  // Identical localization behaviour.
  for (std::size_t j : {5u, 50u, 95u}) {
    const Vector y = scenario_.collector().observe(scenario_.deployment().grid().center(j),
                                                   30.0, rng_);
    const Point2 a = original.localize(y);
    const Point2 b = restored.localize(y);
    EXPECT_LT(distance(a, b), 1e-12);
  }
}

TEST_F(TafLocSystemTest, UpdateAfterImport) {
  TafLocSystem original = calibrated_system();
  TafLocSystem restored(scenario_.deployment());
  restored.import_state(original.export_state());

  // The restored system must be able to run the low-cost update cycle.
  const auto report = restored.update_with_collector(scenario_.collector(), 45.0, rng_);
  EXPECT_GT(report.solver.outer_iterations, 0u);
  EXPECT_DOUBLE_EQ(restored.database().surveyed_at_days(), 45.0);
}

TEST_F(TafLocSystemTest, ImportedSystemUpdatesLikeTheOriginal) {
  // calibrate() and import_state() must leave the same recalibration
  // inputs behind (mask, pair sets, LRR model): one update fed the same
  // survey columns and ambient scan lands on the same bits on both.
  TafLocSystem original = calibrated_system();
  TafLocSystem restored(scenario_.deployment());
  restored.import_state(original.export_state());

  const Matrix fresh =
      scenario_.collector().survey_grids(original.reference_locations(), 45.0, rng_);
  const Vector ambient = scenario_.collector().ambient_scan(45.0, rng_);
  const auto a = original.update(fresh, ambient, 45.0);
  const auto b = restored.update(fresh, ambient, 45.0);

  const Matrix& xa = original.database().fingerprints();
  const Matrix& xb = restored.database().fingerprints();
  ASSERT_TRUE(xa.same_shape(xb));
  std::size_t differing = 0;
  for (std::size_t k = 0; k < xa.data().size(); ++k)
    if (std::memcmp(&xa.data()[k], &xb.data()[k], sizeof(double)) != 0) ++differing;
  EXPECT_EQ(differing, 0u);
  EXPECT_EQ(a.solver.objective, b.solver.objective);
  EXPECT_EQ(a.solver.outer_iterations, b.solver.outer_iterations);
  EXPECT_EQ(original.telemetry().counter("recon.loli_ir.cg_iterations").value(),
            restored.telemetry().counter("recon.loli_ir.cg_iterations").value());
  EXPECT_GT(a.solver.outer_iterations, 0u);
}

TEST_F(TafLocSystemTest, ImportStateValidatesShapes) {
  TafLocSystem original = calibrated_system();
  TafLocState state = original.export_state();
  state.ambient.pop_back();
  TafLocSystem fresh(scenario_.deployment());
  EXPECT_THROW(fresh.import_state(state), std::invalid_argument);
}

TEST_F(TafLocSystemTest, ExportStateRequiresCalibration) {
  TafLocSystem fresh(scenario_.deployment());
  EXPECT_THROW(fresh.export_state(), std::logic_error);
}

TEST_F(TafLocSystemTest, SuccessiveUpdatesAdvanceTime) {
  TafLocSystem system = calibrated_system();
  system.update_with_collector(scenario_.collector(), 15.0, rng_);
  system.update_with_collector(scenario_.collector(), 45.0, rng_);
  EXPECT_DOUBLE_EQ(system.database().surveyed_at_days(), 45.0);
}

TEST_F(TafLocSystemTest, QuantizedScanIsBitIdenticalToFloatScan) {
  // The system always serves through the int8 tier; a tier-less
  // KnnMatcher over the same fingerprints, k and link health must give
  // the SAME bits for every estimate -- the tier is a pure accelerator.
  TafLocSystem system = calibrated_system();
  EXPECT_TRUE(system.quantized_tier_active());
  const auto float_scan = [&] {
    KnnMatcher matcher(system.database().fingerprints_view(), scenario_.deployment().grid(),
                       std::min(system.config().knn_k, scenario_.deployment().num_grids()),
                       /*weighted=*/true);
    matcher.attach_link_health(&system.link_health());
    return matcher;
  };

  Rng probe_rng(909);
  auto compare_everywhere = [&](const KnnMatcher& plain, double t) {
    for (std::size_t j : {0u, 11u, 44u, 77u, 95u}) {
      const Point2 target = scenario_.deployment().grid().center(j);
      const Vector y = scenario_.collector().observe(target, t, probe_rng);
      const Point2 a = system.localize(y);
      const Point2 b = plain.localize(y);
      EXPECT_EQ(a.x, b.x) << "t=" << t << " j=" << j;
      EXPECT_EQ(a.y, b.y) << "t=" << t << " j=" << j;
    }
  };
  compare_everywhere(float_scan(), 0.0);

  // Tier survives an update (database rebuild) with identity intact.
  Rng upd_rng(910);
  system.update_with_collector(scenario_.collector(), 45.0, upd_rng);
  EXPECT_TRUE(system.quantized_tier_active());
  compare_everywhere(float_scan(), 45.0);
}

}  // namespace
}  // namespace tafloc
