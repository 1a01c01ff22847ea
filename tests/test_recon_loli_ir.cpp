#include "tafloc/recon/loli_ir.h"

#include <gtest/gtest.h>

#include "tafloc/fingerprint/distortion.h"
#include "tafloc/fingerprint/reference.h"
#include "tafloc/recon/error.h"
#include "tafloc/recon/lrr.h"
#include "tafloc/sim/scenario.h"
#include "tafloc/util/stats.h"

namespace tafloc {
namespace {

/// Everything one reconstruction experiment needs, assembled from the
/// simulated paper room the way TafLocSystem does it.
struct Workbench {
  Scenario scenario;
  Matrix x0;                 // initial survey
  Vector ambient0;
  DistortionMask mask;
  std::vector<std::size_t> refs;
  LrrModel lrr;
  Matrix truth_t;            // ground truth at update time
  LoliIrProblem problem;     // ready-to-solve instance at time t

  Workbench(std::uint64_t seed, double t_days, std::size_t n_refs = 10)
      : scenario(Scenario::paper_room(seed)),
        x0(make_x0(scenario, seed)),
        ambient0(make_ambient(scenario, seed)),
        mask(DistortionDetector().detect_from_data(x0, ambient0)),
        refs(select_reference_locations(x0, n_refs, ReferencePolicy::QrPivot)),
        lrr(x0, refs),
        truth_t(scenario.collector().ground_truth(t_days)) {
    Rng rng(seed + 1000);
    const Matrix fresh_refs = scenario.collector().survey_grids(refs, t_days, rng);
    const Vector fresh_ambient = scenario.collector().ambient_scan(t_days, rng);
    problem.mask_undistorted = mask.undistorted;
    problem.known = known_entry_matrix(mask, fresh_ambient);
    problem.prediction = lrr.predict(fresh_refs);
    problem.reference_columns = fresh_refs;
    problem.reference_indices = refs;
    problem.continuity = continuity_pairs(scenario.deployment(), &mask.undistorted);
    problem.similarity = similarity_pairs(scenario.deployment(), &mask.undistorted);
  }

 private:
  static Matrix make_x0(const Scenario& s, std::uint64_t seed) {
    Rng rng(seed + 500);
    return s.collector().survey_all(0.0, rng);
  }
  static Vector make_ambient(const Scenario& s, std::uint64_t seed) {
    Rng rng(seed + 501);
    return s.collector().ambient_scan(0.0, rng);
  }
};

TEST(LoliIr, ConvergesOnPaperRoom) {
  Workbench wb(1, 45.0);
  const LoliIrResult res = loli_ir_reconstruct(wb.problem);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.rank, 0u);
  EXPECT_EQ(res.x.rows(), 10u);
  EXPECT_EQ(res.x.cols(), 96u);
}

TEST(LoliIr, ObjectiveDecreasesMonotonically) {
  Workbench wb(2, 45.0);
  const LoliIrResult res = loli_ir_reconstruct(wb.problem);
  ASSERT_GE(res.objective_trace.size(), 2u);
  for (std::size_t i = 1; i < res.objective_trace.size(); ++i) {
    EXPECT_LE(res.objective_trace[i], res.objective_trace[i - 1] * (1.0 + 1e-9))
        << "objective increased at outer iteration " << i;
  }
}

TEST(LoliIr, ReconstructionErrorWithinPaperBand) {
  // Paper Fig. 3: ~3.6 dBm average at 45 days.  Allow generous slack --
  // our substrate is a simulator -- but insist on the same order.
  Workbench wb(3, 45.0);
  const LoliIrResult res = loli_ir_reconstruct(wb.problem);
  const double err = mean_abs_error(res.x, wb.truth_t);
  EXPECT_LT(err, 5.0);
}

TEST(LoliIr, BeatsStaleDatabase) {
  // Using the 0-day survey at day 45 must be worse than reconstructing.
  Workbench wb(4, 45.0);
  const LoliIrResult res = loli_ir_reconstruct(wb.problem);
  const double recon_err = mean_abs_error(res.x, wb.truth_t);
  const double stale_err = mean_abs_error(wb.x0, wb.truth_t);
  EXPECT_LT(recon_err, stale_err);
}

TEST(LoliIr, BeatsPredictionAlone) {
  // The full objective (known entries + reference pinning + priors)
  // should not be worse than the raw LRR prediction it starts from.
  Workbench wb(5, 90.0);
  const LoliIrResult res = loli_ir_reconstruct(wb.problem);
  const double full = mean_abs_error(res.x, wb.truth_t);
  const double pred_only = mean_abs_error(wb.problem.prediction, wb.truth_t);
  EXPECT_LE(full, pred_only * 1.05);
}

TEST(LoliIr, ReferenceColumnsPinnedToFreshMeasurements) {
  Workbench wb(6, 45.0);
  const LoliIrResult res = loli_ir_reconstruct(wb.problem);
  for (std::size_t k = 0; k < wb.refs.size(); ++k) {
    const std::size_t g = wb.refs[k];
    for (std::size_t i = 0; i < res.x.rows(); ++i) {
      EXPECT_NEAR(res.x(i, g), wb.problem.reference_columns(i, k), 1.5)
          << "reference column " << g << " drifted from its measurement";
    }
  }
}

TEST(LoliIr, RespectsExplicitRank) {
  Workbench wb(7, 15.0);
  LoliIrConfig cfg;
  cfg.rank = 3;
  const LoliIrResult res = loli_ir_reconstruct(wb.problem, cfg);
  EXPECT_EQ(res.rank, 3u);
  EXPECT_EQ(res.l.cols(), 3u);
  EXPECT_EQ(res.r.cols(), 3u);
}

TEST(LoliIr, RankCappedByMaxRank) {
  Workbench wb(8, 15.0);
  LoliIrConfig cfg;
  cfg.rank = 50;
  cfg.max_rank = 4;
  const LoliIrResult res = loli_ir_reconstruct(wb.problem, cfg);
  EXPECT_EQ(res.rank, 4u);
}

TEST(LoliIr, FactorizationConsistent) {
  Workbench wb(9, 15.0);
  const LoliIrResult res = loli_ir_reconstruct(wb.problem);
  EXPECT_LT(max_abs_diff(res.x, outer_product(res.l, res.r)), 1e-9);
}

TEST(LoliIr, ObjectiveFunctionMatchesResult) {
  Workbench wb(10, 15.0);
  const LoliIrResult res = loli_ir_reconstruct(wb.problem);
  EXPECT_NEAR(res.objective, loli_ir_objective(wb.problem, LoliIrConfig{}, res.l, res.r),
              1e-6 * (1.0 + res.objective));
}

TEST(LoliIr, ErrorGrowsWithElapsedTime) {
  // Fig. 3's qualitative shape: reconstruction error increases with the
  // age of the correlation model.
  Workbench early(11, 3.0);
  Workbench late(11, 90.0);
  const double err_early = mean_abs_error(loli_ir_reconstruct(early.problem).x, early.truth_t);
  const double err_late = mean_abs_error(loli_ir_reconstruct(late.problem).x, late.truth_t);
  EXPECT_LT(err_early, err_late);
}

TEST(LoliIr, ValidatesProblemShapes) {
  Workbench wb(12, 15.0);
  LoliIrProblem bad = wb.problem;
  bad.prediction = Matrix(3, 3, 0.0);
  EXPECT_THROW(loli_ir_reconstruct(bad), std::invalid_argument);

  bad = wb.problem;
  bad.mask_undistorted(0, 0) = 0.5;
  EXPECT_THROW(loli_ir_reconstruct(bad), std::invalid_argument);

  bad = wb.problem;
  bad.reference_indices.back() = 500;
  EXPECT_THROW(loli_ir_reconstruct(bad), std::out_of_range);

  bad = wb.problem;
  bad.reference_indices.pop_back();
  EXPECT_THROW(loli_ir_reconstruct(bad), std::invalid_argument);
}

TEST(LoliIr, ValidatesConfig) {
  Workbench wb(13, 15.0);
  LoliIrConfig cfg;
  cfg.lambda = 0.0;
  EXPECT_THROW(loli_ir_reconstruct(wb.problem, cfg), std::invalid_argument);
  cfg = LoliIrConfig{};
  cfg.lrr_weight = -1.0;
  EXPECT_THROW(loli_ir_reconstruct(wb.problem, cfg), std::invalid_argument);
  cfg = LoliIrConfig{};
  cfg.max_outer_iterations = 0;
  EXPECT_THROW(loli_ir_reconstruct(wb.problem, cfg), std::invalid_argument);
}

TEST(LoliIr, PairwisePriorsImproveDistortedEntries) {
  // Ablation invariant: with continuity+similarity ON the error on the
  // distorted support should not be worse than with both OFF.
  Workbench wb(14, 90.0);
  LoliIrConfig with = LoliIrConfig{};
  LoliIrConfig without = LoliIrConfig{};
  without.continuity_weight = 0.0;
  without.similarity_weight = 0.0;
  const Matrix x_with = loli_ir_reconstruct(wb.problem, with).x;
  const Matrix x_without = loli_ir_reconstruct(wb.problem, without).x;
  const auto err_with = entrywise_abs_errors_distorted(x_with, wb.truth_t, wb.mask);
  const auto err_without = entrywise_abs_errors_distorted(x_without, wb.truth_t, wb.mask);
  const double mean_with = mean(err_with);
  const double mean_without = mean(err_without);
  EXPECT_LE(mean_with, mean_without * 1.1);
}

TEST(LoliIr, DeterministicGivenSameProblem) {
  Workbench wb(15, 45.0);
  const LoliIrResult a = loli_ir_reconstruct(wb.problem);
  const LoliIrResult b = loli_ir_reconstruct(wb.problem);
  EXPECT_LT(max_abs_diff(a.x, b.x), 1e-12);
}

// Sweep: reconstruction stays sane across elapsed times (Fig. 3 grid).
class LoliIrTimeSweep : public ::testing::TestWithParam<double> {};

TEST_P(LoliIrTimeSweep, ErrorBoundedAtAllElapsedTimes) {
  const double t = GetParam();
  Workbench wb(100, t);
  const LoliIrResult res = loli_ir_reconstruct(wb.problem);
  EXPECT_TRUE(res.converged || res.outer_iterations == LoliIrConfig{}.max_outer_iterations);
  const double err = mean_abs_error(res.x, wb.truth_t);
  EXPECT_LT(err, 6.0) << "at t = " << t << " days";
}

INSTANTIATE_TEST_SUITE_P(ElapsedDays, LoliIrTimeSweep,
                         ::testing::Values(3.0, 5.0, 15.0, 45.0, 90.0));

}  // namespace
}  // namespace tafloc
