#include "tafloc/recon/lrr.h"

#include <gtest/gtest.h>

#include "tafloc/fingerprint/reference.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/sim/scenario.h"

namespace tafloc {
namespace {

TEST(Lrr, ExactOnLowRankData) {
  Rng rng(1);
  const Matrix x0 = random_low_rank(8, 30, 3, rng);
  const auto refs = select_reference_locations(x0, 3, ReferencePolicy::QrPivot);
  const LrrModel lrr(x0, refs);
  EXPECT_LT(lrr.training_residual(), 1e-5);
  const Matrix predicted = lrr.predict(x0.select_columns(refs));
  EXPECT_LT(max_abs_diff(predicted, x0), 1e-5);
}

TEST(Lrr, CorrelationShape) {
  Rng rng(2);
  const Matrix x0 = random_low_rank(6, 20, 2, rng);
  const LrrModel lrr(x0, {0, 5});
  EXPECT_EQ(lrr.correlation().rows(), 2u);
  EXPECT_EQ(lrr.correlation().cols(), 20u);
  EXPECT_EQ(lrr.num_references(), 2u);
  EXPECT_EQ(lrr.num_grids(), 20u);
}

TEST(Lrr, ReferenceColumnsMapNearIdentity) {
  // Predicting from the training reference columns must reproduce them.
  Rng rng(3);
  const Matrix x0 = random_low_rank(8, 25, 4, rng);
  const auto refs = select_reference_locations(x0, 4, ReferencePolicy::QrPivot);
  const LrrModel lrr(x0, refs);
  const Matrix pred = lrr.predict(x0.select_columns(refs));
  for (std::size_t k = 0; k < refs.size(); ++k) {
    for (std::size_t i = 0; i < x0.rows(); ++i)
      EXPECT_NEAR(pred(i, refs[k]), x0(i, refs[k]), 1e-5);
  }
}

TEST(Lrr, SurvivesRowOffsetDrift) {
  // Core premise of the paper: a per-link additive drift d * 1^T keeps
  // X(t) = X_R(t) * Z with the SAME Z -- provided the columns of Z at
  // each location sum appropriately.  Verify the prediction error stays
  // tiny after synthetic row-offset drift.
  Rng rng(4);
  const Matrix x0 = random_low_rank(8, 30, 3, rng) + Matrix(8, 30, -40.0);
  const auto refs = select_reference_locations(x0, 4, ReferencePolicy::QrPivot);
  const LrrModel lrr(x0, refs);

  Matrix drifted = x0;
  for (std::size_t i = 0; i < drifted.rows(); ++i) {
    const double offset = (i % 2 == 0 ? 1.0 : -1.0) * 3.0;
    for (std::size_t j = 0; j < drifted.cols(); ++j) drifted(i, j) += offset;
  }
  const Matrix pred = lrr.predict(drifted.select_columns(refs));
  EXPECT_LT(max_abs_diff(pred, drifted), 0.8);
}

TEST(Lrr, PredictionTracksRealisticDrift) {
  // On the simulated paper room, LRR prediction from 10 fresh reference
  // columns should reduce the error far below the raw staleness.
  const Scenario s = Scenario::paper_room(5);
  Rng rng(5);
  const Matrix x0 = s.collector().survey_all(0.0, rng);
  const auto refs = select_reference_locations(x0, 10, ReferencePolicy::QrPivot);
  const LrrModel lrr(x0, refs);

  const double t = 45.0;
  const Matrix truth = s.collector().ground_truth(t);
  const Matrix fresh_refs = s.collector().survey_grids(refs, t, rng);
  const Matrix pred = lrr.predict(fresh_refs);

  double stale_err = 0.0, pred_err = 0.0;
  const Matrix truth0 = s.collector().ground_truth(0.0);
  for (std::size_t i = 0; i < truth.rows(); ++i)
    for (std::size_t j = 0; j < truth.cols(); ++j) {
      stale_err += std::abs(truth0(i, j) - truth(i, j));
      pred_err += std::abs(pred(i, j) - truth(i, j));
    }
  EXPECT_LT(pred_err, stale_err * 0.8);
}

TEST(Lrr, RejectsBadArguments) {
  Rng rng(6);
  const Matrix x0 = random_gaussian(4, 10, rng);
  EXPECT_THROW(LrrModel(x0, {}), std::invalid_argument);
  EXPECT_THROW(LrrModel(x0, {10}), std::out_of_range);
  EXPECT_THROW(LrrModel(x0, {0}, 0.0), std::invalid_argument);
  EXPECT_THROW(LrrModel(Matrix{}, {0}), std::invalid_argument);
}

TEST(Lrr, PredictRejectsWrongColumnCount) {
  Rng rng(7);
  const Matrix x0 = random_gaussian(4, 10, rng);
  const LrrModel lrr(x0, {1, 2});
  const Matrix wrong(4, 3, 0.0);
  EXPECT_THROW(lrr.predict(wrong), std::invalid_argument);
}

TEST(Lrr, MoreReferencesNeverHurtTraining) {
  Rng rng(8);
  const Matrix x0 = random_gaussian(8, 40, rng);  // full-rank rows
  const auto refs4 = select_reference_locations(x0, 4, ReferencePolicy::QrPivot);
  const auto refs8 = select_reference_locations(x0, 8, ReferencePolicy::QrPivot);
  const LrrModel lrr4(x0, refs4);
  const LrrModel lrr8(x0, refs8);
  EXPECT_LE(lrr8.training_residual(), lrr4.training_residual() + 1e-9);
}

}  // namespace
}  // namespace tafloc
