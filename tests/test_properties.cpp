// Property-based sweeps over seeds and sizes: invariants that must hold
// for every draw, not just the fixtures used elsewhere.
#include <gtest/gtest.h>

#include <cmath>

#include "tafloc/fingerprint/distortion.h"
#include "tafloc/fingerprint/reference.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/linalg/svd.h"
#include "tafloc/recon/lrr.h"
#include "tafloc/rf/drift.h"
#include "tafloc/sim/scenario.h"

namespace tafloc {
namespace {

// ---------- property: fingerprint matrices are approximately low rank ----------

class FingerprintRankProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FingerprintRankProperty, PaperRoomMatrixIsApproxLowRank) {
  const Scenario s = Scenario::paper_room(GetParam());
  Rng rng(GetParam());
  const Matrix x0 = s.collector().survey_all(0.0, rng);
  const SvdResult svd = svd_decompose(x0);
  // Energy captured by the top-6 singular values must dominate
  // (the paper's property i: X is approximately low rank).
  double total = 0.0, top = 0.0;
  for (std::size_t i = 0; i < svd.sigma.size(); ++i) {
    total += svd.sigma[i] * svd.sigma[i];
    if (i < 6) top += svd.sigma[i] * svd.sigma[i];
  }
  EXPECT_GT(top / total, 0.99);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FingerprintRankProperty,
                         ::testing::Values(1u, 7u, 13u, 101u, 999u));

// ---------- property: drift anchors hold for every seed ----------

class DriftAnchorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DriftAnchorProperty, MeanDriftHitsPaperAnchors) {
  const TemporalDriftModel model(10, DriftConfig{}, GetParam());
  double mean5 = 0.0, mean45 = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    mean5 += std::abs(model.ambient_offset_db(i, 5.0));
    mean45 += std::abs(model.ambient_offset_db(i, 45.0));
  }
  EXPECT_NEAR(mean5 / 10.0, 2.5, 1e-9);
  EXPECT_NEAR(mean45 / 10.0, 6.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriftAnchorProperty,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u, 99999u));

// ---------- property: SVD of random matrices (size sweep) ----------

struct SizeCase {
  std::size_t rows, cols;
};

class SvdRandomProperty : public ::testing::TestWithParam<SizeCase> {};

TEST_P(SvdRandomProperty, DecompositionIsExact) {
  const SizeCase c = GetParam();
  for (std::uint64_t seed : {5u, 55u, 555u}) {
    Rng rng(seed);
    const Matrix a = random_gaussian(c.rows, c.cols, rng);
    const SvdResult svd = svd_decompose(a);
    EXPECT_LT(max_abs_diff(svd.reconstruct(), a), 1e-8)
        << c.rows << "x" << c.cols << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SvdRandomProperty,
                         ::testing::Values(SizeCase{2, 2}, SizeCase{3, 8}, SizeCase{8, 3},
                                           SizeCase{10, 10}, SizeCase{10, 96}));

// ---------- property: QR-pivot references reconstruct better than random ----------

class ReferenceQualityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceQualityProperty, QrPivotAtLeastAsGoodAsUniform) {
  const Scenario s = Scenario::paper_room(GetParam());
  Rng rng(GetParam());
  const Matrix x0 = s.collector().survey_all(0.0, rng);
  const std::size_t n = 10;

  auto residual_for = [&](ReferencePolicy policy) {
    Rng policy_rng(GetParam() + 1);
    const auto refs = select_reference_locations(x0, n, policy, &policy_rng);
    return LrrModel(x0, refs).training_residual();
  };

  const double qr = residual_for(ReferencePolicy::QrPivot);
  const double uniform = residual_for(ReferencePolicy::UniformGrid);
  EXPECT_LE(qr, uniform * 1.35);  // QR pivots should not be clearly worse
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceQualityProperty, ::testing::Values(3u, 17u, 71u));

// ---------- property: distortion fraction is stable across seeds ----------

class DistortionFractionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistortionFractionProperty, FractionInPhysicalBand) {
  const Scenario s = Scenario::paper_room(GetParam());
  Rng rng(GetParam() + 7);
  const Matrix x0 = s.collector().survey_all(0.0, rng);
  const Vector ambient = s.collector().ambient_scan(0.0, rng);
  const DistortionMask mask = DistortionDetector().detect_from_data(x0, ambient);
  EXPECT_GT(mask.distorted_fraction(), 0.02);
  EXPECT_LT(mask.distorted_fraction(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistortionFractionProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---------- property: singular value shrink never increases any sigma ----------

class ShrinkProperty : public ::testing::TestWithParam<double> {};

TEST_P(ShrinkProperty, ShrinkReducesEverySingularValueByTau) {
  const double tau = GetParam();
  Rng rng(31);
  const Matrix a = random_gaussian(7, 9, rng);
  const SvdResult before = svd_decompose(a);
  Matrix shrunk;
  singular_value_shrink_into(a, tau, shrunk);
  const SvdResult after = svd_decompose(shrunk);
  for (std::size_t i = 0; i < before.sigma.size(); ++i) {
    EXPECT_NEAR(after.sigma[i], std::max(before.sigma[i] - tau, 0.0), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, ShrinkProperty, ::testing::Values(0.0, 0.5, 1.5, 4.0, 100.0));

}  // namespace
}  // namespace tafloc
