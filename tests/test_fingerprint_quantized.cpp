// QuantizedTier (fingerprint/quantized.h): layout, residual bounds,
// derived-state lifecycle, and the shared ties-away rounding convention
// with NoiseModel::quantize (util/quantize.h).
#include "tafloc/fingerprint/quantized.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "tafloc/fingerprint/database.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/rf/noise.h"
#include "tafloc/util/quantize.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

Matrix fixture(std::size_t links, std::size_t grids, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m = random_gaussian(links, grids, rng);
  for (std::size_t i = 0; i < links; ++i) {
    const double offset = -70.0 + 4.0 * static_cast<double>(i);
    for (std::size_t j = 0; j < grids; ++j) m(i, j) = offset + 6.0 * m(i, j);
  }
  return m;
}

/// The stored cell terms against a brute-force sum over each cell's
/// padded bytes: sum c^2 + 256 * sum c, the dot-form pre-pass's t_j.
void expect_cell_terms_exact(const QuantizedTier& tier) {
  ASSERT_EQ(tier.cell_terms().size(), tier.num_grids());
  for (std::size_t j = 0; j < tier.num_grids(); ++j) {
    std::int64_t squares = 0, sum = 0;
    for (std::size_t i = 0; i < tier.padded_links(); ++i) {
      const std::int64_t c = tier.cell_data(j)[i];
      squares += c * c;
      sum += c;
    }
    EXPECT_EQ(tier.cell_terms()[j], squares + 256 * sum) << "grid " << j;
  }
}

TEST(QuantizedTier, ShapeAndZeroPadding) {
  QuantizedTier tier;
  EXPECT_FALSE(tier.ready());
  const Matrix fp = fixture(5, 7, 1);
  tier.rebuild(fp.view());
  ASSERT_TRUE(tier.ready());
  EXPECT_EQ(tier.num_links(), 5u);
  EXPECT_EQ(tier.num_grids(), 7u);
  EXPECT_EQ(tier.padded_links(), QuantizedTier::kPad);
  for (std::size_t j = 0; j < 7; ++j) {
    const std::int8_t* cell = tier.cell_data(j);
    for (std::size_t i = 5; i < tier.padded_links(); ++i) EXPECT_EQ(cell[i], 0) << j << " " << i;
  }
  tier.clear();
  EXPECT_FALSE(tier.ready());
}

TEST(QuantizedTier, CellTermsMatchBruteForce) {
  const Matrix fp = fixture(37, 23, 7);  // 37 links: two 32-byte steps, one padded
  QuantizedTier tier;
  tier.rebuild(fp.view());
  ASSERT_TRUE(tier.ready());
  expect_cell_terms_exact(tier);
  const QuantizedTier copy = tier;  // the copy keeps its own terms
  tier.clear();
  EXPECT_TRUE(tier.cell_terms().empty());
  expect_cell_terms_exact(copy);
}

TEST(QuantizedTier, StoredEntriesWithinHalfLevel) {
  // Stored levels are in-range by construction of the shared scale, so
  // dequantization error is bounded by scale / 2 everywhere.
  const Matrix fp = fixture(9, 40, 2);
  QuantizedTier tier;
  tier.rebuild(fp.view());
  ASSERT_TRUE(tier.ready());
  const double s = tier.scale();
  EXPECT_GT(s, 0.0);
  for (std::size_t j = 0; j < fp.cols(); ++j) {
    const std::int8_t* cell = tier.cell_data(j);
    for (std::size_t i = 0; i < fp.rows(); ++i) {
      const double dequant = tier.offset(i) + s * static_cast<double>(cell[i]);
      EXPECT_LE(std::abs(fp(i, j) - dequant), 0.5 * s + 1e-12) << i << " " << j;
    }
  }
}

TEST(QuantizedTier, ObservationResidualsAreExact) {
  const Matrix fp = fixture(9, 40, 3);
  QuantizedTier tier;
  tier.rebuild(fp.view());
  Rng rng(33);
  std::vector<double> rss(9);
  for (double& v : rss) v = -60.0 + 25.0 * rng.normal();  // includes out-of-range values
  std::vector<std::int8_t> values;
  std::vector<double> residual;
  tier.quantize_observation(rss, {}, values, residual);
  ASSERT_EQ(values.size(), tier.padded_links());
  ASSERT_EQ(residual.size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    const double dequant = tier.offset(i) + tier.scale() * static_cast<double>(values[i]);
    EXPECT_EQ(residual[i], std::abs(rss[i] - dequant)) << i;  // exact, clamp excess included
  }
  for (std::size_t i = 9; i < values.size(); ++i) EXPECT_EQ(values[i], 0);
}

TEST(QuantizedTier, MaskedObservationSkipsDeadLinks) {
  const Matrix fp = fixture(6, 12, 4);
  QuantizedTier tier;
  tier.rebuild(fp.view());
  std::vector<double> rss = {-50.0, std::nan(""), -55.0, -60.0, -65.0, -70.0};
  const std::vector<std::uint8_t> usable = {1, 0, 1, 1, 0, 1};
  std::vector<std::int8_t> values;
  std::vector<double> residual;
  tier.quantize_observation(rss, usable, values, residual);
  EXPECT_EQ(values[1], 0);  // the NaN on the dead link never touched the quantizer
  EXPECT_EQ(residual[1], 0.0);
  EXPECT_EQ(residual[4], 0.0);
}

TEST(QuantizedTier, NonFiniteMatrixDisablesTier) {
  Matrix fp = fixture(4, 6, 5);
  fp(2, 3) = std::numeric_limits<double>::quiet_NaN();
  QuantizedTier tier;
  tier.rebuild(fp.view());
  EXPECT_FALSE(tier.ready());
  EXPECT_TRUE(tier.cell_terms().empty());
  fp(2, 3) = -55.0;
  tier.rebuild(fp.view());
  EXPECT_TRUE(tier.ready());
  expect_cell_terms_exact(tier);
  fp(0, 5) = std::numeric_limits<double>::infinity();  // a ready tier loses its terms too
  tier.rebuild(fp.view());
  EXPECT_FALSE(tier.ready());
  EXPECT_TRUE(tier.cell_terms().empty());
}

TEST(QuantizedTier, ConstantMatrixDegeneratesGracefully) {
  const Matrix fp(3, 5, -48.0);
  QuantizedTier tier;
  tier.rebuild(fp.view());
  ASSERT_TRUE(tier.ready());
  EXPECT_EQ(tier.scale(), 1.0);  // fallback scale; all levels 0
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(tier.cell_data(j)[i], 0);
  std::vector<std::int8_t> values;
  std::vector<double> residual;
  tier.quantize_observation(std::vector<double>(3, -48.0), {}, values, residual);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(residual[i], 0.0);
}

TEST(QuantizedTier, DatabaseRebuildsTierOnUpdate) {
  Matrix fp = fixture(5, 10, 6);
  FingerprintDatabase db(fp, Vector(5, -80.0), 0.0);
  ASSERT_TRUE(db.quantized_tier().ready());
  const double scale_before = db.quantized_tier().scale();
  // Stretch the dynamic range: the rebuilt tier must see the new data.
  Matrix wider = fp;
  wider(0, 0) += 40.0;
  db.update(wider, Vector(5, -80.0), 1.0);
  ASSERT_TRUE(db.quantized_tier().ready());
  EXPECT_GT(db.quantized_tier().scale(), scale_before);
  // And the mirror matches a fresh quantization of the new matrix.
  QuantizedTier fresh;
  fresh.rebuild(wider.view());
  for (std::size_t j = 0; j < wider.cols(); ++j)
    for (std::size_t i = 0; i < fresh.padded_links(); ++i)
      ASSERT_EQ(db.quantized_tier().cell_data(j)[i], fresh.cell_data(j)[i]);
  // The cell terms were rebuilt with the levels.
  expect_cell_terms_exact(db.quantized_tier());
}

// ---- the projection bound (quantized.h, linalg/backend.h Int8Bound) ----

/// The stored projection against brute force: zero basis padding, the
/// Gershgorin kappa of the stored basis, P_j = B c_j, and N_j <= kappa *
/// D_j for random queries and the +-127 extremes.
void expect_projection_exact_and_sound(const QuantizedTier& tier, std::uint64_t seed) {
  ASSERT_TRUE(tier.projected());
  const std::size_t padded = tier.padded_links();
  const std::span<const std::int16_t> basis = tier.projection_basis();
  ASSERT_EQ(basis.size(), kBoundRank * padded);
  for (std::size_t t = 0; t < kBoundRank; ++t)
    for (std::size_t i = tier.num_links(); i < padded; ++i) EXPECT_EQ(basis[t * padded + i], 0);
  const auto project = [&](const std::int8_t* x) {
    std::vector<std::int64_t> out(kBoundRank, 0);
    for (std::size_t t = 0; t < kBoundRank; ++t)
      for (std::size_t i = 0; i < padded; ++i) out[t] += std::int64_t{basis[t * padded + i]} * x[i];
    return out;
  };
  std::uint64_t kappa = 0;
  for (std::size_t t = 0; t < kBoundRank; ++t) {
    std::uint64_t sum = 0;
    for (std::size_t u = 0; u < kBoundRank; ++u) {
      std::int64_t g = 0;
      for (std::size_t i = 0; i < padded; ++i)
        g += std::int64_t{basis[t * padded + i]} * basis[u * padded + i];
      sum += static_cast<std::uint64_t>(g < 0 ? -g : g);
    }
    kappa = std::max(kappa, sum);
  }
  EXPECT_EQ(tier.projection_kappa(), kappa);
  for (std::size_t j = 0; j < tier.num_grids(); ++j) {
    const std::vector<std::int64_t> p = project(tier.cell_data(j));
    for (std::size_t t = 0; t < kBoundRank; ++t)
      ASSERT_EQ(tier.cell_projection(j)[t], p[t]) << "grid " << j << " row " << t;
  }
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::int8_t> q(padded, 0);
    for (std::size_t i = 0; i < tier.num_links(); ++i)
      q[i] = trial == 0 ? 127 : (trial == 1 ? -127 : static_cast<std::int8_t>(rng.uniform(-127.0, 128.0)));
    const std::vector<std::int64_t> bq = project(q.data());
    for (std::size_t j = 0; j < tier.num_grids(); ++j) {
      std::uint64_t n = 0, d = 0;
      for (std::size_t t = 0; t < kBoundRank; ++t) {
        const std::int64_t diff = bq[t] - tier.cell_projection(j)[t];
        n += static_cast<std::uint64_t>(diff * diff);
      }
      for (std::size_t i = 0; i < padded; ++i) {
        const std::int64_t diff = std::int64_t{q[i]} - tier.cell_data(j)[i];
        d += static_cast<std::uint64_t>(diff * diff);
      }
      ASSERT_LE(n, kappa * d) << "trial " << trial << " grid " << j;
    }
  }
}

TEST(QuantizedTier, ProjectionOnlyWhereRowsAreWide) {
  // The shape rule: a projection exactly when a padded row is at least
  // 8x the 32 bytes the bound pass reads per cell.
  EXPECT_EQ(QuantizedTier::kProjectMinPadded, 256u);
  QuantizedTier tier;
  tier.rebuild(fixture(512, 2000, 20).view());
  ASSERT_TRUE(tier.ready());
  expect_projection_exact_and_sound(tier, 21);
  // A rebuilt tier starts the projections on a 32-byte boundary, so no
  // bound-pass load splits a cache line (a copy may not keep it).
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(tier.cell_projection(0)) % 32, 0u);
  // An orthonormal basis scaled by 2^12: B B^T is close to 2^24 I.
  EXPECT_GE(tier.projection_kappa(), std::uint64_t{1} << 23);
  EXPECT_LE(tier.projection_kappa(), std::uint64_t{1} << 25);
  for (const std::size_t links : {10u, 40u, 224u}) {  // padded 32, 64, 224
    tier.rebuild(fixture(links, 1600, 22).view());
    ASSERT_TRUE(tier.ready());
    EXPECT_FALSE(tier.projected()) << links << " links";
    EXPECT_TRUE(tier.projection_basis().empty());
  }
  tier.rebuild(fixture(225, 300, 23).view());  // padded 256: the smallest projected row
  expect_projection_exact_and_sound(tier, 24);
}

TEST(QuantizedTier, ProjectionIsDerivedStateOfTheLevels) {
  // Copied with the tier, dropped with it, absent for a non-finite
  // matrix, rebuilt with the levels.
  Matrix fp = fixture(300, 500, 25);
  QuantizedTier tier;
  tier.rebuild(fp.view());
  ASSERT_TRUE(tier.projected());
  const QuantizedTier copy = tier;
  ASSERT_TRUE(copy.projected());
  EXPECT_TRUE(std::equal(copy.projection_basis().begin(), copy.projection_basis().end(),
                         tier.projection_basis().begin(), tier.projection_basis().end()));
  EXPECT_EQ(copy.projection_kappa(), tier.projection_kappa());
  EXPECT_EQ(copy.bound_shift(), tier.bound_shift());
  for (std::size_t j = 0; j < fp.cols(); ++j)
    for (std::size_t t = 0; t < kBoundRank; ++t)
      ASSERT_EQ(copy.cell_projection(j)[t], tier.cell_projection(j)[t]);
  tier.clear();
  EXPECT_FALSE(tier.projected());
  EXPECT_TRUE(tier.projection_basis().empty());
  expect_projection_exact_and_sound(copy, 26);  // the copy keeps its own

  fp(7, 11) = std::numeric_limits<double>::quiet_NaN();
  tier.rebuild(fp.view());
  EXPECT_FALSE(tier.ready());
  EXPECT_FALSE(tier.projected());
  fp(7, 11) = -60.0;
  FingerprintDatabase db(fp, Vector(300, -80.0), 0.0);
  expect_projection_exact_and_sound(db.quantized_tier(), 27);
  Matrix wider = fp;
  for (std::size_t j = 0; j < wider.cols(); ++j) wider(0, j) += 0.5 * static_cast<double>(j % 7);
  db.update(wider, Vector(300, -80.0), 1.0);
  QuantizedTier fresh;
  fresh.rebuild(wider.view());
  ASSERT_TRUE(db.quantized_tier().projected());
  for (std::size_t j = 0; j < wider.cols(); ++j)
    for (std::size_t t = 0; t < kBoundRank; ++t)
      ASSERT_EQ(db.quantized_tier().cell_projection(j)[t], fresh.cell_projection(j)[t]);
}

// ---- the shared rounding convention (util/quantize.h) ----

TEST(RoundingConvention, TiesRoundAwayFromZero) {
  // Ties-away, NOT banker's rounding: 0.5 -> 1 (ties-even would say 0).
  EXPECT_EQ(round_ties_away(0.5), 1.0);
  EXPECT_EQ(round_ties_away(1.5), 2.0);
  EXPECT_EQ(round_ties_away(2.5), 3.0);
  EXPECT_EQ(round_ties_away(-0.5), -1.0);
  EXPECT_EQ(round_ties_away(-1.5), -2.0);
  EXPECT_EQ(round_ties_away(0.49), 0.0);
  EXPECT_EQ(round_ties_away(-0.49), 0.0);
}

TEST(RoundingConvention, NoiseModelUsesSharedHelper) {
  NoiseModel model(NoiseConfig{.stddev_db = 0.0, .quantization_step_db = 1.0});
  EXPECT_EQ(model.quantize(-59.5), -60.0);  // away from zero
  EXPECT_EQ(model.quantize(-58.5), -59.0);
  EXPECT_EQ(model.quantize(-59.49), -59.0);
  EXPECT_EQ(model.quantize(-59.0), -59.0);
  // Step 0 disables quantization entirely.
  NoiseModel off(NoiseConfig{.stddev_db = 0.0, .quantization_step_db = 0.0});
  EXPECT_EQ(off.quantize(-59.37), -59.37);
  // Half-dB step, same convention.
  NoiseModel half(NoiseConfig{.stddev_db = 0.0, .quantization_step_db = 0.5});
  EXPECT_EQ(half.quantize(-59.25), -59.5);  // tie at half a step, away from zero
}

TEST(RoundingConvention, IntegerDbmSurveyRoundTripsExactly) {
  // An integer-dBm survey (NoiseModel quantization_step_db = 1) whose
  // per-link range spans exactly 254 integer levels gives the tier
  // integer offsets and scale 1.0 -- every stored level then
  // dequantizes to the original integer with ZERO residual.  This is
  // the satellite guarantee: the two quantizers' shared ties-away
  // convention means integer readings never drift one LSB through the
  // chain NoiseModel -> survey -> tier -> dequantize.
  const std::size_t links = 4, grids = 257;
  NoiseModel reporting(NoiseConfig{.stddev_db = 0.0, .quantization_step_db = 1.0});
  Matrix fp(links, grids);
  Rng rng(7);
  for (std::size_t i = 0; i < links; ++i) {
    for (std::size_t j = 0; j < grids; ++j) {
      // Integer dBm in [-80 - 127, -80 + 127]; endpoints planted so the
      // half-range is exactly 127 around the snapped offset.
      const double raw = j == 0 ? -80.0 - 127.0
                                : (j == 1 ? -80.0 + 127.0
                                          : std::floor(-80.0 + rng.uniform(-127.0, 128.0)));
      fp(i, j) = reporting.quantize(raw);
      ASSERT_EQ(fp(i, j), std::round(fp(i, j)));  // integer by construction
    }
  }
  QuantizedTier tier;
  tier.rebuild(fp.view());
  ASSERT_TRUE(tier.ready());
  EXPECT_EQ(tier.scale(), 1.0);
  for (std::size_t i = 0; i < links; ++i) EXPECT_EQ(tier.offset(i), std::round(tier.offset(i)));
  for (std::size_t j = 0; j < grids; ++j) {
    for (std::size_t i = 0; i < links; ++i) {
      const double dequant = tier.offset(i) + static_cast<double>(tier.cell_data(j)[i]);
      EXPECT_EQ(dequant, fp(i, j)) << "LSB drift at " << i << "," << j;
    }
  }
  // Observation side of the same guarantee: integer readings quantize
  // with zero residual, so the matcher's error bound stays tight.
  std::vector<std::int8_t> values;
  std::vector<double> residual;
  for (std::size_t j = 0; j < 5; ++j) {
    tier.quantize_observation(fp.col(j), {}, values, residual);
    for (std::size_t i = 0; i < links; ++i) EXPECT_EQ(residual[i], 0.0);
  }
}

TEST(RoundingConvention, RequantizationIsStable) {
  // Quantize -> dequantize -> quantize must be a fixed point for any
  // scale (the "no off-by-one-LSB drift" half of the satellite).
  Rng rng(8);
  for (double scale : {1.0, 0.5, 0.37}) {
    for (int trial = 0; trial < 200; ++trial) {
      const double offset = std::round(rng.uniform(-90.0, -30.0));
      const double v = rng.uniform(-130.0, 130.0) * scale + offset;
      const std::int8_t q1 = QuantizedTier::quantize_level(v, offset, scale);
      const double dequant = offset + scale * static_cast<double>(q1);
      const std::int8_t q2 = QuantizedTier::quantize_level(dequant, offset, scale);
      EXPECT_EQ(q1, q2) << "scale=" << scale << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace tafloc
