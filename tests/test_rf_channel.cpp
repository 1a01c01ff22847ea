#include "tafloc/rf/channel.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tafloc/util/stats.h"

namespace tafloc {
namespace {

std::vector<Segment> two_links() {
  return {Segment{{0.0, 1.0}, {6.0, 1.0}}, Segment{{0.0, 2.0}, {6.0, 2.0}}};
}

TEST(Channel, RejectsEmptyLinkSet) {
  EXPECT_THROW(Channel({}, ChannelConfig{}, 1), std::invalid_argument);
}

TEST(Channel, RejectsZeroLengthLink) {
  std::vector<Segment> links{Segment{{1.0, 1.0}, {1.0, 1.0}}};
  EXPECT_THROW(Channel(std::move(links), ChannelConfig{}, 1), std::invalid_argument);
}

TEST(Channel, AmbientMatchesPathLossAtTimeZero) {
  const Channel ch(two_links(), ChannelConfig{}, 1);
  const LogDistancePathLoss pl;
  EXPECT_NEAR(ch.expected_rss(0, std::nullopt, 0.0), pl.rss_dbm(6.0), 1e-12);
}

TEST(Channel, TargetAlwaysAttenuates) {
  const Channel ch(two_links(), ChannelConfig{}, 2);
  const Point2 on_link{3.0, 1.0};
  EXPECT_LT(ch.expected_rss(0, on_link, 0.0), ch.expected_rss(0, std::nullopt, 0.0));
}

TEST(Channel, LosTargetCausesClearDecrease) {
  // The paper's "largely-distorted" premise: blocking the direct path
  // drops RSS well beyond the noise floor.
  const Channel ch(two_links(), ChannelConfig{}, 3);
  const double drop =
      ch.expected_rss(0, std::nullopt, 0.0) - ch.expected_rss(0, Point2{3.0, 1.0}, 0.0);
  EXPECT_GT(drop, 5.0);
}

TEST(Channel, FarTargetAffectsOnlyThroughGhosts) {
  // Far from the LoS the geometric shadowing vanishes; what remains is
  // the multipath ghost response, bounded by its configured amplitude.
  const Channel ch(two_links(), ChannelConfig{}, 4);
  const double drop =
      ch.expected_rss(0, std::nullopt, 0.0) - ch.expected_rss(0, Point2{3.0, 5.5}, 0.0);
  EXPECT_LE(std::abs(drop), ChannelConfig{}.multipath_ghost_db + 0.1);
}

TEST(Channel, FarTargetBarelyAffectsWithoutGhosts) {
  ChannelConfig cfg;
  cfg.multipath_ghost_db = 0.0;
  const Channel ch(two_links(), cfg, 4);
  const double drop =
      ch.expected_rss(0, std::nullopt, 0.0) - ch.expected_rss(0, Point2{3.0, 5.5}, 0.0);
  EXPECT_LT(std::abs(drop), 0.05);
}

TEST(Channel, DriftShiftsAmbientOverTime) {
  const Channel ch(two_links(), ChannelConfig{}, 5);
  const double t0 = ch.expected_rss(0, std::nullopt, 0.0);
  const double t45 = ch.expected_rss(0, std::nullopt, 45.0);
  EXPECT_NE(t0, t45);
  // Mean drift magnitude across links should be ~6 dB at 45 days.
  double mean_abs = 0.0;
  for (std::size_t i = 0; i < ch.num_links(); ++i)
    mean_abs += std::abs(ch.expected_rss(i, std::nullopt, 45.0) -
                         ch.expected_rss(i, std::nullopt, 0.0));
  mean_abs /= static_cast<double>(ch.num_links());
  EXPECT_NEAR(mean_abs, 6.0, 1e-9);
}

TEST(Channel, MeasurementNoiseHasConfiguredSpread) {
  ChannelConfig cfg;
  cfg.noise.stddev_db = 1.2;
  const Channel ch(two_links(), cfg, 6);
  Rng rng(7);
  RunningStats st;
  for (int i = 0; i < 10000; ++i) st.add(ch.measure(0, std::nullopt, 0.0, rng));
  EXPECT_NEAR(st.mean(), ch.expected_rss(0, std::nullopt, 0.0), 0.05);
  EXPECT_NEAR(st.stddev(), 1.2, 0.05);
}

TEST(Channel, MeasureMeanConvergesToExpected) {
  const Channel ch(two_links(), ChannelConfig{}, 8);
  Rng rng(9);
  const double mean100 = ch.measure_mean(0, Point2{2.0, 1.3}, 0.0, 2000, rng);
  EXPECT_NEAR(mean100, ch.expected_rss(0, Point2{2.0, 1.3}, 0.0), 0.1);
}

TEST(Channel, MeasureMeanRejectsZeroSamples) {
  const Channel ch(two_links(), ChannelConfig{}, 10);
  Rng rng(1);
  EXPECT_THROW(ch.measure_mean(0, std::nullopt, 0.0, 0, rng), std::invalid_argument);
}

TEST(Channel, RejectsBadLinkIndex) {
  const Channel ch(two_links(), ChannelConfig{}, 11);
  Rng rng(1);
  EXPECT_THROW(ch.expected_rss(2, std::nullopt, 0.0), std::out_of_range);
  EXPECT_THROW(ch.link(2), std::out_of_range);
}

TEST(Channel, DeterministicAcrossInstances) {
  const Channel a(two_links(), ChannelConfig{}, 12);
  const Channel b(two_links(), ChannelConfig{}, 12);
  EXPECT_DOUBLE_EQ(a.expected_rss(1, Point2{1.0, 1.5}, 30.0),
                   b.expected_rss(1, Point2{1.0, 1.5}, 30.0));
}

TEST(Channel, AttenuationDriftChangesTargetEffectOverTime) {
  // The target-induced part of the fingerprint is NOT a pure row offset:
  // its magnitude wanders with time (what LoLi-IR's priors must absorb).
  const Channel ch(two_links(), ChannelConfig{}, 13);
  const Point2 target{3.0, 1.0};
  const double effect_0 =
      ch.expected_rss(0, std::nullopt, 0.0) - ch.expected_rss(0, target, 0.0);
  const double effect_90 =
      ch.expected_rss(0, std::nullopt, 90.0) - ch.expected_rss(0, target, 90.0);
  EXPECT_NE(effect_0, effect_90);
}

TEST(Channel, PerturbationZeroAtTimeZero) {
  const Channel ch(two_links(), ChannelConfig{}, 20);
  EXPECT_DOUBLE_EQ(ch.perturbation_db(0, {3.0, 1.0}, 0.0), 0.0);
}

TEST(Channel, PerturbationAmplitudeGrowsWithTime) {
  const Channel ch(two_links(), ChannelConfig{}, 21);
  // Sample the field widely; its max amplitude must follow the power law.
  auto max_abs_at = [&](double t) {
    double m = 0.0;
    for (double x = 0.0; x <= 6.0; x += 0.25)
      for (double y = 0.0; y <= 3.0; y += 0.25)
        m = std::max(m, std::abs(ch.perturbation_db(0, {x, y}, t)));
    return m;
  };
  const double a15 = max_abs_at(15.0);
  const double a90 = max_abs_at(90.0);
  EXPECT_GT(a90, a15);
  EXPECT_LE(a90, ChannelConfig{}.perturbation.at_45_days_db * std::pow(2.0, 0.5) + 1e-9);
}

TEST(Channel, PerturbationBoundedByConfiguredAmplitude) {
  ChannelConfig cfg;
  cfg.perturbation.at_45_days_db = 1.0;
  const Channel ch(two_links(), cfg, 22);
  for (double x = 0.0; x <= 6.0; x += 0.5)
    EXPECT_LE(std::abs(ch.perturbation_db(0, {x, 1.5}, 45.0)), 1.0 + 1e-12);
}

TEST(Channel, TargetResponseNonNegativeNearLos) {
  const Channel ch(two_links(), ChannelConfig{}, 23);
  for (double t : {0.0, 45.0, 90.0}) {
    const double resp = ch.target_response_db(0, {3.0, 1.0}, t);
    EXPECT_GT(resp, 2.0);  // LoS blockage always dominates the ripple
  }
}

TEST(Channel, SensitivitySpreadWithinBounds) {
  // Responses across links to the same on-LoS geometry differ by at
  // most the configured spread (plus ripple).
  ChannelConfig cfg;
  cfg.static_ripple_db = 0.0;
  cfg.multipath_ghost_db = 0.0;
  cfg.link_sensitivity_spread = 0.3;
  const Channel ch(two_links(), cfg, 26);
  const double r0 = ch.target_response_db(0, {3.0, 1.0}, 0.0);
  const double r1 = ch.target_response_db(1, {3.0, 2.0}, 0.0);
  const double base = 11.0;  // phi 8 + LoS block 3
  EXPECT_GE(r0, base * 0.7 - 1e-9);
  EXPECT_LE(r0, base * 1.3 + 1e-9);
  EXPECT_GE(r1, base * 0.7 - 1e-9);
  EXPECT_LE(r1, base * 1.3 + 1e-9);
}

TEST(Channel, GhostsActFarFromLos) {
  ChannelConfig cfg;
  cfg.multipath_ghost_db = 3.0;
  const Channel ch(two_links(), cfg, 27);
  // Find some far position where the ghost field is non-trivial.
  double best = 0.0;
  for (double x = 0.5; x < 6.0; x += 0.5) {
    const double resp = std::abs(ch.target_response_db(0, {x, 5.5}, 0.0));
    best = std::max(best, resp);
  }
  EXPECT_GT(best, 0.5);
  EXPECT_LE(best, 3.0 + 0.1);
}

TEST(Channel, RejectsBadExtendedConfig) {
  ChannelConfig cfg;
  cfg.link_sensitivity_spread = 1.0;
  EXPECT_THROW(Channel(two_links(), cfg, 1), std::invalid_argument);
  cfg = ChannelConfig{};
  cfg.static_ripple_db = -1.0;
  EXPECT_THROW(Channel(two_links(), cfg, 1), std::invalid_argument);
  cfg = ChannelConfig{};
  cfg.perturbation.spatial_period_m = 0.0;
  EXPECT_THROW(Channel(two_links(), cfg, 1), std::invalid_argument);
}

TEST(Channel, AccessorsExposeComponents) {
  const Channel ch(two_links(), ChannelConfig{}, 14);
  EXPECT_EQ(ch.num_links(), 2u);
  EXPECT_EQ(ch.links().size(), 2u);
  EXPECT_DOUBLE_EQ(ch.link(0).length(), 6.0);
  EXPECT_EQ(ch.drift().num_links(), 2u);
}

}  // namespace
}  // namespace tafloc
