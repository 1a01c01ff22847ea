// Fault injection, two regimes:
//
//  - strict paths: corrupted measurements (NaN / infinity / absurd
//    magnitudes) must surface as exceptions or explicit non-convergence
//    -- never as silently wrong localization output;
//  - degraded paths: with a LinkHealth mask in the loop, the serving
//    pipeline (localize_degraded, masked matchers, row_observed
//    reconstruction) must survive the same faults without aborting and
//    with bounded accuracy loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tafloc/linalg/cholesky.h"
#include "tafloc/linalg/svd.h"
#include "tafloc/loc/matcher.h"
#include "tafloc/loc/presence.h"
#include "tafloc/recon/loli_ir.h"
#include "tafloc/recon/svt.h"
#include "tafloc/sim/fault.h"
#include "tafloc/sim/scenario.h"
#include "tafloc/tafloc/system.h"
#include "tafloc/util/stats.h"

namespace tafloc {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FaultInjection, SvdOfNanMatrixThrowsRatherThanReturningGarbage) {
  Matrix a(4, 4, 1.0);
  a(1, 2) = kNan;
  EXPECT_THROW(svd_decompose(a), std::invalid_argument);
  a(1, 2) = kInf;
  EXPECT_THROW(svd_decompose(a), std::invalid_argument);
}

TEST(FaultInjection, CholeskyOfNanMatrixThrows) {
  Matrix a = Matrix::identity(3);
  a(1, 1) = kNan;
  EXPECT_THROW(cholesky_factor(a), std::invalid_argument);
}

TEST(FaultInjection, MatchersRejectNanObservations) {
  const GridMap grid(1.8, 0.6, 0.6);
  const Matrix fp = Matrix::from_rows({{-30.0, -40.0, -50.0}});
  const std::vector<double> y{kNan};
  EXPECT_THROW(KnnMatcher(fp, grid, 2).localize(y), std::invalid_argument);
  EXPECT_THROW(KnnMatcher(fp, grid, 1).localize(y), std::invalid_argument);
}

TEST(FaultInjection, PresencePipelineFlagsAbsurdObservation) {
  // A receiver fault reporting +inf RSS shows up as an enormous
  // presence score -- the natural guard point for real deployments.
  const Scenario s = Scenario::paper_room(3);
  Rng rng(3);
  Vector ambient = s.collector().ambient_scan(0.0, rng);
  const std::size_t m = ambient.size();
  PresenceDetector det(std::move(ambient));
  for (int i = 0; i < 6; ++i) det.calibrate_empty(s.collector().observe_ambient(0.0, rng));
  Vector faulty(m, -40.0);
  faulty[2] = kInf;
  EXPECT_TRUE(std::isinf(det.score(faulty)));
}

TEST(FaultInjection, LoliIrRejectsNanMaskEntries) {
  const Scenario s = Scenario::paper_room(4);
  Rng rng(4);
  const Matrix x0 = s.collector().survey_all(0.0, rng);
  const Vector amb = s.collector().ambient_scan(0.0, rng);
  const DistortionMask mask = DistortionDetector().detect_from_data(x0, amb);

  LoliIrProblem p;
  p.mask_undistorted = mask.undistorted;
  p.mask_undistorted(0, 0) = kNan;  // corrupt
  p.known = known_entry_matrix(mask, amb);
  p.prediction = x0;
  p.reference_columns = x0.select_columns(std::vector<std::size_t>{0});
  p.reference_indices = {0};
  EXPECT_THROW(loli_ir_reconstruct(p), std::invalid_argument);
}

TEST(FaultInjection, SystemRejectsWrongSizedRealtimeVector) {
  const Scenario s = Scenario::paper_room(5);
  Rng rng(5);
  TafLocSystem system(s.deployment());
  system.calibrate(s.collector().survey_all(0.0, rng), s.collector().ambient_scan(0.0, rng),
                   0.0);
  const std::vector<double> too_short(5, -40.0);
  EXPECT_THROW(system.localize(too_short), std::invalid_argument);
  const std::vector<double> too_long(20, -40.0);
  EXPECT_THROW(system.localize(too_long), std::invalid_argument);
}

TEST(FaultInjection, RunningStatsPropagateNanVisibly) {
  // A NaN observation must poison the mean (visible), not vanish.
  RunningStats st;
  st.add(1.0);
  st.add(kNan);
  EXPECT_TRUE(std::isnan(st.mean()));
}

// ---------------- degraded-mode serving ----------------

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

TEST(DegradedServing, AllHealthyPathIsBitIdenticalToLocalize) {
  const Scenario s = Scenario::paper_room(21);
  Rng rng(21);
  TafLocSystem system(s.deployment());
  system.calibrate(s.collector().survey_all(0.0, rng), s.collector().ambient_scan(0.0, rng),
                   0.0);
  for (int q = 0; q < 10; ++q) {
    const Point2 truth{1.0 + 0.3 * q, 2.0};
    const Vector rss = s.collector().observe(truth, 0.0, rng);
    const Point2 strict = system.localize(rss);
    const auto degraded = system.localize_degraded(rss);
    EXPECT_EQ(strict.x, degraded.point.x);
    EXPECT_EQ(strict.y, degraded.point.y);
    EXPECT_FALSE(degraded.degraded);
    EXPECT_TRUE(degraded.served);
    EXPECT_EQ(degraded.links_used, s.deployment().num_links());
    EXPECT_DOUBLE_EQ(degraded.confidence, 1.0);
  }
}

TEST(DegradedServing, SurvivesThirtyPercentDeadLinksWithBoundedError) {
  const Scenario s = Scenario::paper_room(22);
  const std::size_t m = s.deployment().num_links();

  // Two identical systems; one serves clean readings, one serves the
  // same readings through a 30%-dead fault schedule.
  Rng rng(22);
  TafLocSystem clean(s.deployment());
  TafLocSystem faulty(s.deployment());
  {
    const Matrix survey = s.collector().survey_all(0.0, rng);
    Vector amb = s.collector().ambient_scan(0.0, rng);
    clean.calibrate(survey, Vector(amb), 0.0);
    faulty.calibrate(survey, std::move(amb), 0.0);
  }

  FaultConfig faults;
  faults.dead_fraction = 0.3;
  FaultInjector injector(m, faults, 23);

  Rng targets = rng.fork();
  std::vector<double> clean_err, faulty_err;
  for (int q = 0; q < 150; ++q) {
    const Point2 truth{targets.uniform(0.0, s.deployment().grid().width()),
                       targets.uniform(0.0, s.deployment().grid().height())};
    const Vector rss = s.collector().observe(truth, 0.0, rng);
    Vector corrupted = rss;
    injector.apply(corrupted);

    clean_err.push_back(distance(clean.localize(rss), truth));
    const auto result = faulty.localize_degraded(corrupted);  // must not throw
    ASSERT_TRUE(result.served);
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.links_used, m - injector.dead_links().size());
    faulty_err.push_back(distance(result.point, truth));
  }
  EXPECT_EQ(faulty.link_health().dead_count(), injector.dead_links().size());

  // Acceptance bound: median degraded error within 2x the fault-free
  // baseline (small additive slack keeps the bound meaningful when the
  // clean median is tiny).
  const double clean_median = median_of(clean_err);
  const double faulty_median = median_of(faulty_err);
  EXPECT_LE(faulty_median, 2.0 * clean_median + 0.05)
      << "clean median " << clean_median << " m, degraded median " << faulty_median << " m";
}

TEST(DegradedServing, AllLinksDeadIsUnservableNotFatal) {
  const Scenario s = Scenario::paper_room(24);
  Rng rng(24);
  TafLocSystem system(s.deployment());
  system.calibrate(s.collector().survey_all(0.0, rng), s.collector().ambient_scan(0.0, rng),
                   0.0);
  const Vector all_nan(s.deployment().num_links(), kNan);
  const auto result = system.localize_degraded(all_nan);
  EXPECT_FALSE(result.served);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.links_used, 0u);
  EXPECT_DOUBLE_EQ(result.confidence, 0.0);
  // The answer carries no signal but must still be a point in the area.
  EXPECT_GE(result.point.x, 0.0);
  EXPECT_LE(result.point.x, s.deployment().grid().width());
  // The strict path still enforces its contract.
  EXPECT_THROW(system.localize(all_nan), std::invalid_argument);
}

TEST(DegradedServing, UpdateCompletesWithDeadLinksAndStaysFinite) {
  const Scenario s = Scenario::paper_room(25);
  Rng rng(25);
  TafLocSystem system(s.deployment());
  system.calibrate(s.collector().survey_all(0.0, rng), s.collector().ambient_scan(0.0, rng),
                   0.0);
  const std::size_t m = s.deployment().num_links();

  // Fresh survey data arrives with two links reporting NaN everywhere.
  Matrix fresh = s.collector().survey_grids(system.reference_locations(), 20.0, rng);
  Vector ambient = s.collector().ambient_scan(20.0, rng);
  for (std::size_t i : {std::size_t{1}, m - 1}) {
    ambient[i] = kNan;
    for (std::size_t j = 0; j < fresh.cols(); ++j) fresh(i, j) = kNan;
  }

  const auto report = system.update(fresh, std::move(ambient), 20.0);  // must not throw
  EXPECT_EQ(system.link_health().dead_count(), 2u);
  EXPECT_FALSE(system.link_health().usable(1));
  for (double v : system.database().fingerprints().data()) EXPECT_TRUE(std::isfinite(v));
  for (double v : system.database().ambient()) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(report.solver.outer_iterations, 0u);

  // The refreshed system still serves degraded queries.
  Vector rss = s.collector().observe({2.0, 2.0}, 20.0, rng);
  rss[1] = kNan;
  rss[m - 1] = kNan;
  const auto result = system.localize_degraded(rss);
  EXPECT_TRUE(result.served);
  EXPECT_EQ(result.links_used, m - 2);
}

TEST(DegradedServing, MaskedMatchersIgnoreDeadLinkGarbage) {
  // Two links; link 1 carries garbage that inverts the match unless it
  // is masked out.  Columns: grid 0 = (-30, 0), grid 1 = (-50, -999).
  const GridMap grid(1.2, 0.6, 0.6);
  const Matrix fp = Matrix::from_rows({{-30.0, -50.0}, {0.0, -999.0}});
  LinkHealth health(2);
  health.mark_dead(1);

  const std::vector<double> y{-49.0, kNan};  // near grid 1 on the live link
  KnnMatcher knn(fp, grid, 1);
  EXPECT_THROW(knn.localize(y), std::invalid_argument);  // strict path still throws
  knn.attach_link_health(&health);
  EXPECT_EQ(knn.nearest_grids(y), std::vector<std::size_t>{1});
  MatchStats stats;
  const Point2 p = knn.localize(y, &stats);
  EXPECT_EQ(stats.links_used, 1u);
  EXPECT_DOUBLE_EQ(p.x, grid.center(1).x);
}

TEST(DegradedServing, LoliIrRowObservedEmptyAndAllOnesAreBitIdentical) {
  const Scenario s = Scenario::paper_room(26);
  Rng rng(26);
  const Matrix x0 = s.collector().survey_all(0.0, rng);
  const Vector amb = s.collector().ambient_scan(0.0, rng);
  const DistortionMask mask = DistortionDetector().detect_from_data(x0, amb);
  const std::vector<std::size_t> refs{0, 3, 7};

  LoliIrProblem p;
  p.mask_undistorted = mask.undistorted;
  p.known = known_entry_matrix(mask, amb);
  p.prediction = x0;
  p.reference_columns = x0.select_columns(refs);
  p.reference_indices = refs;

  const LoliIrResult base = loli_ir_reconstruct(p);
  p.row_observed.assign(x0.rows(), 1);
  const LoliIrResult all_ones = loli_ir_reconstruct(p);
  ASSERT_EQ(base.x.rows(), all_ones.x.rows());
  for (std::size_t i = 0; i < base.x.size(); ++i)
    EXPECT_EQ(base.x.data()[i], all_ones.x.data()[i]);
}

TEST(DegradedServing, LoliIrExcludesDeadRowsFromAnchors) {
  // A dead row full of garbage "known" entries must not anchor the
  // reconstruction when row_observed masks it out.
  const Scenario s = Scenario::paper_room(27);
  Rng rng(27);
  const Matrix x0 = s.collector().survey_all(0.0, rng);
  const Vector amb = s.collector().ambient_scan(0.0, rng);
  const DistortionMask mask = DistortionDetector().detect_from_data(x0, amb);
  const std::vector<std::size_t> refs{0, 3, 7};

  LoliIrProblem p;
  p.mask_undistorted = mask.undistorted;
  p.known = known_entry_matrix(mask, amb);
  p.prediction = x0;
  p.reference_columns = x0.select_columns(refs);
  p.reference_indices = refs;
  p.row_observed.assign(x0.rows(), 1);
  p.row_observed[2] = 0;
  // Poison the dead row's inputs the way a dead radio would.
  for (std::size_t j = 0; j < p.known.cols(); ++j) p.known(2, j) = kNan;
  for (std::size_t j = 0; j < p.reference_columns.cols(); ++j)
    p.reference_columns(2, j) = kNan;
  // The caller-patches-prediction contract: dead rows of the prediction
  // hold the previous fingerprints (already true: prediction = x0).

  const LoliIrResult r = loli_ir_reconstruct(p);
  for (double v : r.x.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(DegradedServing, SvtRowObservedMasksDeadRows) {
  // Rank-1 matrix, one row dead with NaN garbage: the masked solve must
  // stay finite and recover the healthy structure.
  const std::size_t m = 6, n = 8;
  Matrix truth(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      truth(i, j) = (1.0 + static_cast<double>(i)) * (1.0 + 0.5 * static_cast<double>(j));
  Matrix known = truth;
  Matrix mask(m, n, 1.0);
  for (std::size_t j = 0; j < n; ++j) known(3, j) = kNan;

  SvtOptions opt;
  opt.row_observed.assign(m, 1);
  opt.row_observed[3] = 0;
  const SvtResult r = svt_complete(known, mask, opt);
  for (double v : r.x.data()) EXPECT_TRUE(std::isfinite(v));

  // And the empty / all-ones configurations agree bit-for-bit.
  Matrix clean = truth;
  SvtOptions none;
  const SvtResult base = svt_complete(clean, mask, none);
  SvtOptions ones;
  ones.row_observed.assign(m, 1);
  const SvtResult same = svt_complete(clean, mask, ones);
  ASSERT_EQ(base.iterations, same.iterations);
  for (std::size_t i = 0; i < base.x.size(); ++i)
    EXPECT_EQ(base.x.data()[i], same.x.data()[i]);
}

TEST(DegradedServing, TelemetryCountsDegradedQueries) {
  const Scenario s = Scenario::paper_room(28);
  Rng rng(28);
  TafLocSystem system(s.deployment());
  system.calibrate(s.collector().survey_all(0.0, rng), s.collector().ambient_scan(0.0, rng),
                   0.0);
  Vector rss = s.collector().observe({1.0, 1.0}, 0.0, rng);
  system.localize_degraded(rss);  // healthy
  rss[0] = kNan;
  system.localize_degraded(rss);  // degraded
  const std::string json = system.telemetry_snapshot_json();
  EXPECT_NE(json.find("system.degraded_queries"), std::string::npos);
  EXPECT_NE(json.find("system.links_dead"), std::string::npos);
  EXPECT_NE(json.find("system.degraded_fraction"), std::string::npos);
  // One degraded query out of two, served with link 0 dead and the
  // other nine alive.
  MetricRegistry& reg = system.telemetry();
  EXPECT_EQ(reg.counter("system.degraded_queries").value(), 1u);
  EXPECT_EQ(reg.gauge("system.links_dead").value(), 1.0);
  EXPECT_EQ(reg.gauge("system.links_alive").value(), 9.0);
  EXPECT_EQ(reg.gauge("system.degraded_fraction").value(), 0.5);
}

}  // namespace
}  // namespace tafloc
