#include "tafloc/tafloc/scheduler.h"

#include <gtest/gtest.h>

#include <limits>
#include <string_view>

#include "tafloc/sim/scenario.h"
#include "tafloc/storage/codec.h"
#include "tafloc/telemetry/metrics.h"
#include "tafloc/tafloc/system.h"

namespace tafloc {
namespace {

TEST(UpdateScheduler, NoTriggerBelowThreshold) {
  UpdateScheduler sched(Vector{-30.0, -40.0}, 0.0);
  const std::vector<double> ambient{-30.5, -40.5};  // 0.5 dB drift
  EXPECT_FALSE(sched.observe_ambient(ambient, 10.0));
  EXPECT_NEAR(sched.estimated_staleness_db(), 0.5, 1e-12);
}

TEST(UpdateScheduler, TriggersAboveThreshold) {
  SchedulerConfig cfg;
  cfg.staleness_threshold_db = 3.0;
  UpdateScheduler sched(Vector{-30.0, -40.0}, 0.0, cfg);
  const std::vector<double> drifted{-34.0, -44.0};  // 4 dB drift
  EXPECT_TRUE(sched.observe_ambient(drifted, 10.0));
}

TEST(UpdateScheduler, MinIntervalSuppressesEarlyTrigger) {
  SchedulerConfig cfg;
  cfg.min_interval_days = 5.0;
  UpdateScheduler sched(Vector{-30.0}, 0.0, cfg);
  const std::vector<double> drifted{-40.0};  // way above threshold
  EXPECT_FALSE(sched.observe_ambient(drifted, 2.0));  // too soon
  EXPECT_TRUE(sched.observe_ambient(drifted, 6.0));
}

TEST(UpdateScheduler, MaxIntervalForcesUpdate) {
  SchedulerConfig cfg;
  cfg.staleness_threshold_db = 100.0;  // never triggered by drift
  cfg.max_interval_days = 30.0;
  UpdateScheduler sched(Vector{-30.0}, 0.0, cfg);
  const std::vector<double> quiet{-30.0};
  EXPECT_FALSE(sched.observe_ambient(quiet, 29.0));
  EXPECT_TRUE(sched.observe_ambient(quiet, 30.0));
}

TEST(UpdateScheduler, NotifyUpdatedResetsBaselineAndClock) {
  SchedulerConfig cfg;
  cfg.staleness_threshold_db = 3.0;
  UpdateScheduler sched(Vector{-30.0}, 0.0, cfg);
  const std::vector<double> drifted{-35.0};
  EXPECT_TRUE(sched.observe_ambient(drifted, 10.0));

  sched.notify_updated(Vector{-35.0}, 10.0);
  EXPECT_DOUBLE_EQ(sched.last_update_days(), 10.0);
  EXPECT_DOUBLE_EQ(sched.estimated_staleness_db(), 0.0);
  // Same ambient is now the baseline: no trigger.
  EXPECT_FALSE(sched.observe_ambient(drifted, 20.0));
}

TEST(UpdateScheduler, RejectsBadArguments) {
  EXPECT_THROW(UpdateScheduler(Vector{}, 0.0), std::invalid_argument);
  SchedulerConfig cfg;
  cfg.staleness_threshold_db = 0.0;
  EXPECT_THROW(UpdateScheduler(Vector{1.0}, 0.0, cfg), std::invalid_argument);
  cfg = SchedulerConfig{};
  cfg.max_interval_days = cfg.min_interval_days;
  EXPECT_THROW(UpdateScheduler(Vector{1.0}, 0.0, cfg), std::invalid_argument);

  UpdateScheduler sched(Vector{1.0}, 5.0);
  const std::vector<double> wrong{1.0, 2.0};
  EXPECT_THROW(sched.observe_ambient(wrong, 6.0), std::invalid_argument);
}

TEST(UpdateScheduler, SetConfigRejectsWhatTheConstructorRejects) {
  // A live reconfiguration must not install thresholds a restart would
  // refuse; a rejected config leaves the old one in force.
  UpdateScheduler sched(Vector{1.0}, 0.0);
  SchedulerConfig bad;
  bad.staleness_threshold_db = 0.0;
  EXPECT_THROW(sched.set_config(bad), std::invalid_argument);
  bad = SchedulerConfig{};
  bad.min_interval_days = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sched.set_config(bad), std::invalid_argument);
  bad = SchedulerConfig{};
  bad.max_interval_days = bad.min_interval_days;
  EXPECT_THROW(sched.set_config(bad), std::invalid_argument);
  EXPECT_EQ(sched.config().staleness_threshold_db, SchedulerConfig{}.staleness_threshold_db);
  EXPECT_EQ(sched.config().min_interval_days, SchedulerConfig{}.min_interval_days);

  SchedulerConfig good;
  good.staleness_threshold_db = 9.5;
  sched.set_config(good);
  EXPECT_EQ(sched.config().staleness_threshold_db, 9.5);
}

TEST(UpdateScheduler, DropsOutOfOrderAndUnusableSamples) {
  SchedulerConfig cfg;
  cfg.staleness_threshold_db = 3.0;
  UpdateScheduler sched(Vector{-30.0, -30.0}, 5.0, cfg);
  const std::vector<double> drifted{-35.0, -35.0};
  EXPECT_TRUE(sched.observe_ambient(drifted, 15.0));
  const double staleness = sched.estimated_staleness_db();

  // A late sample must not kill the process, advance the clock, or
  // disturb the staleness estimate -- just be counted and dropped.
  const std::vector<double> stale{-90.0, -90.0};
  EXPECT_FALSE(sched.observe_ambient(stale, 4.0));
  EXPECT_EQ(sched.dropped_observations(), 1u);
  EXPECT_DOUBLE_EQ(sched.estimated_staleness_db(), staleness);
  EXPECT_TRUE(sched.observe_ambient(drifted, 15.0));  // clock did not move back

  // A scan with no finite entry carries no information: dropped too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> all_bad{nan, nan};
  EXPECT_FALSE(sched.observe_ambient(all_bad, 16.0));
  EXPECT_EQ(sched.dropped_observations(), 2u);

  // A partially-NaN scan averages over the finite links only: one link
  // at 6 dB drift (NaN on the other) reads 6 dB, not 3.
  const std::vector<double> half_bad{-36.0, nan};
  EXPECT_TRUE(sched.observe_ambient(half_bad, 17.0));
  EXPECT_DOUBLE_EQ(sched.estimated_staleness_db(), 6.0);
}

TEST(UpdateScheduler, SplitDropCountersDistinguishReasons) {
  UpdateScheduler sched(Vector{-30.0, -30.0}, 5.0);
  sched.observe_ambient(std::vector<double>{-31.0, -31.0}, 10.0);
  // Two clock problems, one dead-radio scan.
  sched.observe_ambient(std::vector<double>{-32.0, -32.0}, 7.0);
  sched.observe_ambient(std::vector<double>{-32.0, -32.0}, 8.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  sched.observe_ambient(std::vector<double>{nan, nan}, 11.0);
  EXPECT_EQ(sched.dropped_out_of_order(), 2u);
  EXPECT_EQ(sched.dropped_nan(), 1u);
  EXPECT_EQ(sched.dropped_observations(), 3u);  // total = sum of the reasons.
}

TEST(UpdateScheduler, SplitDropCountersReachTelemetrySnapshot) {
  MetricRegistry registry;  // enabled by default.
  UpdateScheduler sched(Vector{-30.0, -30.0}, 5.0);
  sched.attach_telemetry(&registry);
  sched.observe_ambient(std::vector<double>{-31.0, -31.0}, 10.0);
  sched.observe_ambient(std::vector<double>{-32.0, -32.0}, 7.0);  // out of order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  sched.observe_ambient(std::vector<double>{nan, nan}, 11.0);  // no finite entry.

  const std::string json = registry.snapshot_json();
  EXPECT_NE(json.find("\"scheduler.dropped_out_of_order\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler.dropped_nan\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler.dropped_observations\""), std::string::npos);
}

TEST(UpdateScheduler, SaveRestoreRoundTripsAdaptiveState) {
  SchedulerConfig cfg;
  cfg.staleness_threshold_db = 2.5;
  cfg.min_interval_days = 0.5;
  cfg.max_interval_days = 60.0;
  UpdateScheduler sched(Vector{-30.0, -31.0, -32.0}, 5.0, cfg);
  sched.observe_ambient(std::vector<double>{-33.0, -33.0, -33.0}, 9.0);
  sched.observe_ambient(std::vector<double>{-33.0, -33.0, -33.0}, 7.0);  // dropped.

  storage::ByteWriter w;
  sched.save(w);
  UpdateScheduler restored(Vector{0.0}, 0.0);  // overwritten by restore().
  storage::ByteReader r(w.bytes());
  restored.restore(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(restored == sched);
  EXPECT_DOUBLE_EQ(restored.estimated_staleness_db(), sched.estimated_staleness_db());
  EXPECT_EQ(restored.dropped_out_of_order(), 1u);
  EXPECT_EQ(restored.config().max_interval_days, 60.0);

  // The restored instance continues exactly where the original was.
  const std::vector<double> next{-26.0, -26.0, -26.0};
  EXPECT_EQ(restored.observe_ambient(next, 12.0), sched.observe_ambient(next, 12.0));
  EXPECT_TRUE(restored == sched);
}

TEST(UpdateScheduler, RestoreRejectsMalformedPayload) {
  UpdateScheduler sched(Vector{-30.0}, 0.0);
  storage::ByteWriter w;
  sched.save(w);
  const std::string bytes = w.take();
  UpdateScheduler victim(Vector{-40.0}, 1.0);
  storage::ByteReader r(std::string_view(bytes).substr(0, bytes.size() / 2));
  EXPECT_THROW(victim.restore(r), std::runtime_error);
}

/// A hand-built restore payload in save()'s exact field order, with the
/// clock / config fields chosen by the test.
std::string scheduler_payload(double updated_at, double last_observation, double staleness,
                              double threshold = 3.0, double min_interval = 1.0,
                              double max_interval = 45.0) {
  storage::ByteWriter w;
  w.put_f64_span(std::vector<double>{-30.0, -31.0});
  w.put_f64(updated_at);
  w.put_f64(last_observation);
  w.put_f64(staleness);
  w.put_u64(0);  // dropped
  w.put_u64(0);  // dropped_out_of_order
  w.put_u64(0);  // dropped_nan
  w.put_f64(threshold);
  w.put_f64(min_interval);
  w.put_f64(max_interval);
  return w.take();
}

TEST(UpdateScheduler, RestoreRejectsNonFiniteFields) {
  // A NaN last_observation_ silently disables the out-of-order drop
  // (every `t_days < last_observation_` is false), so corruption in any
  // clock field must be a hard restore error, not accepted state.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::string payloads[] = {
      scheduler_payload(nan, 5.0, 0.0),         // NaN updated_at
      scheduler_payload(2.0, nan, 0.0),         // NaN last_observation
      scheduler_payload(2.0, 5.0, nan),         // NaN staleness
      scheduler_payload(2.0, 5.0, 0.0, inf),    // inf threshold
      scheduler_payload(2.0, 5.0, 0.0, 3.0, nan),  // NaN min interval
      scheduler_payload(2.0, 5.0, 0.0, 3.0, 1.0, inf),  // inf max interval
  };
  for (const std::string& bytes : payloads) {
    UpdateScheduler victim(Vector{-40.0}, 1.0);
    const UpdateScheduler untouched(Vector{-40.0}, 1.0);
    storage::ByteReader r(bytes);
    EXPECT_THROW(victim.restore(r), std::runtime_error);
    // A rejected payload must leave the scheduler bitwise as it was.
    EXPECT_TRUE(victim == untouched);
  }
}

TEST(UpdateScheduler, RestoreRejectsInconsistentClocks) {
  const std::string payloads[] = {
      scheduler_payload(5.0, 2.0, 0.0),   // observation predates the update
      scheduler_payload(-1.0, 2.0, 0.0),  // negative update time
      scheduler_payload(2.0, 5.0, -0.5),  // negative staleness
      scheduler_payload(2.0, 5.0, 0.0, 0.0),            // threshold not positive
      scheduler_payload(2.0, 5.0, 0.0, 3.0, -1.0),      // negative min interval
      scheduler_payload(2.0, 5.0, 0.0, 3.0, 5.0, 5.0),  // max == min
  };
  for (const std::string& bytes : payloads) {
    UpdateScheduler victim(Vector{-40.0}, 1.0);
    const UpdateScheduler untouched(Vector{-40.0}, 1.0);
    storage::ByteReader r(bytes);
    EXPECT_THROW(victim.restore(r), std::runtime_error);
    EXPECT_TRUE(victim == untouched);
  }
  // The boundary case last_observation_ == updated_at_ is the state
  // notify_updated() itself produces; it must restore fine.
  UpdateScheduler ok(Vector{-40.0}, 1.0);
  const std::string boundary = scheduler_payload(5.0, 5.0, 0.0);
  storage::ByteReader r(boundary);
  ok.restore(r);
  EXPECT_DOUBLE_EQ(ok.last_update_days(), 5.0);
  EXPECT_DOUBLE_EQ(ok.last_observation_days(), 5.0);
}

TEST(UpdateScheduler, AdaptiveBehaviourOnSimulatedDrift) {
  // On the simulated room the ambient drifts with the power law; the
  // scheduler should stay quiet early and trigger once mean drift
  // crosses its threshold -- i.e. the trigger day tracks g(t).
  const Scenario s = Scenario::paper_room(5);
  Rng rng(5);
  SchedulerConfig cfg;
  cfg.staleness_threshold_db = 3.0;
  cfg.max_interval_days = 365.0;
  UpdateScheduler sched(s.collector().ambient_scan(0.0, rng), 0.0, cfg);

  double triggered_at = -1.0;
  for (double t = 2.0; t <= 90.0; t += 2.0) {
    if (sched.observe_ambient(s.collector().ambient_scan(t, rng), t)) {
      triggered_at = t;
      break;
    }
  }
  // g(t) = 2.5 (t/5)^0.398 crosses 3.0 dB around t ~ 8 days; noise in
  // the scan shifts it a little.
  ASSERT_GT(triggered_at, 0.0);
  EXPECT_GT(triggered_at, 3.0);
  EXPECT_LT(triggered_at, 30.0);
}

TEST(UpdateScheduler, EndToEndWithTafLocSystem) {
  const Scenario s = Scenario::paper_room(6);
  Rng rng(6);
  TafLocSystem system(s.deployment());
  system.calibrate(s.collector().survey_all(0.0, rng), s.collector().ambient_scan(0.0, rng),
                   0.0);
  UpdateScheduler sched(Vector(s.collector().ambient_scan(0.0, rng)), 0.0);

  std::size_t updates = 0;
  for (double t = 5.0; t <= 90.0; t += 5.0) {
    Vector ambient = s.collector().ambient_scan(t, rng);
    if (sched.observe_ambient(ambient, t)) {
      system.update_with_collector(s.collector(), t, rng);
      sched.notify_updated(std::move(ambient), t);
      ++updates;
    }
  }
  EXPECT_GE(updates, 1u);
  EXPECT_LE(updates, 10u);
  // The database must not be older than the scheduler's max interval.
  EXPECT_GE(system.database().surveyed_at_days(), 90.0 - sched.config().max_interval_days);
}

}  // namespace
}  // namespace tafloc
