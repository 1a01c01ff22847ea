// Zone lifecycle: the exhaustive transition table, resurvey-while-
// serving correctness, drain with queued work, and recover-on-restart.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "tafloc/daemon/zone.h"
#include "tafloc/sim/scenario.h"
#include "tafloc/util/rng.h"

namespace tafloc::daemon {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("tafloc_daemonzone_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

ZoneConfig zone_config(const std::string& name, std::uint64_t seed) {
  ZoneConfig config;
  config.name = name;
  config.seed = seed;
  return config;
}

/// A query vector the zone's deployment accepts (paper_room layout).
Vector make_query(std::uint64_t seed, double t = 0.0) {
  Scenario scenario = Scenario::paper_room(seed);
  Rng rng(seed ^ 0x9e97u);
  return scenario.collector().observe({2.5, 1.5}, t, rng);
}

TEST(ZoneStateMachine, ExhaustiveTransitionTable) {
  using S = ZoneState;
  const S all[] = {S::kLoading,     S::kCalibrating, S::kServing, S::kDegraded,
                   S::kResurveying, S::kDraining,    S::kStopped};
  // The complete set of legal edges; everything else must be refused.
  const std::set<std::pair<S, S>> legal = {
      {S::kLoading, S::kCalibrating},     {S::kLoading, S::kStopped},
      {S::kCalibrating, S::kServing},     {S::kCalibrating, S::kDraining},
      {S::kCalibrating, S::kStopped},     {S::kServing, S::kDegraded},
      {S::kServing, S::kResurveying},     {S::kServing, S::kDraining},
      {S::kDegraded, S::kServing},        {S::kDegraded, S::kResurveying},
      {S::kDegraded, S::kDraining},       {S::kResurveying, S::kServing},
      {S::kResurveying, S::kDegraded},    {S::kResurveying, S::kDraining},
      {S::kDraining, S::kStopped},
  };
  for (const S from : all) {
    for (const S to : all) {
      EXPECT_EQ(zone_transition_legal(from, to), legal.count({from, to}) == 1)
          << zone_state_name(from) << " -> " << zone_state_name(to);
    }
  }
  // Terminal state and no self-loops, stated explicitly.
  for (const S to : all) EXPECT_FALSE(zone_transition_legal(S::kStopped, to));
  for (const S s : all) EXPECT_FALSE(zone_transition_legal(s, s));
}

TEST(ZoneStateMachine, StateNamesAreDistinct) {
  using S = ZoneState;
  std::set<std::string> names;
  for (const S s : {S::kLoading, S::kCalibrating, S::kServing, S::kDegraded, S::kResurveying,
                    S::kDraining, S::kStopped}) {
    names.insert(zone_state_name(s));
  }
  EXPECT_EQ(names.size(), 7u);
}

TEST(ZoneLifecycle, StartServesAndGuardsReentry) {
  Zone zone(zone_config("alpha", 11), nullptr);
  EXPECT_EQ(zone.state(), ZoneState::kLoading);
  EXPECT_FALSE(zone.admissible());
  zone.start();
  EXPECT_EQ(zone.state(), ZoneState::kServing);
  EXPECT_TRUE(zone.admissible());
  // start() is not reentrant: serving -> calibrating is not an edge.
  EXPECT_THROW(zone.start(), std::logic_error);

  const Vector rss = make_query(11);
  const TafLocSystem::DegradedResult result = zone.localize(rss);
  EXPECT_TRUE(result.served);
  EXPECT_EQ(zone.status().queries, 1u);
}

TEST(ZoneLifecycle, LocalizeBeforeStartAndAfterDrainIsRefused) {
  Zone zone(zone_config("beta", 12), nullptr);
  const Vector rss = make_query(12);
  EXPECT_THROW((void)zone.localize(rss), std::logic_error);
  zone.drain();  // loading -> stopped.
  EXPECT_EQ(zone.state(), ZoneState::kStopped);
  EXPECT_THROW((void)zone.localize(rss), std::logic_error);
  zone.drain();  // idempotent.
  EXPECT_EQ(zone.state(), ZoneState::kStopped);
}

TEST(ZoneLifecycle, ResurveyWhileServingAnswersFromTheOldMatrix) {
  JobQueue jobs("test-zone", 1);
  // Park the single worker so the zone's solve stays queued and the
  // zone is pinned in kResurveying while we query it.
  std::atomic<bool> release{false};
  jobs.submit([&release] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });

  Zone zone(zone_config("gamma", 13), &jobs);
  zone.start();
  const Vector rss = make_query(13);
  const TafLocSystem::DegradedResult before = zone.localize(rss);

  ASSERT_TRUE(zone.request_resurvey(2.0));
  EXPECT_EQ(zone.state(), ZoneState::kResurveying);
  EXPECT_TRUE(zone.update_in_flight());
  EXPECT_FALSE(zone.request_resurvey(2.5));  // one update at a time.

  // Mid-recalibration queries are answered, bit-identically to the
  // pre-update matrix (the solve has not swapped anything in).
  const TafLocSystem::DegradedResult during = zone.localize(rss);
  EXPECT_TRUE(during.served);
  EXPECT_EQ(during.point.x, before.point.x);
  EXPECT_EQ(during.point.y, before.point.y);
  // poll() with the solve still queued must not commit anything.
  zone.poll();
  EXPECT_EQ(zone.state(), ZoneState::kResurveying);

  release.store(true);
  jobs.wait_idle();
  zone.poll();
  EXPECT_EQ(zone.state(), ZoneState::kServing);
  EXPECT_FALSE(zone.update_in_flight());
  const Zone::Status status = zone.status();
  EXPECT_EQ(status.updates_committed, 1u);
  EXPECT_EQ(status.updates_failed, 0u);
  EXPECT_EQ(status.clock_days, 2.0);
  zone.drain();
}

TEST(ZoneLifecycle, SynchronousResurveyCommitsInline) {
  Zone zone(zone_config("delta", 14), nullptr);  // no job queue.
  zone.start();
  ASSERT_TRUE(zone.request_resurvey(3.0));
  EXPECT_EQ(zone.state(), ZoneState::kServing);  // already committed.
  EXPECT_EQ(zone.status().updates_committed, 1u);
  EXPECT_FALSE(zone.update_in_flight());
}

TEST(ZoneLifecycle, DrainWithQueuedWorkFinishesTheUpdate) {
  TempDir dir("drainq");
  JobQueue jobs("test-drain", 1);
  std::atomic<bool> release{false};
  jobs.submit([&release] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });

  ZoneConfig config = zone_config("epsilon", 15);
  config.state_dir = dir.str();
  Zone zone(config, &jobs);
  zone.start();
  ASSERT_TRUE(zone.request_resurvey(4.0));
  ASSERT_EQ(zone.state(), ZoneState::kResurveying);

  // Drain arrives while the solve is still queued behind the parked
  // worker: it must wait the update out, commit it, snapshot, stop.
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.store(true);
  });
  zone.drain();
  releaser.join();

  EXPECT_EQ(zone.state(), ZoneState::kStopped);
  EXPECT_EQ(zone.status().updates_committed, 1u);
  EXPECT_FALSE(zone.update_in_flight());

  // The epilogue snapshot is recoverable and carries the update.
  JobQueue jobs2("test-drain2", 1);
  Zone restarted(config, &jobs2);
  restarted.start();
  EXPECT_EQ(restarted.state(), ZoneState::kServing);
  EXPECT_TRUE(restarted.system().database() == zone.system().database());
  EXPECT_EQ(restarted.status().clock_days, 4.0);
  restarted.drain();
}

TEST(ZoneLifecycle, DegradedEdgeAndResurveyFromDegraded) {
  Zone zone(zone_config("zeta", 16), nullptr);
  zone.start();

  Vector poisoned = make_query(16);
  poisoned[0] = std::nan("");
  (void)zone.localize(poisoned);
  EXPECT_EQ(zone.state(), ZoneState::kDegraded);

  // A resurvey from degraded returns to degraded (synchronous queue).
  ASSERT_TRUE(zone.request_resurvey(2.0));
  EXPECT_EQ(zone.state(), ZoneState::kDegraded);
  EXPECT_EQ(zone.status().updates_committed, 1u);

  // Draining from degraded is legal too.
  zone.drain();
  EXPECT_EQ(zone.state(), ZoneState::kStopped);
}

TEST(ZoneLifecycle, AmbientTriggerStartsResurvey) {
  ZoneConfig config = zone_config("eta", 17);
  config.scheduler.staleness_threshold_db = 1e-9;  // any drift triggers.
  config.scheduler.min_interval_days = 0.0;
  Zone zone(config, nullptr);
  zone.start();

  Scenario scenario = Scenario::paper_room(17);
  Rng rng(99);
  const Vector ambient = scenario.collector().observe_ambient(5.0, rng);
  const Zone::AmbientResult result = zone.observe_ambient(ambient, 5.0);
  EXPECT_TRUE(result.accepted);
  EXPECT_TRUE(result.triggered);
  EXPECT_TRUE(result.resurvey_started);
  EXPECT_EQ(zone.status().updates_committed, 1u);
  EXPECT_EQ(zone.status().clock_days, 5.0);

  zone.drain();
  const Zone::AmbientResult refused = zone.observe_ambient(ambient, 6.0);
  EXPECT_FALSE(refused.accepted);
}

TEST(ZoneClock, DroppedAmbientSampleLeavesClockUntouched) {
  // Regression: the zone used to advance clock_days_ for every admitted
  // ambient request, even when the scheduler dropped the sample as
  // out-of-order or all-NaN -- so one late packet could push the zone
  // clock forward and silently discard every following in-order sample.
  ZoneConfig config = zone_config("clock1", 41);
  config.scheduler.staleness_threshold_db = 1e9;  // never trigger.
  Zone zone(config, nullptr);
  zone.start();

  Scenario scenario = Scenario::paper_room(41);
  Rng rng(7);
  const Vector fresh = scenario.collector().observe_ambient(2.0, rng);
  const Zone::AmbientResult ok = zone.observe_ambient(fresh, 2.0);
  EXPECT_TRUE(ok.accepted);
  EXPECT_TRUE(ok.sample_accepted);
  EXPECT_EQ(zone.status().clock_days, 2.0);

  // Out-of-order: admitted (the zone is serving) but the sample itself
  // is dropped, and the clock must not move.
  const Zone::AmbientResult late = zone.observe_ambient(fresh, 1.0);
  EXPECT_TRUE(late.accepted);
  EXPECT_FALSE(late.sample_accepted);
  EXPECT_EQ(zone.status().clock_days, 2.0);

  // All-NaN: dropped for a different reason, same clock contract.
  const Vector dead(fresh.size(), std::nan(""));
  const Zone::AmbientResult nan_scan = zone.observe_ambient(dead, 3.0);
  EXPECT_TRUE(nan_scan.accepted);
  EXPECT_FALSE(nan_scan.sample_accepted);
  EXPECT_EQ(zone.status().clock_days, 2.0);

  // An in-order successor of the dropped samples is still accepted:
  // the dropped t=3.0 scan did not poison the scheduler's clock either.
  const Vector next = scenario.collector().observe_ambient(2.5, rng);
  const Zone::AmbientResult after = zone.observe_ambient(next, 2.5);
  EXPECT_TRUE(after.sample_accepted);
  EXPECT_EQ(zone.status().clock_days, 2.5);
  zone.drain();
}

TEST(ZoneClock, RecoveryRestoresClockFromReplayedObservations) {
  // The WAL logs every ambient sample (dropped ones included); replay
  // must reproduce the exact clock -- including that dropped samples
  // never advanced it.
  TempDir dir("clockwal");
  ZoneConfig config = zone_config("clock2", 42);
  config.state_dir = dir.str();
  config.scheduler.staleness_threshold_db = 1e9;

  Scenario scenario = Scenario::paper_room(42);
  Rng rng(7);
  const Vector fresh = scenario.collector().observe_ambient(2.0, rng);
  {
    Zone zone(config, nullptr);
    zone.start();
    EXPECT_TRUE(zone.observe_ambient(fresh, 2.0).sample_accepted);
    EXPECT_FALSE(zone.observe_ambient(fresh, 1.0).sample_accepted);  // dropped.
    EXPECT_EQ(zone.status().clock_days, 2.0);
    // No drain: the snapshot predates both observations, recovery has
    // to get the clock from the WAL replay.
  }

  Zone restarted(config, nullptr);
  restarted.start();
  EXPECT_EQ(restarted.status().clock_days, 2.0);
  // The replayed scheduler still holds last_observation = 2.0: an
  // out-of-order sample keeps being dropped, an in-order one lands.
  EXPECT_FALSE(restarted.observe_ambient(fresh, 1.5).sample_accepted);
  EXPECT_EQ(restarted.status().clock_days, 2.0);
  EXPECT_TRUE(restarted.observe_ambient(fresh, 2.5).sample_accepted);
  EXPECT_EQ(restarted.status().clock_days, 2.5);
  restarted.drain();
}

TEST(ZoneConfigValidation, NonFiniteOrNegativeTimingConfigIsRefused) {
  // Regression: a negative slo_deadline_ms survived into the nanosecond
  // conversion and wrapped to a huge uint64 deadline (every query an
  // instant SLO pass); the zone must refuse the config up front.
  const auto with = [](auto mutate) {
    ZoneConfig config;
    config.name = "bad";
    config.seed = 43;
    mutate(config);
    return config;
  };
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.slo_deadline_ms = -5.0; }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.slo_deadline_ms = std::nan(""); }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.slo_target = 0.0; }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.slo_target = 1.5; }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.slow_query_ms = -1.0; }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.fault_slow_ms = -1.0; }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.ingest.motion_threshold_db = -1.0; }), nullptr),
               std::invalid_argument);
}

TEST(ZoneConfigValidation, OversizedTraceAndLatencyConfigIsRefused) {
  // Trace capacities are allocated up front and millisecond thresholds
  // become uint64 nanoseconds; both are checked before any member is
  // built from them.
  const auto with = [](auto mutate) {
    ZoneConfig config;
    config.name = "big";
    config.seed = 44;
    mutate(config);
    return config;
  };
  constexpr std::uint64_t k2To40 = std::uint64_t{1} << 40;
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.trace_ring_capacity = k2To40; }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.slow_log_capacity = k2To40; }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.slo_deadline_ms = 1e15; }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.slow_query_ms = 1e15; }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.slow_query_ms = std::nan(""); }), nullptr),
               std::invalid_argument);
  // The injected delay becomes a sleep_for duration, checked the same way
  // (no query is sent: the constructor refuses the config).
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.fault_slow_ms = 1e300; }), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Zone(with([](ZoneConfig& c) { c.fault_slow_ms = 86'400'001.0; }), nullptr),
               std::invalid_argument);
}

TEST(ZoneLifecycle, TransitionsLandInZoneTelemetry) {
  Zone zone(zone_config("theta", 18), nullptr);
  zone.start();
  zone.drain();
  const std::string json = zone.telemetry_json();
  EXPECT_NE(json.find("\"zone\":\"theta\""), std::string::npos);
  EXPECT_NE(json.find("zone.transitions"), std::string::npos);
  EXPECT_NE(json.find("zone.state.serving"), std::string::npos);
  EXPECT_NE(json.find("zone.state.stopped"), std::string::npos);
}

// ---- tracing, SLO accounting, fault injection (PR 9) ----

TEST(ZoneTracing, ResultsAreBitIdenticalWithTracingOnAndOff) {
  // The determinism contract extended to the zone layer: tracing at
  // 100% sampling (plus slow log and SLO accounting) must not perturb a
  // single bit of any localization result.
  ZoneConfig traced = zone_config("alpha", 33);
  traced.trace_sample_every = 1;
  traced.slow_query_ms = 0.001;  // everything lands in the slow log too.
  traced.slo_deadline_ms = 50.0;
  ZoneConfig plain = zone_config("alpha", 33);
  plain.trace_ring_capacity = 0;
  plain.slow_log_capacity = 0;

  Zone a(traced, nullptr);
  Zone b(plain, nullptr);
  a.start();
  b.start();
  for (int i = 0; i < 20; ++i) {
    const Vector q = make_query(33, 0.01 * i);
    const TafLocSystem::DegradedResult ra = a.localize(q);
    const TafLocSystem::DegradedResult rb = b.localize(q);
    EXPECT_EQ(ra.point.x, rb.point.x);
    EXPECT_EQ(ra.point.y, rb.point.y);
    EXPECT_EQ(ra.confidence, rb.confidence);
    EXPECT_EQ(ra.links_used, rb.links_used);
    EXPECT_EQ(ra.degraded, rb.degraded);
  }
  EXPECT_EQ(a.tracer().ring().pushed(), 20u);
  EXPECT_EQ(b.tracer().ring().pushed(), 0u);
  a.drain();
  b.drain();
}

TEST(ZoneTracing, SampledTraceCarriesStagesAndOutcome) {
  ZoneConfig config = zone_config("beta", 34);
  config.trace_sample_every = 1;
  Zone zone(config, nullptr);
  zone.start();
  TraceContext ctx;
  ctx.trace_id = 4242;
  (void)zone.localize(make_query(34), ctx, 1500);

  const std::vector<TraceRecord> records = zone.tracer().ring().snapshot();
  ASSERT_EQ(records.size(), 1u);
  const TraceRecord& r = records[0];
  EXPECT_EQ(r.trace_id, 4242u);
  EXPECT_EQ(r.queue_wait_ns, 1500u);
  EXPECT_STREQ(r.state, "serving");
  EXPECT_TRUE(r.served);
  EXPECT_GT(r.confidence, 0.0);
  EXPECT_GT(r.links_total, 0u);
  ASSERT_GE(r.stage_count, 2u);
  // zone.serve wraps the system + matcher stages recorded inside it.
  bool saw_serve = false;
  bool saw_nested = false;
  std::uint64_t depth0_ns = 0;
  for (std::uint32_t i = 0; i < r.stage_count; ++i) {
    if (std::string(r.stages[i].name) == "zone.serve") {
      saw_serve = true;
      EXPECT_EQ(r.stages[i].depth, 0u);
    }
    if (r.stages[i].depth > 0) saw_nested = true;
    if (r.stages[i].depth == 0) depth0_ns += r.stages[i].duration_ns;
  }
  EXPECT_TRUE(saw_serve);
  EXPECT_TRUE(saw_nested);  // system.health / system.match under zone.serve.
  EXPECT_LE(depth0_ns, r.total_ns);
  zone.drain();
}

TEST(ZoneTracing, FaultInjectionLandsExactlyInTheSlowLog) {
  ZoneConfig config = zone_config("gamma", 35);
  config.fault_slow_every = 5;
  config.fault_slow_ms = 8.0;
  config.slow_query_ms = 4.0;  // below the injected delay, above normal serve.
  config.slow_log_capacity = 8;
  Zone zone(config, nullptr);
  zone.start();
  for (int i = 0; i < 12; ++i) (void)zone.localize(make_query(35));

  // Queries 5 and 10 (1-based ordinals) were delayed; nothing else may
  // cross the 4 ms threshold.
  const std::vector<TraceRecord> slow = zone.tracer().slow_log().entries();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].seq, 4u);  // 0-based trace seq of query 5.
  EXPECT_EQ(slow[1].seq, 9u);
  for (const TraceRecord& r : slow) {
    EXPECT_TRUE(r.fault_injected);
    EXPECT_TRUE(r.slow);
    EXPECT_GE(r.total_ns, 8'000'000u);
    bool saw_delay = false;
    for (std::uint32_t i = 0; i < r.stage_count; ++i) {
      if (std::string(r.stages[i].name) == "zone.fault.delay") saw_delay = true;
    }
    EXPECT_TRUE(saw_delay);
  }
  EXPECT_EQ(zone.tracer().slow_log().dropped(), 0u);
  zone.drain();
}

TEST(ZoneSlo, DeadlineAccountingAndErrorBudget) {
  ZoneConfig config = zone_config("delta", 36);
  config.slo_deadline_ms = 4.0;
  config.slo_target = 0.9;  // 10% error budget.
  config.fault_slow_every = 4;
  config.fault_slow_ms = 10.0;  // every 4th query blows the deadline.
  Zone zone(config, nullptr);
  zone.start();
  for (int i = 0; i < 8; ++i) (void)zone.localize(make_query(36));

  const Zone::Status s = zone.status();
  EXPECT_EQ(s.slo_ok + s.slo_violated, 8u);
  EXPECT_EQ(s.slo_violated, 2u);  // queries 4 and 8.
  // Budget: 8 * 0.1 - 2 = -1.2 -> exhausted, degraded-slo.
  EXPECT_LT(s.slo_budget_remaining, 0.0);
  EXPECT_TRUE(s.slo_degraded);

  // The same numbers are visible through the metric registry.
  const std::string json = zone.telemetry_json();
  EXPECT_NE(json.find("slo.violated"), std::string::npos);
  EXPECT_NE(json.find("slo.budget_remaining"), std::string::npos);
  EXPECT_NE(json.find("zone.request_seconds"), std::string::npos);
  zone.drain();
}

TEST(ZoneSlo, NoDeadlineMeansNoSloAccounting) {
  Zone zone(zone_config("epsilon", 37), nullptr);
  zone.start();
  (void)zone.localize(make_query(37));
  const Zone::Status s = zone.status();
  EXPECT_EQ(s.slo_ok, 0u);
  EXPECT_EQ(s.slo_violated, 0u);
  EXPECT_EQ(s.slo_budget_remaining, 0.0);
  EXPECT_FALSE(s.slo_degraded);
  zone.drain();
}

TEST(ZoneShed, RefusedAdmissionsAreCounted) {
  Zone zone(zone_config("zeta", 38), nullptr);
  zone.start();
  zone.drain();
  EXPECT_FALSE(zone.admissible());
  zone.note_shed();
  zone.note_shed();
  EXPECT_EQ(zone.status().sheds, 2u);
  EXPECT_NE(zone.telemetry_json().find("zone.shed"), std::string::npos);
}

}  // namespace
}  // namespace tafloc::daemon
