#include "tafloc/daemon/zone.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "tafloc/linalg/backend.h"
#include "tafloc/util/check.h"
#include "tafloc/util/log.h"

namespace tafloc::daemon {

namespace {

/// The contract the config parser enforces, applied to a programmatic
/// ZoneConfig before any member is built from it.  Millisecond knobs
/// become uint64 nanoseconds and trace capacities are allocated up
/// front, so a negative, non-finite or oversized value would wrap into
/// a huge deadline, overflow, or exhaust memory instead of failing.
ZoneConfig checked(ZoneConfig config) {
  TAFLOC_CHECK_ARG(!config.name.empty(), "zone needs a name");
  const std::string zone = "zone '" + config.name + "': ";
  TAFLOC_CHECK_ARG(std::isfinite(config.slo_deadline_ms) && config.slo_deadline_ms >= 0.0 &&
                       config.slo_deadline_ms <= kMaxLatencyThresholdMs,
                   zone + "slo_deadline_ms must be finite, >= 0 and at most one day");
  TAFLOC_CHECK_ARG(config.slo_target > 0.0 && config.slo_target <= 1.0,
                   zone + "slo_target must be in (0, 1]");
  TAFLOC_CHECK_ARG(std::isfinite(config.slow_query_ms) && config.slow_query_ms >= 0.0 &&
                       config.slow_query_ms <= kMaxLatencyThresholdMs,
                   zone + "slow_query_ms must be finite, >= 0 and at most one day");
  TAFLOC_CHECK_ARG(config.trace_ring_capacity <= kMaxTraceEntries,
                   zone + "trace_ring_capacity exceeds kMaxTraceEntries");
  TAFLOC_CHECK_ARG(config.slow_log_capacity <= kMaxTraceEntries,
                   zone + "slow_log_capacity exceeds kMaxTraceEntries");
  TAFLOC_CHECK_ARG(std::isfinite(config.fault_slow_ms) && config.fault_slow_ms >= 0.0 &&
                       config.fault_slow_ms <= kMaxLatencyThresholdMs,
                   zone + "fault_slow_ms must be finite, >= 0 and at most one day");
  TAFLOC_CHECK_ARG(
      std::isfinite(config.ingest.motion_threshold_db) && config.ingest.motion_threshold_db >= 0.0,
      zone + "motion_threshold_db must be finite and >= 0");
  return config;
}

TafLocConfig make_system_config(const ZoneConfig& config) {
  TafLocConfig cfg;
  cfg.telemetry.enabled = config.telemetry;
  cfg.telemetry.zone = config.name;
  return cfg;
}

TracerConfig make_tracer_config(const ZoneConfig& config) {
  TracerConfig cfg;
  cfg.ring_capacity = static_cast<std::size_t>(config.trace_ring_capacity);
  cfg.slow_log_capacity = static_cast<std::size_t>(config.slow_log_capacity);
  cfg.sample_every = config.trace_sample_every;
  cfg.slow_threshold_ms = config.slow_query_ms;
  cfg.zone = config.name;
  return cfg;
}

ingest::AssemblerConfig make_assembler_config(const ZoneConfig& config,
                                              const Scenario& scenario) {
  ingest::AssemblerConfig cfg;
  cfg.num_links = scenario.deployment().num_links();
  cfg.dedup_window = static_cast<std::size_t>(config.ingest.dedup_window);
  cfg.max_pending_rounds = static_cast<std::size_t>(config.ingest.max_pending_rounds);
  return cfg;
}

}  // namespace

const char* zone_state_name(ZoneState state) {
  switch (state) {
    case ZoneState::kLoading: return "loading";
    case ZoneState::kCalibrating: return "calibrating";
    case ZoneState::kServing: return "serving";
    case ZoneState::kDegraded: return "degraded";
    case ZoneState::kResurveying: return "resurveying";
    case ZoneState::kDraining: return "draining";
    case ZoneState::kStopped: return "stopped";
  }
  return "unknown";
}

bool zone_transition_legal(ZoneState from, ZoneState to) noexcept {
  if (from == to) return false;
  switch (from) {
    case ZoneState::kLoading:
      return to == ZoneState::kCalibrating || to == ZoneState::kStopped;
    case ZoneState::kCalibrating:
      return to == ZoneState::kServing || to == ZoneState::kDraining ||
             to == ZoneState::kStopped;
    case ZoneState::kServing:
    case ZoneState::kDegraded:
      return to == ZoneState::kDegraded || to == ZoneState::kServing ||
             to == ZoneState::kResurveying || to == ZoneState::kDraining;
    case ZoneState::kResurveying:
      return to == ZoneState::kServing || to == ZoneState::kDegraded ||
             to == ZoneState::kDraining;
    case ZoneState::kDraining:
      return to == ZoneState::kStopped;
    case ZoneState::kStopped:
      return false;
  }
  return false;
}

Zone::Zone(ZoneConfig config, JobQueue* jobs)
    : config_(checked(std::move(config))),
      jobs_(jobs),
      scenario_(Scenario::paper_room(config_.seed)),
      system_(scenario_.deployment(), make_system_config(config_)),
      rng_(config_.seed ^ 0x5a11ull),
      tracer_(make_tracer_config(config_), &system_.telemetry()),
      assembler_(make_assembler_config(config_, scenario_)) {
  slo_deadline_ns_ = static_cast<std::uint64_t>(config_.slo_deadline_ms * 1e6);
  MetricRegistry& reg = system_.telemetry();
  if (reg.enabled()) {
    request_hist_ = &reg.histogram("zone.request_seconds");
    shed_counter_ = &reg.counter("zone.shed");
    ingest_batches_counter_ = &reg.counter("ingest.batches");
    ingest_readings_counter_ = &reg.counter("ingest.readings");
    ingest_dups_counter_ = &reg.counter("ingest.dups_dropped");
    ingest_stale_counter_ = &reg.counter("ingest.stale_dropped");
    ingest_bad_counter_ = &reg.counter("ingest.bad_readings");
    ingest_rounds_counter_ = &reg.counter("ingest.rounds_completed");
    ingest_expired_counter_ = &reg.counter("ingest.rounds_expired");
    ingest_gated_counter_ = &reg.counter("ingest.gated_ambient");
    ingest_admitted_counter_ = &reg.counter("ingest.admitted_queries");
    if (slo_deadline_ns_ > 0) {
      slo_ok_counter_ = &reg.counter("slo.ok");
      slo_violated_counter_ = &reg.counter("slo.violated");
      slo_budget_gauge_ = &reg.gauge("slo.budget_remaining");
    }
  }
}

Zone::~Zone() {
  // The solve job captures `this`; never destroy underneath it.
  while (job_phase_.load(std::memory_order_acquire) == JobPhase::kSolving) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool Zone::admissible() const noexcept {
  return state_ == ZoneState::kServing || state_ == ZoneState::kDegraded ||
         state_ == ZoneState::kResurveying;
}

void Zone::transition(ZoneState to) {
  TAFLOC_CHECK_STATE(zone_transition_legal(state_, to),
                     "zone '" + config_.name + "': illegal transition " +
                         zone_state_name(state_) + " -> " + zone_state_name(to));
  TAFLOC_LOG_INFO << "zone '" << config_.name << "': " << zone_state_name(state_) << " -> "
                  << zone_state_name(to);
  state_ = to;
  MetricRegistry& reg = system_.telemetry();
  if (reg.enabled()) {
    reg.counter("zone.transitions").add(1);
    reg.gauge("zone.state").set(static_cast<double>(to));
    reg.record_span(std::string("zone.state.") + zone_state_name(to), 0, reg.now_ns(), 0);
  }
}

void Zone::start() {
  TAFLOC_CHECK_STATE(state_ == ZoneState::kLoading,
                     "zone '" + config_.name + "': start() from " + zone_state_name(state_));
  transition(ZoneState::kCalibrating);

  scheduler_.emplace(Vector(scenario_.deployment().num_links(), 0.0), 0.0, config_.scheduler);
  scheduler_->attach_telemetry(&system_.telemetry());

  bool recovered = false;
  if (!config_.state_dir.empty()) {
    system_.attach_durability({config_.state_dir});
    system_.attach_scheduler(&*scheduler_);
    const RecoveryReport report = system_.recover();
    if (report.outcome != RecoveryReport::Outcome::kUnrecoverable) {
      recovered = true;
      // The recovered clock is the newest time the scheduler vouches
      // for: the last accepted ambient observation (>= the last update;
      // replayed *dropped* samples never moved it).
      clock_days_ = std::max(scheduler_->last_update_days(), scheduler_->last_observation_days());
      TAFLOC_LOG_INFO << "zone '" << config_.name << "': recovered ("
                      << recovery_outcome_name(report.outcome) << ", " << report.replayed_records
                      << " records replayed)";
    } else {
      TAFLOC_LOG_WARN << "zone '" << config_.name
                      << "': no recoverable state, running a full calibration survey";
    }
  }
  if (!recovered) {
    Vector ambient = scenario_.collector().ambient_scan(0.0, rng_);
    system_.calibrate(scenario_.collector().survey_all(0.0, rng_), ambient, 0.0);
    scheduler_->notify_updated(std::move(ambient), 0.0);
    clock_days_ = 0.0;
  }
  transition(ZoneState::kServing);
}

TafLocSystem::DegradedResult Zone::localize(std::span<const double> rss,
                                            const TraceContext& trace,
                                            std::uint64_t queue_wait_ns) {
  TAFLOC_CHECK_STATE(admissible(), "zone '" + config_.name + "' not admitting queries (" +
                                       zone_state_name(state_) + ")");
  TraceScope scope(tracer_, trace, queue_wait_ns);
  scope.record().set_state(zone_state_name(state_));
  const std::uint64_t ordinal = ++queries_;

  // Latency is only measured when someone consumes it (SLO accounting
  // or the zone.request_seconds histogram); otherwise the query path
  // pays no extra clock reads beyond the trace scope itself.
  const bool want_latency = slo_deadline_ns_ > 0 || request_hist_ != nullptr;
  const std::uint64_t t0 = want_latency ? tracer_.now_ns() : 0;

  // Deterministic fault injection for drills: every Nth query (by zone
  // ordinal) is delayed, so tests can predict exactly which requests
  // land in the slow-query log.
  if (config_.fault_slow_every > 0 && config_.fault_slow_ms > 0.0 &&
      ordinal % config_.fault_slow_every == 0) {
    TraceStage fault_stage("zone.fault.delay");
    scope.record().fault_injected = true;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(config_.fault_slow_ms));
  }

  TafLocSystem::DegradedResult result;
  {
    TraceStage serve_stage("zone.serve");
    result = system_.localize_degraded(rss);
  }

  TraceRecord& rec = scope.record();
  rec.confidence = result.confidence;
  rec.links_used = static_cast<std::uint32_t>(result.links_used);
  rec.links_total = static_cast<std::uint32_t>(result.links_total);
  rec.served = result.served;
  rec.degraded = result.degraded;

  if (want_latency) {
    const std::uint64_t elapsed_ns = tracer_.now_ns() - t0;
    if (request_hist_ != nullptr) {
      request_hist_->observe(static_cast<double>(elapsed_ns) * 1e-9);
    }
    if (slo_deadline_ns_ > 0) {
      if (elapsed_ns <= slo_deadline_ns_) {
        ++slo_ok_;
        if (slo_ok_counter_ != nullptr) slo_ok_counter_->add(1);
      } else {
        ++slo_violated_;
        if (slo_violated_counter_ != nullptr) slo_violated_counter_->add(1);
      }
      if (slo_budget_gauge_ != nullptr) slo_budget_gauge_->set(slo_budget_remaining());
    }
  }

  // The link-health verdict drives the serving <-> degraded edge; a
  // resurveying zone reports through its own state until the commit.
  if (state_ == ZoneState::kServing && result.degraded) {
    transition(ZoneState::kDegraded);
  } else if (state_ == ZoneState::kDegraded && result.served && !result.degraded) {
    transition(ZoneState::kServing);
  }
  return result;
}

void Zone::note_shed() noexcept {
  ++sheds_;
  if (shed_counter_ != nullptr) shed_counter_->add(1);
}

double Zone::slo_budget_remaining() const noexcept {
  const std::uint64_t total = slo_ok_ + slo_violated_;
  const double allowed = static_cast<double>(total) * (1.0 - config_.slo_target);
  return allowed - static_cast<double>(slo_violated_);
}

Zone::AmbientResult Zone::observe_ambient(std::span<const double> ambient, double t_days) {
  AmbientResult out;
  if (!admissible()) return out;
  out.accepted = true;
  // The scheduler is the authority on whether the sample carries any
  // timing information: an out-of-order or all-NaN scan is dropped, and
  // a dropped sample must not move the zone clock that probe() and
  // resurvey admission read (the drop counter delta is exact -- all
  // scheduler mutation happens on this serving thread).
  const std::size_t dropped_before = scheduler_->dropped_observations();
  out.triggered = scheduler_->observe_ambient(ambient, t_days);
  out.sample_accepted = scheduler_->dropped_observations() == dropped_before;
  out.staleness_db = scheduler_->estimated_staleness_db();
  if (out.sample_accepted && t_days > clock_days_) clock_days_ = t_days;
  if (out.triggered) out.resurvey_started = request_resurvey(t_days);
  return out;
}

Zone::IngestResult Zone::ingest_batch(const ingest::NodeBatch& batch) {
  IngestResult out;
  if (!admissible()) return out;
  out.accepted = true;

  // The assembler keeps lifetime totals; this request's contribution is
  // the counter delta (exact -- all ingest runs on the serving thread).
  const ingest::IngestCounters before = assembler_.counters();
  const std::vector<ingest::CompletedRound> rounds = assembler_.ingest(batch);
  const ingest::IngestCounters& after = assembler_.counters();
  out.readings = after.readings - before.readings;
  out.dups_dropped = after.dups_dropped - before.dups_dropped;
  out.stale_dropped = after.stale_dropped - before.stale_dropped;
  out.bad_readings = after.bad_readings - before.bad_readings;
  out.rounds_completed = after.rounds_completed - before.rounds_completed;

  for (const ingest::CompletedRound& round : rounds) {
    const double motion = ingest::movement_db(round.y, scheduler_->baseline());
    out.last_motion_db = motion;
    if (motion < config_.ingest.motion_threshold_db) {
      // Nobody moved: the round is an ambient sample -- the free
      // scheduling signal.  observe_ambient handles the clock, the
      // staleness trigger, and resurvey admission.
      ++out.gated_ambient;
      observe_ambient(round.y, round.t_days);
    } else {
      ++out.admitted_queries;
      IngestResult::Query q;
      q.t_days = round.t_days;
      q.motion_db = motion;
      q.result = localize(round.y);
      out.queries.push_back(std::move(q));
    }
    // A resurvey started by the gated ambient path may have flipped the
    // zone to kResurveying; both paths still admit, so keep draining
    // the completed rounds.
  }

  if (ingest_batches_counter_ != nullptr) {
    ingest_batches_counter_->add(1);
    ingest_readings_counter_->add(out.readings);
    ingest_dups_counter_->add(out.dups_dropped);
    ingest_stale_counter_->add(out.stale_dropped);
    ingest_bad_counter_->add(out.bad_readings);
    ingest_rounds_counter_->add(out.rounds_completed);
    ingest_expired_counter_->add(after.rounds_expired - before.rounds_expired);
    ingest_gated_counter_->add(out.gated_ambient);
    ingest_admitted_counter_->add(out.admitted_queries);
  }
  return out;
}

bool Zone::request_resurvey(double t_days) {
  if (state_ != ZoneState::kServing && state_ != ZoneState::kDegraded) return false;
  if (update_in_flight()) return false;

  // Admission (cheap, serving thread): survey the reference grids
  // through the collector, WAL the raw inputs, build the problem.
  const Matrix cols =
      scenario_.collector().survey_grids(system_.reference_locations(), t_days, rng_);
  Vector ambient = scenario_.collector().ambient_scan(t_days, rng_);
  pending_ambient_ = ambient;
  pending_t_days_ = t_days;
  resume_state_ = state_;
  transition(ZoneState::kResurveying);
  try {
    inflight_ = std::make_unique<TafLocSystem::StagedUpdate>(
        system_.stage_update(cols, std::move(ambient), t_days));
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(err_mu_);
      last_error_ = std::string("stage_update: ") + e.what();
    }
    TAFLOC_LOG_ERROR << "zone '" << config_.name << "': stage_update failed: " << e.what();
    transition(resume_state_);
    return false;
  }
  if (t_days > clock_days_) clock_days_ = t_days;
  job_phase_.store(JobPhase::kSolving, std::memory_order_release);

  auto solve = [this] {
    try {
      system_.solve_staged_update(*inflight_);
      job_phase_.store(JobPhase::kSolved, std::memory_order_release);
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(err_mu_);
        last_error_ = std::string("solve: ") + e.what();
      }
      job_phase_.store(JobPhase::kFailed, std::memory_order_release);
    }
    if (wakeup_) wakeup_();
  };
  if (jobs_ == nullptr) {
    solve();
    finish_update();
  } else {
    jobs_->submit(std::move(solve));
  }
  return true;
}

Zone::ProbeResult Zone::probe() {
  TAFLOC_CHECK_STATE(admissible(), "zone '" + config_.name + "' not admitting probes (" +
                                       zone_state_name(state_) + ")");
  const GridMap& grid = scenario_.deployment().grid();
  const std::size_t cell = (probes_ * 17 + 5) % grid.num_cells();
  ++probes_;
  ProbeResult out;
  out.truth = grid.center(cell);
  const Vector rss = scenario_.collector().observe(out.truth, clock_days_, rng_);
  const TafLocSystem::DegradedResult result = localize(rss);
  out.estimate = result.point;
  out.error_m = std::hypot(result.point.x - out.truth.x, result.point.y - out.truth.y);
  out.degraded = result.degraded;
  return out;
}

void Zone::poll() {
  const JobPhase phase = job_phase_.load(std::memory_order_acquire);
  if (phase == JobPhase::kSolved || phase == JobPhase::kFailed) finish_update();
}

void Zone::finish_update() {
  const JobPhase phase = job_phase_.load(std::memory_order_acquire);
  if (inflight_ == nullptr) return;
  if (phase == JobPhase::kSolved) {
    try {
      system_.commit_update(std::move(*inflight_));
      scheduler_->notify_updated(std::move(pending_ambient_), pending_t_days_);
      ++updates_committed_;
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(err_mu_);
        last_error_ = std::string("commit_update: ") + e.what();
      }
      TAFLOC_LOG_ERROR << "zone '" << config_.name << "': commit failed: " << e.what();
      ++updates_failed_;
    }
  } else if (phase == JobPhase::kFailed) {
    system_.abandon_staged_update(*inflight_);
    ++updates_failed_;
    TAFLOC_LOG_WARN << "zone '" << config_.name
                    << "': update abandoned (solver failed); serving continues on the old matrix";
  } else {
    return;  // still solving; the next poll() will land it.
  }
  inflight_.reset();
  pending_ambient_ = Vector();
  job_phase_.store(JobPhase::kIdle, std::memory_order_release);
  // A drain that arrived mid-solve keeps the zone in kDraining; only a
  // still-resurveying zone takes the return edge.
  if (state_ == ZoneState::kResurveying) transition(resume_state_);
}

void Zone::drain() {
  if (state_ == ZoneState::kStopped) return;
  if (state_ == ZoneState::kLoading) {
    transition(ZoneState::kStopped);
    return;
  }
  if (state_ != ZoneState::kDraining) transition(ZoneState::kDraining);
  // Finish in-flight work: wait out the solve, then commit (or abandon)
  // on this thread.
  while (job_phase_.load(std::memory_order_acquire) == JobPhase::kSolving) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  finish_update();
  if (system_.durable() && system_.calibrated()) {
    try {
      system_.save();  // epilogue snapshot; WAL rotates with it.
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(err_mu_);
      last_error_ = std::string("drain save: ") + e.what();
      TAFLOC_LOG_ERROR << "zone '" << config_.name << "': epilogue snapshot failed: " << e.what();
    }
  }
  transition(ZoneState::kStopped);
}

bool Zone::update_in_flight() const noexcept {
  return job_phase_.load(std::memory_order_acquire) != JobPhase::kIdle || inflight_ != nullptr;
}

Zone::Status Zone::status() const {
  Status s;
  s.state = state_;
  s.queries = queries_;
  s.updates_committed = updates_committed_;
  s.updates_failed = updates_failed_;
  s.update_in_flight = update_in_flight();
  s.staleness_db = scheduler_ ? scheduler_->estimated_staleness_db() : 0.0;
  s.clock_days = clock_days_;
  s.wal_sequence = system_.durable() ? system_.durable_sequence() : 0;
  s.kernel_backend = kernel_backend_name(active_kernel_backend());
  s.quantized_tier = system_.quantized_tier_active();
  s.slo_ok = slo_ok_;
  s.slo_violated = slo_violated_;
  if (slo_deadline_ns_ > 0) {
    s.slo_budget_remaining = slo_budget_remaining();
    s.slo_degraded = s.slo_budget_remaining < 0.0;
  }
  s.sheds = sheds_;
  {
    std::lock_guard<std::mutex> lock(err_mu_);
    s.last_error = last_error_;
  }
  return s;
}

void Zone::apply_scheduler_config(const SchedulerConfig& config) {
  check_scheduler_config(config);
  config_.scheduler = config;
  if (scheduler_) scheduler_->set_config(config);
}

}  // namespace tafloc::daemon
