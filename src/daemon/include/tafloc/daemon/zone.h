// Zone -- one supervised serving unit inside taflocd: a TafLocSystem,
// its UpdateScheduler, a sim-backed collector, and the per-zone
// durability directory, wrapped in an explicit lifecycle state machine
//
//   loading -> calibrating -> serving <-> degraded
//                 |               |         |
//                 |             resurveying-+
//                 |               |
//                 +--------> draining -> stopped
//
// Transition legality is enforced (zone_transition_legal): an illegal
// transition is a supervisor bug and throws std::logic_error rather
// than silently corrupting the lifecycle.  Every transition lands in
// the zone's telemetry (zone.transitions counter, a zone.state gauge,
// and a timestamped `zone.state.<name>` trace event).
//
// Threading discipline (the whole point of the state machine):
//
//   * ALL TafLocSystem mutation happens on the serving thread -- the
//     thread that runs the daemon event loop and calls localize()/
//     observe_ambient()/poll()/drain().
//   * A recalibration never blocks serving.  request_resurvey() stages
//     the update (WAL append + problem build, cheap) and hands the
//     expensive LoLi-IR solve to the shared JobQueue.  While the worker
//     solves, the zone is kResurveying and keeps answering queries from
//     the old matrix.
//   * The worker's completion hook only flips an atomic and pokes the
//     wakeup callback; the serving thread applies the commit (atomic
//     matrix swap) in the next poll().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include <vector>

#include "tafloc/daemon/config.h"
#include "tafloc/exec/job_queue.h"
#include "tafloc/ingest/assembler.h"
#include "tafloc/sim/scenario.h"
#include "tafloc/tafloc/scheduler.h"
#include "tafloc/tafloc/system.h"
#include "tafloc/telemetry/trace.h"
#include "tafloc/util/rng.h"

namespace tafloc::daemon {

enum class ZoneState : std::uint8_t {
  kLoading = 0,      ///< constructed, start() not yet run.
  kCalibrating = 1,  ///< recovering from disk or running the full survey.
  kServing = 2,      ///< answering queries, all links healthy.
  kDegraded = 3,     ///< answering queries over a partial link set.
  kResurveying = 4,  ///< update in flight; still answering from the old matrix.
  kDraining = 5,     ///< admissions stopped; finishing in-flight work.
  kStopped = 6,      ///< terminal; state flushed (when durable).
};

const char* zone_state_name(ZoneState state);

/// The supervision table: true when `from -> to` is a legal lifecycle
/// transition.  Self-transitions are illegal (they would hide missed
/// edges); kStopped is terminal.
bool zone_transition_legal(ZoneState from, ZoneState to) noexcept;

class Zone {
 public:
  /// `jobs` is the daemon-wide supervised worker pool; nullptr makes
  /// updates synchronous (tests, single-threaded tools).  The queue
  /// must outlive the zone.
  Zone(ZoneConfig config, JobQueue* jobs);
  /// Finishes any in-flight update job (the worker holds a pointer into
  /// this zone); does NOT save -- call drain() for a graceful stop.
  ~Zone();

  Zone(const Zone&) = delete;
  Zone& operator=(const Zone&) = delete;

  const std::string& name() const noexcept { return config_.name; }
  ZoneState state() const noexcept { return state_; }
  /// True in the states that admit queries (serving, degraded,
  /// resurveying).
  bool admissible() const noexcept;

  /// loading -> calibrating -> serving.  Durable zones first attempt
  /// crash recovery from state_dir; only a zone with no usable snapshot
  /// pays for the full calibration survey.
  void start();

  /// Serve one query through the fault-tolerant path.  Drives the
  /// serving <-> degraded edge from the result's link-health verdict.
  /// Throws std::logic_error when !admissible() (callers gate on it).
  /// `trace` is the client's trace context (id + forced sampling);
  /// `queue_wait_ns` is how long the request sat between socket read
  /// and dispatch, stamped into the trace record.
  TafLocSystem::DegradedResult localize(std::span<const double> rss,
                                        const TraceContext& trace = {},
                                        std::uint64_t queue_wait_ns = 0);

  /// Record one refused admission (the server could not hand the query
  /// to localize()); feeds the zone.shed counter `taflocctl top` shows.
  void note_shed() noexcept;

  struct AmbientResult {
    bool accepted = false;   ///< false: zone not admissible.
    /// The scheduler's verdict on the sample itself: false when it was
    /// dropped (out-of-order timestamp or no finite entry).  A dropped
    /// sample leaves the zone clock untouched.
    bool sample_accepted = false;
    bool triggered = false;  ///< scheduler crossed the staleness threshold.
    bool resurvey_started = false;
    double staleness_db = 0.0;
  };
  /// Feed an ambient scan to the update scheduler; a trigger starts a
  /// supervised resurvey immediately (unless one is already in flight).
  AmbientResult observe_ambient(std::span<const double> ambient, double t_days);

  /// Result of feeding one node batch through the ingest front-end:
  /// exact per-batch accounting deltas plus the outcome of every round
  /// the batch completed (below the movement gate -> ambient into the
  /// scheduler, at/above it -> a localize query served inline).
  struct IngestResult {
    bool accepted = false;  ///< false: zone not admissible.
    std::uint64_t readings = 0;
    std::uint64_t dups_dropped = 0;
    std::uint64_t stale_dropped = 0;
    std::uint64_t bad_readings = 0;
    std::uint64_t rounds_completed = 0;
    std::uint64_t gated_ambient = 0;    ///< rounds classified ambient.
    std::uint64_t admitted_queries = 0; ///< rounds served as queries.
    double last_motion_db = 0.0;  ///< gate metric of the newest completed round.
    struct Query {
      double t_days = 0.0;
      double motion_db = 0.0;
      TafLocSystem::DegradedResult result;
    };
    std::vector<Query> queries;  ///< one per admitted round, oldest first.
  };
  /// Dedup + merge one node batch (see ingest::BatchAssembler), then
  /// gate every completed round on the symmetric diff against the
  /// scheduler baseline.  Ambient rounds flow through observe_ambient()
  /// (clock, staleness trigger, resurvey admission included); admitted
  /// rounds are served through localize().
  IngestResult ingest_batch(const ingest::NodeBatch& batch);

  /// Start a supervised reference re-survey at time `t_days`: survey
  /// through the zone's collector, stage the update, submit the solve
  /// to the job queue.  Returns false (no-op) when the zone is not
  /// admissible or an update is already in flight.
  bool request_resurvey(double t_days);

  /// Synthetic end-to-end check at a known location (see ProbeRequest).
  struct ProbeResult {
    Point2 truth{0.0, 0.0};
    Point2 estimate{0.0, 0.0};
    double error_m = 0.0;
    bool degraded = false;
  };
  ProbeResult probe();

  /// Apply finished background work: commit a solved update (atomic
  /// swap + snapshot) or abandon a failed one.  Serving-thread only;
  /// cheap no-op when nothing is pending.
  void poll();

  /// Graceful stop: refuse new admissions, wait out the in-flight
  /// solve, commit or abandon it, then (durable zones) WAL-flush and
  /// commit the epilogue snapshot.  Idempotent; leaves kStopped.
  void drain();

  /// True while an update is staged/solving/awaiting commit.
  bool update_in_flight() const noexcept;

  struct Status {
    ZoneState state = ZoneState::kLoading;
    std::uint64_t queries = 0;
    std::uint64_t updates_committed = 0;
    std::uint64_t updates_failed = 0;
    bool update_in_flight = false;
    double staleness_db = 0.0;
    double clock_days = 0.0;
    std::uint64_t wal_sequence = 0;  ///< 0 when not durable.
    std::string kernel_backend;      ///< active kernel backend (process-wide).
    bool quantized_tier = false;     ///< int8 scan tier active for this zone.
    // SLO accounting (all zero when slo_deadline_ms == 0).
    std::uint64_t slo_ok = 0;        ///< queries inside the deadline.
    std::uint64_t slo_violated = 0;  ///< queries past the deadline.
    double slo_budget_remaining = 0.0;  ///< violations the target still allows.
    bool slo_degraded = false;       ///< budget exhausted: annotate `degraded-slo`.
    std::uint64_t sheds = 0;         ///< admissions refused by the server.
    std::string last_error;
  };
  Status status() const;

  /// Live-apply new scheduler thresholds (taflocctl reload).  Throws
  /// std::invalid_argument, changing nothing, on an invalid config.
  void apply_scheduler_config(const SchedulerConfig& config);

  /// Called (from the worker thread) when background work finished and
  /// poll() has something to do -- wire this to the event loop's wakeup.
  void set_wakeup(std::function<void()> wakeup) { wakeup_ = std::move(wakeup); }

  /// Zone-labeled JSONL telemetry export (satellite of DESIGN.md §8).
  std::string telemetry_json() const { return system_.telemetry_snapshot_json(); }

  const TafLocSystem& system() const noexcept { return system_; }
  const ZoneConfig& config() const noexcept { return config_; }
  /// The zone's request-trace pipeline (ring + slow log); the server
  /// answers kTraceRequest from it.
  const Tracer& tracer() const noexcept { return tracer_; }

 private:
  enum class JobPhase : std::uint8_t { kIdle, kSolving, kSolved, kFailed };

  /// The one mutation point of state_: enforces the transition table
  /// and publishes the edge to telemetry.
  void transition(ZoneState to);
  /// Commit/abandon the finished update; returns to `resume_state_`
  /// only when still kResurveying (a drain overrides the return edge).
  void finish_update();
  double now_days() const noexcept { return clock_days_; }
  /// Violations the slo_target still allows minus those spent; negative
  /// once the error budget is exhausted.
  double slo_budget_remaining() const noexcept;

  ZoneConfig config_;
  JobQueue* jobs_;  ///< shared, not owned; nullptr = synchronous updates.
  Scenario scenario_;
  TafLocSystem system_;
  std::optional<UpdateScheduler> scheduler_;  ///< constructed in start().
  Rng rng_;
  Tracer tracer_;  ///< per-request tracing; feeds off system_'s registry.
  ingest::BatchAssembler assembler_;  ///< kBatchIngest dedup + merge state.

  // Cached telemetry handles (null when the registry is disabled) and
  // SLO accounting.  All serving-thread only.
  Histogram* request_hist_ = nullptr;    ///< zone.request_seconds.
  Counter* shed_counter_ = nullptr;      ///< zone.shed.
  Counter* ingest_batches_counter_ = nullptr;      ///< ingest.batches.
  Counter* ingest_readings_counter_ = nullptr;     ///< ingest.readings.
  Counter* ingest_dups_counter_ = nullptr;         ///< ingest.dups_dropped.
  Counter* ingest_stale_counter_ = nullptr;        ///< ingest.stale_dropped.
  Counter* ingest_bad_counter_ = nullptr;          ///< ingest.bad_readings.
  Counter* ingest_rounds_counter_ = nullptr;       ///< ingest.rounds_completed.
  Counter* ingest_expired_counter_ = nullptr;      ///< ingest.rounds_expired.
  Counter* ingest_gated_counter_ = nullptr;        ///< ingest.gated_ambient.
  Counter* ingest_admitted_counter_ = nullptr;     ///< ingest.admitted_queries.
  Counter* slo_ok_counter_ = nullptr;    ///< slo.ok.
  Counter* slo_violated_counter_ = nullptr;  ///< slo.violated.
  Gauge* slo_budget_gauge_ = nullptr;    ///< slo.budget_remaining.
  std::uint64_t slo_deadline_ns_ = 0;    ///< 0 = no latency SLO.
  std::uint64_t slo_ok_ = 0;
  std::uint64_t slo_violated_ = 0;
  std::uint64_t sheds_ = 0;

  ZoneState state_ = ZoneState::kLoading;
  ZoneState resume_state_ = ZoneState::kServing;  ///< post-resurvey return edge.
  double clock_days_ = 0.0;
  std::uint64_t queries_ = 0;
  std::uint64_t updates_committed_ = 0;
  std::uint64_t updates_failed_ = 0;
  std::uint64_t probes_ = 0;

  // In-flight update plumbing.  The serving thread owns inflight_ and
  // pending_*; the worker thread only reads inflight_ during the solve
  // and flips job_phase_ when done.  job_phase_ is the cross-thread
  // handshake: kSolving -> (kSolved | kFailed) happens on the worker,
  // every other edge on the serving thread.
  std::atomic<JobPhase> job_phase_{JobPhase::kIdle};
  std::unique_ptr<TafLocSystem::StagedUpdate> inflight_;
  Vector pending_ambient_;  ///< resurvey's ambient scan, for notify_updated.
  double pending_t_days_ = 0.0;
  std::function<void()> wakeup_;

  mutable std::mutex err_mu_;  ///< guards last_error_ (worker writes it).
  std::string last_error_;
};

}  // namespace tafloc::daemon
