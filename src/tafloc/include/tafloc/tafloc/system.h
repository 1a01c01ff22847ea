// TafLocSystem -- the end-to-end system facade.
//
// Lifecycle (mirrors the paper's deployment):
//
//   1. calibrate(full_survey, ambient, t0)
//        one labour-intensive full survey; learns the reference
//        locations (column-pivoted QR), the LRR correlation Z, and the
//        distortion mask from the data.
//   2. update(fresh_reference_columns, fresh_ambient, t)
//        the low-cost refresh: n reference grids re-surveyed + one
//        ambient scan; runs LoLi-IR and swaps in the reconstructed
//        fingerprint matrix.
//   3. localize(rss)
//        weighted-KNN fingerprint matching against the current matrix.
//
// TafLocSystem implements Localizer so the Fig. 5 harness can drive it
// uniformly alongside RTI and RASS.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "tafloc/fingerprint/database.h"
#include "tafloc/fingerprint/distortion.h"
#include "tafloc/fingerprint/reference.h"
#include "tafloc/loc/localizer.h"
#include "tafloc/loc/matcher.h"
#include "tafloc/recon/loli_ir.h"
#include "tafloc/recon/lrr.h"
#include "tafloc/sim/collector.h"
#include "tafloc/sim/deployment.h"
#include "tafloc/tafloc/durability.h"
#include "tafloc/telemetry/metrics.h"

namespace tafloc {

class UpdateScheduler;

namespace storage {
class SnapshotStore;
class WalWriter;
}  // namespace storage

/// Everything calibrate() (plus any later updates) learned -- enough to
/// restore a working system in a fresh process without re-surveying
/// (export_state / import_state).  Durable zones persist the same state
/// as binary snapshots plus a WAL (attach_durability / save / recover).
struct TafLocState {
  Matrix fingerprints;
  Vector ambient;
  double surveyed_at_days = 0.0;
  Matrix correlation;  ///< the LRR Z matrix (n x N).
  std::vector<std::size_t> reference_indices;
  Matrix mask_undistorted;
};

/// The system always picks references by column-pivoted QR, fits LRR
/// with LrrOptions' default ridge, restricts the G/H pair terms to the
/// learned distorted support, and serves KNN queries through the int8
/// pre-pass + exact re-rank (matcher.h) once the database's
/// QuantizedTier is ready -- bit-identical to the float scan.
struct TafLocConfig {
  std::size_t reference_count = 0;  ///< 0 = automatic (numeric rank of the survey).
  DistortionConfig distortion;
  LoliIrConfig solver;
  std::size_t knn_k = 3;            ///< localization matcher neighbours.
  /// Initial re-rank candidate budget as a multiple of knn_k (see
  /// KnnMatcher::set_rerank_multiplier).  Speed knob only.
  std::size_t knn_rerank_alpha = 4;
  /// Observability settings.  Each system owns its own MetricRegistry
  /// (no process-wide telemetry state); with enabled == false the
  /// registry stays inert and every instrumented path short-circuits.
  /// Telemetry never changes results -- localization and reconstruction
  /// are bit-identical with it on or off, at any thread count.
  TelemetryConfig telemetry;
};

class TafLocSystem : public Localizer {
 public:
  /// The deployment must outlive the system.
  explicit TafLocSystem(const Deployment& deployment, const TafLocConfig& config = {});
  /// Movable (factory helpers / containers); re-points the matcher's
  /// borrowed link-health reference at the moved-to database.
  TafLocSystem(TafLocSystem&& other) noexcept;
  TafLocSystem& operator=(TafLocSystem&&) = delete;
  ~TafLocSystem() override;

  /// One-time calibration from a full survey (M x N) and the
  /// same-epoch ambient scan, at elapsed time `t_days`.
  void calibrate(const Matrix& full_survey, Vector ambient, double t_days);

  /// Diagnostics of one fingerprint update.
  struct UpdateReport {
    LoliIrResult solver;
    double updated_at_days = 0.0;
    std::size_t references_surveyed = 0;
  };

  /// Low-cost update from freshly surveyed reference columns (M x n, in
  /// reference_locations() order) and a fresh ambient scan.  Rows of
  /// links the LinkHealth mask marks dead -- or whose fresh readings are
  /// non-finite, which marks them dead here -- are excluded from the
  /// reconstruction's data/reference terms (LoLi-IR row_observed) and
  /// patched from the current database, so an update with faulty links
  /// degrades gracefully instead of aborting or poisoning the matrix.
  /// Equivalent to stage_update + solve_staged_update + commit_update
  /// run back to back (bit-identical results).
  UpdateReport update(const Matrix& fresh_reference_columns, Vector fresh_ambient,
                      double t_days);

  // -- staged (off-thread) updates: the daemon's supervised resurvey --
  //
  // A recalibration must never block serving, so the expensive solve is
  // split out of the swap:
  //
  //   StagedUpdate staged = system.stage_update(cols, ambient, t);
  //       // serving thread: WAL append + sanitization + problem build.
  //   system.solve_staged_update(staged);
  //       // ANY thread: pure LoLi-IR solve; touches no system state, so
  //       // localize()/localize_degraded() keep answering from the old
  //       // matrix meanwhile.
  //   report = system.commit_update(std::move(staged));
  //       // serving thread: atomic swap of the reconstructed matrix,
  //       // telemetry, snapshot.  Serialized against save().
  //
  // At most one update may be staged at a time (stage_update throws on
  // a second).  A durable save() issued between stage and commit stamps
  // its coverage *before* the staged WAL record, so recovery replays
  // the in-flight update instead of losing it.

  /// An update admitted but not yet applied.  Opaque to callers beyond
  /// the diagnostics below; move-only bookkeeping travels through it
  /// from stage to commit.
  struct StagedUpdate {
    double t_days = 0.0;
    std::size_t references_surveyed = 0;
    LoliIrProblem problem;
    Vector sanitized_ambient;
    LoliIrResult solver;     ///< filled by solve_staged_update.
    bool solved = false;
    std::uint64_t wal_seq = 0;  ///< the kWalUpdate record (0 when not durable).
  };

  /// Admission: write-ahead-log the raw inputs, run fault sanitization
  /// (non-finite fresh rows mark their link dead) and build the solver
  /// problem from the CURRENT database.  Call on the serving thread.
  StagedUpdate stage_update(const Matrix& fresh_reference_columns, Vector fresh_ambient,
                            double t_days);

  /// The expensive part: builds the continuity and similarity pair sets
  /// from the staged problem's B, then runs LoLi-IR on it.  Reads no
  /// mutable system state -- safe to run on a worker thread while the
  /// serving thread keeps localizing against the old matrix.
  void solve_staged_update(StagedUpdate& staged) const;

  /// Swap the reconstructed matrix in, publish telemetry, and (when
  /// durable) commit a snapshot.  Serialized against save() -- a drain
  /// mid-recalibration sees either the old matrix or the new one, never
  /// a torn state.  Call on the serving thread.
  UpdateReport commit_update(StagedUpdate staged);

  /// Discard a staged update without applying it (solver failure in a
  /// supervised job).  The WAL record already written stays in the log,
  /// so a crash-recovery replay MAY apply the abandoned update -- the
  /// recovered state is consistent, just not bit-identical to a live
  /// process that dropped it.
  void abandon_staged_update(const StagedUpdate& staged) noexcept;

  /// True while an update is staged but not yet committed or abandoned.
  bool update_staged() const noexcept;

  /// Convenience: perform the reference survey + ambient scan through a
  /// collector, then update.
  UpdateReport update_with_collector(const FingerprintCollector& collector, double t_days,
                                     Rng& rng);

  // -- Localizer interface --
  Point2 localize(std::span<const double> rss) const override;
  std::string name() const override { return "TafLoc"; }

  /// One degraded-mode answer: the estimate plus how much of the
  /// deployment actually produced it.
  struct DegradedResult {
    Point2 point{0.0, 0.0};
    std::size_t links_used = 0;       ///< healthy links in the distance scan.
    std::size_t links_total = 0;      ///< deployment link count.
    std::size_t gated_neighbors = 0;  ///< KNN neighbours dropped by the spatial gate.
    /// links_used / links_total; 0 when the query was unservable.
    double confidence = 0.0;
    bool degraded = false;            ///< at least one link was masked out.
    bool served = false;              ///< false only when every link is dead.
  };

  /// Fault-tolerant serving path.  Feeds `rss` through the database's
  /// LinkHealth state machine (NaN / stuck links transition to Dead),
  /// then matches over the surviving links only.  Never throws on link
  /// faults: with every link dead it returns the area centre with
  /// confidence 0 and served == false instead of aborting the process.
  /// Telemetry: system.degraded_queries / system.unservable_queries
  /// counters, system.links_dead / system.links_alive gauges, and a
  /// system.degraded_fraction gauge over this system's query history.
  /// With all links healthy the estimate is bit-identical to localize().
  DegradedResult localize_degraded(std::span<const double> rss);

  /// True once calibrate() has run.
  bool calibrated() const noexcept { return database_.has_value(); }

  /// True when localize() currently serves through the quantized
  /// pre-pass (calibrated, and the database's int8 tier is ready).
  /// Surfaced in zone status / taflocctl.
  bool quantized_tier_active() const noexcept;

  /// Chosen reference grid indices (available after calibration).
  const std::vector<std::size_t>& reference_locations() const;

  /// Current fingerprint database (available after calibration).
  const FingerprintDatabase& database() const;

  /// The per-link serving mask shared by the matcher, the reconstruction
  /// (row_observed) and the degraded serving path.  Pin links dead here
  /// (operator drain) or let localize_degraded()'s observe() calls drive
  /// it.  Available after calibration.
  LinkHealth& link_health();
  const LinkHealth& link_health() const;

  /// The learned LRR model (available after calibration).
  const LrrModel& lrr() const;

  /// The distortion mask learned at calibration.
  const DistortionMask& distortion_mask() const;

  // -- durability (snapshot + WAL crash recovery; DESIGN.md section 10) --

  /// Open (creating if needed) the zone state directory and arm the
  /// durability path: calibrate()/update() commit checksummed snapshot
  /// generations, and localize_degraded() / an attached scheduler
  /// write-ahead-log their state-changing inputs between snapshots.
  /// Call before calibrate() on a fresh zone, or before recover() on a
  /// restarted one.
  void attach_durability(const DurabilityConfig& config);

  /// Include `scheduler` in snapshots and point its ambient WAL at
  /// this system's log.  The scheduler must outlive the system (or be
  /// detached with nullptr first).  Attach before save()/recover() so
  /// the scheduler's accumulators ride the same recovery path.
  void attach_scheduler(UpdateScheduler* scheduler);

  bool durable() const noexcept { return store_ != nullptr; }

  /// Commit a snapshot of the full zone state now and rotate the WAL.
  /// Requires attach_durability() and a calibrated system.  Thread-safe
  /// against a concurrent commit_update(): the snapshot captures either
  /// the pre-swap or the post-swap state, and while an update is staged
  /// the coverage stamp stops just before its WAL record so recovery
  /// still replays it.
  void save();

  /// Restore this system from the zone directory: newest valid
  /// snapshot generation (falling back one generation when the newest
  /// fails its checksum), then in-order replay of every intact WAL
  /// record the snapshot does not cover; finishes by committing a
  /// fresh snapshot of the recovered state.  On kUnrecoverable the
  /// system is left uncalibrated (re-survey).  Outcome is mirrored
  /// into the telemetry registry (durability.recovery.*).
  RecoveryReport recover();

  /// WAL sequence the next durable mutation will carry.
  std::uint64_t durable_sequence() const noexcept;

  /// Snapshot of the learned state (requires a calibrated system).
  TafLocState export_state() const;

  /// Restore a previously exported state (shapes must match this
  /// system's deployment); leaves the system calibrated and ready to
  /// update()/localize() without any survey.
  void import_state(const TafLocState& state);

  const TafLocConfig& config() const noexcept { return config_; }
  const Deployment& deployment() const noexcept { return deployment_; }

  /// This system's metric registry: solver iteration counters, stage
  /// spans, per-query latency histograms, scheduler gauges (when an
  /// UpdateScheduler is attached to it) all land here.
  MetricRegistry& telemetry() noexcept { return *telemetry_; }
  const MetricRegistry& telemetry() const noexcept { return *telemetry_; }

  /// JSONL snapshot of every metric plus the recent span trace; samples
  /// the shared thread pool's exec.pool.* gauges first so the export is
  /// self-contained.  One JSON object per line (see MetricRegistry::
  /// snapshot_json for the schema).
  std::string telemetry_snapshot_json() const;

 private:
  void rebuild_matcher();

  // -- durability internals (all no-ops until attach_durability) --
  /// Body of save(); commit_mu_ must be held.
  void save_locked();
  std::string wal_segment_path(std::uint64_t generation) const;
  void rotate_wal(std::uint64_t generation);
  std::string encode_zone_payload() const;
  void install_zone_payload(std::string_view payload);
  void replay_wal(std::uint64_t from_seq, RecoveryReport& report);

  const Deployment& deployment_;
  TafLocConfig config_;
  std::optional<FingerprintDatabase> database_;
  std::optional<LrrModel> lrr_;
  std::optional<DistortionMask> mask_;
  std::vector<std::size_t> reference_indices_;
  std::unique_ptr<KnnMatcher> matcher_;
  std::unique_ptr<MetricRegistry> telemetry_;  ///< per-system, never global.

  // Degraded-serving bookkeeping (mirrored into telemetry when attached).
  std::size_t degraded_query_count_ = 0;
  std::size_t total_degraded_calls_ = 0;
  // Their metric handles, resolved once at construction (null when
  // telemetry is disabled), so localize_degraded never looks a name up
  // under the registry lock.  The registry is owned through telemetry_'s
  // unique_ptr, so the metric objects do not move when the system does:
  // the move constructor copies these pointers as they are.
  Counter* degraded_queries_ = nullptr;
  Counter* unservable_queries_ = nullptr;
  Gauge* links_dead_ = nullptr;
  Gauge* links_alive_ = nullptr;
  Gauge* degraded_fraction_ = nullptr;

  // Durability state (see attach_durability / save / recover).
  DurabilityConfig durability_;
  std::unique_ptr<storage::SnapshotStore> store_;
  std::unique_ptr<storage::WalWriter> wal_;
  UpdateScheduler* scheduler_ = nullptr;  ///< snapshotted + WAL-fed when set.
  std::uint64_t oldest_wal_gen_ = 1;      ///< oldest segment possibly still on disk.
  std::uint64_t generation_ = 0;          ///< last committed snapshot generation.
  std::uint64_t next_seq_ = 1;            ///< next WAL sequence number.
  bool replaying_ = false;                ///< recovery replay: no re-logging/snapshots.

  // Staged-update supervision: commit_mu_ serializes the swap (commit_
  // update) against save(), and the staged bookkeeping keeps a snapshot
  // taken mid-recalibration from claiming coverage of the in-flight
  // update's WAL record.
  mutable std::mutex commit_mu_;
  bool staged_pending_ = false;   ///< one update staged, not yet committed.
  std::uint64_t staged_seq_ = 0;  ///< its WAL sequence (durable systems).
};

}  // namespace tafloc
