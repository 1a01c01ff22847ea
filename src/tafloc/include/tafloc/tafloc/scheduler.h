// UpdateScheduler -- the "time-adaptive" part of TafLoc: decide WHEN to
// run the low-cost fingerprint update.
//
// The trigger signal is free: the per-link ambient RSS (no target, no
// human labour) can be scanned any time, and the dominant fingerprint
// staleness is exactly the ambient drift (per-link offsets).  The
// scheduler tracks the mean absolute ambient change since the last
// update and requests a refresh when it crosses a threshold -- so a
// quiet month costs nothing while a week of fast drift (weather swing,
// furniture moved) triggers an early update.  Interval clamps bound
// both the update rate and the worst-case staleness.
#pragma once

#include <cstddef>
#include <span>

#include "tafloc/linalg/matrix.h"
#include "tafloc/storage/codec.h"

namespace tafloc {

class Counter;
class Gauge;
class MetricRegistry;

namespace storage {
class WalWriter;
}  // namespace storage

struct SchedulerConfig {
  double staleness_threshold_db = 3.0;  ///< trigger level for the mean ambient drift.
  double min_interval_days = 1.0;       ///< never update more often than this.
  double max_interval_days = 45.0;      ///< always update at least this often.
};

/// Throws std::invalid_argument unless staleness_threshold_db > 0,
/// min_interval_days >= 0 and max_interval_days > min_interval_days
/// (NaN fails all three).  The one rule for construction and live
/// reconfiguration alike.
void check_scheduler_config(const SchedulerConfig& config);

class UpdateScheduler {
 public:
  /// Start from the ambient scan taken at the last (or initial) update.
  UpdateScheduler(Vector ambient_at_update, double updated_at_days,
                  const SchedulerConfig& config = {});

  /// Feed a cheap ambient scan at time `t_days`; returns true when an
  /// update should run now.  A sample timestamped before the latest one
  /// (out-of-order telemetry delivery) is dropped -- warn log, a
  /// scheduler.dropped_observations count, return false -- rather than
  /// killing the serving process.  Non-finite per-link entries (dead
  /// links) are excluded from the staleness mean; a scan with no finite
  /// entry at all is dropped the same way.
  bool observe_ambient(std::span<const double> ambient, double t_days);

  /// Out-of-order / unusable samples dropped so far (mirrors the
  /// scheduler.dropped_observations counter when telemetry is attached).
  std::size_t dropped_observations() const noexcept { return dropped_; }
  /// Per-reason drop counts (each also exported as its own counter --
  /// scheduler.dropped_out_of_order / scheduler.dropped_nan -- so the
  /// JSONL snapshot distinguishes clock problems from dead radios).
  std::size_t dropped_out_of_order() const noexcept { return dropped_out_of_order_; }
  std::size_t dropped_nan() const noexcept { return dropped_nan_; }

  /// Mean absolute per-link ambient change since the last update, from
  /// the most recent observation (0 before any observation).
  double estimated_staleness_db() const noexcept { return staleness_; }

  /// Record that an update ran (resets the baseline and the clock).
  void notify_updated(Vector fresh_ambient, double t_days);

  double last_update_days() const noexcept { return updated_at_; }
  /// Timestamp of the latest *accepted* ambient observation (equals
  /// last_update_days() right after an update); dropped samples never
  /// move it.
  double last_observation_days() const noexcept { return last_observation_; }
  /// The ambient scan taken at the last update -- the reference the
  /// staleness mean (and the ingest movement gate) compares against.
  const Vector& baseline() const noexcept { return baseline_; }
  const SchedulerConfig& config() const noexcept { return config_; }
  /// Live-apply new trigger thresholds (taflocd config reload); the
  /// baseline and accumulators are untouched, so the next observation
  /// is judged against the new thresholds only.  Throws (and keeps the
  /// old thresholds) on a config the constructor would reject.
  void set_config(const SchedulerConfig& config) {
    check_scheduler_config(config);
    config_ = config;
  }

  /// Point scheduler.* metrics at `registry` (typically the owning
  /// TafLocSystem's): staleness gauge in dB, observation / trigger
  /// counters, last-trigger-time gauge, and one timestamped
  /// "scheduler.update_trigger" event in the span trace per trigger.
  /// nullptr or a disabled registry detaches.
  void attach_telemetry(MetricRegistry* registry);

  /// Point the ambient write-ahead log at `wal` (typically the owning
  /// TafLocSystem's): every observe_ambient() input is appended -- and
  /// durable within the WAL's fsync batch -- *before* it mutates the
  /// staleness accumulators, so replay after a crash reproduces this
  /// scheduler's state exactly.  nullptr detaches (and during recovery
  /// replay, so replayed samples are not re-logged).
  void attach_wal(storage::WalWriter* wal) noexcept { wal_ = wal; }

  /// Serialize the adaptive state -- baseline ambient (bit-exact),
  /// last-update clock, staleness accumulator, drop counts, config.
  void save(storage::ByteWriter& out) const;
  /// Overwrite this scheduler's state from a payload written by save()
  /// (in place: telemetry/WAL attachments survive).  Throws
  /// std::runtime_error on truncated or inconsistent input.
  void restore(storage::ByteReader& in);

  /// Exact state equality, attachments excluded (persistence tests).
  friend bool operator==(const UpdateScheduler& a, const UpdateScheduler& b) noexcept;

 private:
  Vector baseline_;
  double updated_at_;
  double last_observation_ = 0.0;
  double staleness_ = 0.0;
  std::size_t dropped_ = 0;
  std::size_t dropped_out_of_order_ = 0;
  std::size_t dropped_nan_ = 0;
  SchedulerConfig config_;

  // Telemetry handles (all null when detached; see attach_telemetry).
  MetricRegistry* telemetry_ = nullptr;
  Gauge* staleness_gauge_ = nullptr;
  Gauge* last_trigger_gauge_ = nullptr;
  Counter* observation_counter_ = nullptr;
  Counter* trigger_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Counter* dropped_out_of_order_counter_ = nullptr;
  Counter* dropped_nan_counter_ = nullptr;

  storage::WalWriter* wal_ = nullptr;  ///< ambient WAL (null when not durable).
};

}  // namespace tafloc
