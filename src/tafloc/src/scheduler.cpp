#include "tafloc/tafloc/scheduler.h"

#include <cmath>
#include <stdexcept>

#include "tafloc/storage/wal.h"
#include "tafloc/tafloc/durability.h"
#include "tafloc/telemetry/metrics.h"
#include "tafloc/util/check.h"
#include "tafloc/util/log.h"

namespace tafloc {

void check_scheduler_config(const SchedulerConfig& config) {
  TAFLOC_CHECK_ARG(config.staleness_threshold_db > 0.0, "staleness threshold must be positive");
  TAFLOC_CHECK_ARG(config.min_interval_days >= 0.0, "min interval must be non-negative");
  TAFLOC_CHECK_ARG(config.max_interval_days > config.min_interval_days,
                   "max interval must exceed min interval");
}

UpdateScheduler::UpdateScheduler(Vector ambient_at_update, double updated_at_days,
                                 const SchedulerConfig& config)
    : baseline_(std::move(ambient_at_update)),
      updated_at_(updated_at_days),
      last_observation_(updated_at_days),
      config_(config) {
  TAFLOC_CHECK_ARG(!baseline_.empty(), "scheduler needs at least one link");
  TAFLOC_CHECK_ARG(updated_at_days >= 0.0, "update time must be non-negative");
  check_scheduler_config(config);
}

void UpdateScheduler::attach_telemetry(MetricRegistry* registry) {
  telemetry_ = (registry != nullptr && registry->enabled()) ? registry : nullptr;
  staleness_gauge_ = registry_gauge(telemetry_, "scheduler.staleness_db");
  last_trigger_gauge_ = registry_gauge(telemetry_, "scheduler.last_trigger_days");
  observation_counter_ = registry_counter(telemetry_, "scheduler.observations");
  trigger_counter_ = registry_counter(telemetry_, "scheduler.update_triggers");
  dropped_counter_ = registry_counter(telemetry_, "scheduler.dropped_observations");
  dropped_out_of_order_counter_ =
      registry_counter(telemetry_, "scheduler.dropped_out_of_order");
  dropped_nan_counter_ = registry_counter(telemetry_, "scheduler.dropped_nan");
}

bool UpdateScheduler::observe_ambient(std::span<const double> ambient, double t_days) {
  TAFLOC_CHECK_ARG(ambient.size() == baseline_.size(), "ambient vector size mismatch");
  if (wal_ != nullptr) {
    // Write-ahead: the raw sample is logged (dropped ones included, so
    // replay reproduces the drop accounting too) before any state of
    // this scheduler changes.
    wal_->append(kWalAmbient, encode_ambient_record(t_days, ambient));
  }
  if (t_days < last_observation_) {
    // Out-of-order telemetry delivery is routine in a real deployment;
    // a stale sample carries no scheduling information -- drop it.
    TAFLOC_LOG_WARN << "scheduler: dropping out-of-order ambient sample at day " << t_days
                    << " (latest observation is day " << last_observation_ << ")";
    ++dropped_;
    ++dropped_out_of_order_;
    if (dropped_counter_ != nullptr) dropped_counter_->add();
    if (dropped_out_of_order_counter_ != nullptr) dropped_out_of_order_counter_->add();
    return false;
  }

  // Staleness over the finite entries only: a dead link parks NaN in
  // the scan, and one NaN must not poison the mean into a permanent
  // (or permanently suppressed) trigger.
  double sum = 0.0;
  std::size_t finite = 0;
  for (std::size_t i = 0; i < ambient.size(); ++i) {
    const double d = ambient[i] - baseline_[i];
    if (!std::isfinite(d)) continue;
    sum += std::abs(d);
    ++finite;
  }
  if (finite == 0) {
    TAFLOC_LOG_WARN << "scheduler: dropping ambient sample at day " << t_days
                    << " with no finite entries";
    ++dropped_;
    ++dropped_nan_;
    if (dropped_counter_ != nullptr) dropped_counter_->add();
    if (dropped_nan_counter_ != nullptr) dropped_nan_counter_->add();
    return false;
  }
  last_observation_ = t_days;
  staleness_ = sum / static_cast<double>(finite);

  const double age = t_days - updated_at_;
  bool trigger;
  if (age < config_.min_interval_days) {
    trigger = false;
  } else if (age >= config_.max_interval_days) {
    trigger = true;
  } else {
    trigger = staleness_ > config_.staleness_threshold_db;
  }
  if (telemetry_ != nullptr) {
    observation_counter_->add();
    staleness_gauge_->set(staleness_);
    if (trigger) {
      trigger_counter_->add();
      last_trigger_gauge_->set(t_days);
      // A zero-duration span: the timestamped update-trigger event in
      // the exported trace.
      telemetry_->record_span("scheduler.update_trigger", 0, telemetry_->now_ns(), 0);
    }
  }
  return trigger;
}

void UpdateScheduler::notify_updated(Vector fresh_ambient, double t_days) {
  TAFLOC_CHECK_ARG(fresh_ambient.size() == baseline_.size(), "ambient vector size mismatch");
  TAFLOC_CHECK_ARG(t_days >= updated_at_, "update times must not go back in time");
  if (wal_ != nullptr) wal_->append(kWalNotify, encode_ambient_record(t_days, fresh_ambient));
  baseline_ = std::move(fresh_ambient);
  updated_at_ = t_days;
  last_observation_ = t_days;
  staleness_ = 0.0;
  if (staleness_gauge_ != nullptr) staleness_gauge_->set(0.0);
}

void UpdateScheduler::save(storage::ByteWriter& out) const {
  out.put_f64_span(baseline_);
  out.put_f64(updated_at_);
  out.put_f64(last_observation_);
  out.put_f64(staleness_);
  out.put_u64(dropped_);
  out.put_u64(dropped_out_of_order_);
  out.put_u64(dropped_nan_);
  out.put_f64(config_.staleness_threshold_db);
  out.put_f64(config_.min_interval_days);
  out.put_f64(config_.max_interval_days);
}

void UpdateScheduler::restore(storage::ByteReader& in) {
  // Decode into locals and validate before committing anything: a
  // payload rejected halfway through must leave this scheduler exactly
  // as it was, not half-overwritten.
  Vector baseline = in.get_f64_vector();
  if (baseline.empty())
    throw std::runtime_error("UpdateScheduler::restore: empty baseline");
  const double updated_at = in.get_f64();
  const double last_observation = in.get_f64();
  const double staleness = in.get_f64();
  const std::size_t dropped = static_cast<std::size_t>(in.get_u64());
  const std::size_t dropped_out_of_order = static_cast<std::size_t>(in.get_u64());
  const std::size_t dropped_nan = static_cast<std::size_t>(in.get_u64());
  SchedulerConfig config;
  config.staleness_threshold_db = in.get_f64();
  config.min_interval_days = in.get_f64();
  config.max_interval_days = in.get_f64();
  // A NaN last_observation_ would silently disable the out-of-order
  // drop (every `t_days < last_observation_` comparison is false), so
  // non-finite clocks are corruption, not state.  The clocks must also
  // be mutually consistent: observations never predate the update that
  // reset them.
  if (!std::isfinite(updated_at) || !std::isfinite(last_observation) ||
      !std::isfinite(staleness) || !std::isfinite(config.staleness_threshold_db) ||
      !std::isfinite(config.min_interval_days) || !std::isfinite(config.max_interval_days))
    throw std::runtime_error("UpdateScheduler::restore: non-finite payload values");
  if (!(updated_at >= 0.0) || !(last_observation >= updated_at) || !(staleness >= 0.0) ||
      !(config.staleness_threshold_db > 0.0) || !(config.min_interval_days >= 0.0) ||
      !(config.max_interval_days > config.min_interval_days))
    throw std::runtime_error("UpdateScheduler::restore: inconsistent payload values");
  baseline_ = std::move(baseline);
  updated_at_ = updated_at;
  last_observation_ = last_observation;
  staleness_ = staleness;
  dropped_ = dropped;
  dropped_out_of_order_ = dropped_out_of_order;
  dropped_nan_ = dropped_nan;
  config_ = config;
  if (staleness_gauge_ != nullptr) staleness_gauge_->set(staleness_);
}

bool operator==(const UpdateScheduler& a, const UpdateScheduler& b) noexcept {
  return a.baseline_ == b.baseline_ && a.updated_at_ == b.updated_at_ &&
         a.last_observation_ == b.last_observation_ && a.staleness_ == b.staleness_ &&
         a.dropped_ == b.dropped_ && a.dropped_out_of_order_ == b.dropped_out_of_order_ &&
         a.dropped_nan_ == b.dropped_nan_ &&
         a.config_.staleness_threshold_db == b.config_.staleness_threshold_db &&
         a.config_.min_interval_days == b.config_.min_interval_days &&
         a.config_.max_interval_days == b.config_.max_interval_days;
}

}  // namespace tafloc
