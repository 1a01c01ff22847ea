#include "tafloc/telemetry/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "tafloc/telemetry/metrics.h"
#include "tafloc/util/check.h"

namespace tafloc {

namespace trace_detail {

namespace {
thread_local ActiveTrace* t_active = nullptr;
}  // namespace

ActiveTrace* active() noexcept { return t_active; }
void set_active(ActiveTrace* trace) noexcept { t_active = trace; }

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace trace_detail

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// The slow-query threshold in nanoseconds (0 = off), after checking
/// that the conversion is defined.
std::uint64_t slow_threshold_to_ns(double ms) {
  TAFLOC_CHECK_ARG(std::isfinite(ms) && ms <= kMaxLatencyThresholdMs,
                   "slow-query threshold must be finite and at most one day");
  return ms <= 0.0 ? 0 : static_cast<std::uint64_t>(ms * 1e6);
}

/// Same escaping rules as the metrics JSONL exporter (stage names are
/// literals, but the zone label and state come from config/runtime).
void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

// ---------------- TraceRecord ----------------

void TraceRecord::set_state(const char* name) noexcept {
  std::snprintf(state, sizeof(state), "%s", name == nullptr ? "" : name);
}

void TraceRecord::add_stage(const char* name, std::uint32_t depth,
                            std::uint64_t start_ns_rel, std::uint64_t duration_ns) noexcept {
  if (stage_count >= kTraceMaxStages) {
    ++stages_dropped;
    return;
  }
  stages[stage_count++] = TraceStageRecord{name, depth, start_ns_rel, duration_ns};
}

// ---------------- TraceRing ----------------

TraceRing::TraceRing(std::size_t capacity) {
  TAFLOC_CHECK_ARG(capacity <= kMaxTraceEntries, "trace ring capacity exceeds kMaxTraceEntries");
  if (capacity == 0) return;
  capacity_ = round_up_pow2(capacity);
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

void TraceRing::push(const TraceRecord& record) noexcept {
  if (capacity_ == 0) return;
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  // Seqlock write: odd while the copy is in flight.  There is one
  // writer (the serving thread), so the increment never races another
  // writer; readers that observe an odd value or a seq change drop the
  // slot instead of returning a torn record.
  const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_release);
  slot.record = record;
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);
}

std::uint64_t TraceRing::overwritten() const noexcept {
  const std::uint64_t total = pushed();
  return total > capacity_ ? total - capacity_ : 0;
}

std::vector<TraceRecord> TraceRing::snapshot(std::size_t max) const {
  std::vector<TraceRecord> out;
  if (capacity_ == 0) return out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t retained = std::min<std::uint64_t>(head, capacity_);
  const std::uint64_t want = std::min<std::uint64_t>(retained, max);
  out.reserve(want);
  // Oldest first within the requested newest-`max` window.
  for (std::uint64_t ticket = head - want; ticket < head; ++ticket) {
    const Slot& slot = slots_[ticket & mask_];
    const std::uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before % 2 != 0) continue;  // writer mid-copy.
    std::atomic_thread_fence(std::memory_order_acquire);
    TraceRecord copy = slot.record;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_acquire) != seq_before) continue;  // torn.
    out.push_back(copy);
  }
  return out;
}

// ---------------- SlowLog ----------------

SlowLog::SlowLog(std::size_t capacity) : capacity_(capacity) {
  TAFLOC_CHECK_ARG(capacity <= kMaxTraceEntries, "slow log capacity exceeds kMaxTraceEntries");
  if (capacity_ > 0) entries_ = std::make_unique<TraceRecord[]>(capacity_);
}

bool SlowLog::append(const TraceRecord& record) noexcept {
  if (capacity_ == 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::uint64_t index = reserved_.fetch_add(1, std::memory_order_relaxed);
  if (index >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  entries_[index] = record;
  committed_.fetch_add(1, std::memory_order_release);
  return true;
}

std::size_t SlowLog::size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(committed_.load(std::memory_order_acquire), capacity_));
}

std::vector<TraceRecord> SlowLog::entries() const {
  const std::size_t n = size();
  std::vector<TraceRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(entries_[i]);
  return out;
}

// ---------------- Tracer ----------------

Tracer::Tracer(const TracerConfig& config, MetricRegistry* metrics)
    : config_(config),
      slow_threshold_ns_(slow_threshold_to_ns(config.slow_threshold_ms)),
      epoch_ns_(trace_detail::steady_ns()),
      ring_(config.ring_capacity),
      slow_log_(config.slow_threshold_ms > 0.0 ? config.slow_log_capacity : 0),
      requests_counter_(registry_counter(metrics, "trace.requests")),
      sampled_counter_(registry_counter(metrics, "trace.sampled")),
      slow_counter_(registry_counter(metrics, "trace.slow")),
      slow_dropped_counter_(registry_counter(metrics, "trace.slowlog_dropped")) {}

std::uint64_t Tracer::now_ns() const noexcept {
  return trace_detail::steady_ns() - epoch_ns_;
}

void Tracer::finish(TraceRecord& record) noexcept {
  if (requests_counter_ != nullptr) requests_counter_->add();
  if (record.sampled) {
    if (sampled_counter_ != nullptr) sampled_counter_->add();
    ring_.push(record);
  }
  if (slow_threshold_ns_ > 0 && record.total_ns >= slow_threshold_ns_) {
    record.slow = true;
    if (slow_counter_ != nullptr) slow_counter_->add();
    if (!slow_log_.append(record) && slow_dropped_counter_ != nullptr)
      slow_dropped_counter_->add();
  }
}

std::string Tracer::record_json(const TraceRecord& record, const std::string& zone) {
  std::string out;
  out.reserve(256 + 96 * record.stage_count);
  out += "{\"type\":\"trace\"";
  if (!zone.empty()) {
    out += ",\"zone\":\"";
    json_escape_into(out, zone.c_str());
    out += '"';
  }
  out += ",\"trace_id\":";
  append_u64(out, record.trace_id);
  out += ",\"seq\":";
  append_u64(out, record.seq);
  out += ",\"start_ns\":";
  append_u64(out, record.start_ns);
  out += ",\"queue_wait_ns\":";
  append_u64(out, record.queue_wait_ns);
  out += ",\"total_ns\":";
  append_u64(out, record.total_ns);
  out += ",\"confidence\":";
  append_json_double(out, record.confidence);
  out += ",\"links_used\":";
  append_u64(out, record.links_used);
  out += ",\"links_total\":";
  append_u64(out, record.links_total);
  out += ",\"state\":\"";
  json_escape_into(out, record.state);
  out += "\",\"served\":";
  out += record.served ? "true" : "false";
  out += ",\"degraded\":";
  out += record.degraded ? "true" : "false";
  out += ",\"sampled\":";
  out += record.sampled ? "true" : "false";
  out += ",\"slow\":";
  out += record.slow ? "true" : "false";
  out += ",\"fault_injected\":";
  out += record.fault_injected ? "true" : "false";
  out += ",\"stages_dropped\":";
  append_u64(out, record.stages_dropped);
  out += ",\"stages\":[";
  for (std::uint32_t i = 0; i < record.stage_count; ++i) {
    const TraceStageRecord& stage = record.stages[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    json_escape_into(out, stage.name == nullptr ? "" : stage.name);
    out += "\",\"depth\":";
    append_u64(out, stage.depth);
    out += ",\"start_ns\":";
    append_u64(out, stage.start_ns);
    out += ",\"duration_ns\":";
    append_u64(out, stage.duration_ns);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string Tracer::ring_json(std::size_t max) const {
  std::string out;
  for (const TraceRecord& record : ring_.snapshot(max))
    out += record_json(record, config_.zone);
  return out;
}

std::string Tracer::slow_json() const {
  std::string out;
  for (const TraceRecord& record : slow_log_.entries())
    out += record_json(record, config_.zone);
  return out;
}

// ---------------- TraceScope ----------------

TraceScope::TraceScope(Tracer& tracer, const TraceContext& ctx,
                       std::uint64_t queue_wait_ns) noexcept
    : tracer_(tracer) {
  if (!tracer_.active()) return;  // fully off: no clock read, no install.
  live_ = true;
  const std::uint64_t seq = tracer_.begin_request();
  record_.seq = seq;
  record_.trace_id = ctx.trace_id != 0 ? ctx.trace_id : seq + 1;
  record_.queue_wait_ns = queue_wait_ns;
  record_.sampled = tracer_.should_sample(ctx, seq);
  record_.start_ns = tracer_.now_ns();
  if (tracer_.wants_stages(record_.sampled)) {
    active_.record = &record_;
    active_.request_start_abs_ns = trace_detail::steady_ns();
    previous_ = trace_detail::active();
    trace_detail::set_active(&active_);
    installed_ = true;
  }
}

TraceScope::~TraceScope() {
  if (!live_) return;
  if (installed_) {
    trace_detail::set_active(previous_);
    record_.total_ns = trace_detail::steady_ns() - active_.request_start_abs_ns;
  } else {
    record_.total_ns = tracer_.now_ns() - record_.start_ns;
  }
  tracer_.finish(record_);
}

}  // namespace tafloc
