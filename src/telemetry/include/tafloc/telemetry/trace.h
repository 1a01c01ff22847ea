// Request tracing: per-request stage-timing records that cross the
// process boundary (wire -> ControlServer -> Zone -> TafLocSystem ->
// matcher), a bounded lock-free trace ring, and a slow-query log.
//
// Relationship to ScopedSpan (span.h): spans are *ambient* stage
// telemetry -- every call lands in the registry's ring regardless of
// which request caused it.  Traces are *per-request*: a TraceScope is
// opened when a localize request is admitted, stages recorded while it
// is live attach to THAT request, and the completed TraceRecord carries
// the request outcome (confidence, degraded, zone state) next to its
// stage timings.  A stage site instruments once with TraceStage and is
// inert (one thread-local load + branch, no clock read) unless a scope
// is live on the calling thread -- so the library hot paths pay nothing
// when tracing is off or the caller is not the serving thread.
//
// Determinism contract (same as metrics.h): tracing only observes.  No
// serving code may branch on a trace value, so localization results are
// bit-identical with tracing off, sampled, or at 100%.
//
// Concurrency: the daemon serves from one thread, so ring writes are
// single-writer; readers (the same thread in taflocd, arbitrary threads
// in tests) validate a per-slot seqlock and drop slots caught
// mid-write.  The slow log is append-only with a reservation ticket --
// once full it counts drops instead of blocking or evicting.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace tafloc {

class Counter;
class MetricRegistry;

/// Client-settable request identity, carried over the wire.
struct TraceContext {
  /// 0 = unset; the zone assigns its request ordinal + 1 so every trace
  /// line has a stable non-zero id.
  std::uint64_t trace_id = 0;
  /// Client-forced sampling: record this request's trace even when the
  /// zone's periodic sampler would skip it.
  bool sampled = false;
};

/// Stage slots per trace record.  The record is a fixed-size POD so the
/// ring can copy it without allocation; overflow stages are counted in
/// `stages_dropped`, never silently lost.
inline constexpr std::size_t kTraceMaxStages = 16;

struct TraceStageRecord {
  const char* name = nullptr;  ///< string literal at the instrumentation site.
  std::uint32_t depth = 0;     ///< nesting level within the request.
  std::uint64_t start_ns = 0;  ///< relative to the request start.
  std::uint64_t duration_ns = 0;
};

/// One completed request.  Trivially copyable by design (seqlock ring
/// slots are copied while readers race); the zone state is a truncated
/// inline string for the same reason.
struct TraceRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t seq = 0;           ///< per-zone request ordinal (0-based).
  std::uint64_t start_ns = 0;      ///< relative to tracer creation.
  std::uint64_t queue_wait_ns = 0; ///< socket read -> dispatch start.
  std::uint64_t total_ns = 0;      ///< admission -> response ready.
  double confidence = 0.0;
  std::uint32_t links_used = 0;
  std::uint32_t links_total = 0;
  char state[16] = {0};            ///< zone lifecycle state at admission.
  bool served = false;
  bool degraded = false;
  bool sampled = false;            ///< landed in the trace ring.
  bool slow = false;               ///< crossed the slow-query threshold.
  bool fault_injected = false;     ///< artificially delayed (drills).
  std::uint32_t stage_count = 0;
  std::uint32_t stages_dropped = 0;
  std::array<TraceStageRecord, kTraceMaxStages> stages{};

  void set_state(const char* name) noexcept;
  void add_stage(const char* name, std::uint32_t depth, std::uint64_t start_ns_rel,
                 std::uint64_t duration_ns) noexcept;
};

static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "ring slots are copied under a seqlock; the record must stay POD");

/// Largest trace ring or slow log, in entries.  Both are allocated and
/// zeroed up front at about 600 bytes an entry, so this bounds each at
/// about 40 MB.  Their constructors throw std::invalid_argument beyond it.
inline constexpr std::size_t kMaxTraceEntries = std::size_t{1} << 16;

/// Longest per-request latency threshold (the slow-query threshold, a
/// zone's SLO deadline) accepted, in ms: one day.  Thresholds become
/// uint64 nanoseconds, which overflow past about 1.8e13 ms; Tracer's
/// constructor throws std::invalid_argument beyond this bound.
inline constexpr double kMaxLatencyThresholdMs = 86'400'000.0;

/// Bounded lock-free ring of completed trace records.  Single-writer
/// wait-free push (the serving thread); concurrent readers take a
/// best-effort snapshot, skipping any slot whose seqlock shows a write
/// in progress.  Capacity is rounded up to a power of two.
class TraceRing {
 public:
  /// capacity 0 disables the ring (push becomes a no-op); at most
  /// kMaxTraceEntries.
  explicit TraceRing(std::size_t capacity);

  void push(const TraceRecord& record) noexcept;

  /// Records pushed over the ring's lifetime (monotonic).
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  /// Records evicted by wraparound.
  std::uint64_t overwritten() const noexcept;
  std::size_t capacity() const noexcept { return capacity_; }

  /// Retained tail, oldest first, at most `max` newest records.  Slots
  /// caught mid-write are skipped rather than torn.
  std::vector<TraceRecord> snapshot(std::size_t max = static_cast<std::size_t>(-1)) const;

 private:
  struct Slot {
    /// Seqlock: odd while the writer is copying into `record`.
    std::atomic<std::uint64_t> seq{0};
    TraceRecord record;
  };

  std::size_t capacity_ = 0;  ///< power of two (or 0 = disabled).
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};  ///< next ticket.
};

/// Threshold-triggered full-trace log.  Append-only and bounded: once
/// the capacity is reached further slow requests increment `dropped()`
/// and are discarded -- the serving thread never blocks and earlier
/// evidence is never evicted.
class SlowLog {
 public:
  /// capacity 0 disables the log; at most kMaxTraceEntries.
  explicit SlowLog(std::size_t capacity);

  bool append(const TraceRecord& record) noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Entries retained (<= capacity).
  std::size_t size() const noexcept;
  /// Slow requests discarded because the log was full.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Retained entries, oldest first.
  std::vector<TraceRecord> entries() const;

 private:
  std::size_t capacity_ = 0;
  std::unique_ptr<TraceRecord[]> entries_;
  std::atomic<std::uint64_t> reserved_{0};   ///< append tickets handed out.
  std::atomic<std::uint64_t> committed_{0};  ///< entries fully written.
  std::atomic<std::uint64_t> dropped_{0};
};

struct TracerConfig {
  /// Completed sampled traces retained (rounded up to a power of two;
  /// 0 disables the ring; at most kMaxTraceEntries).
  std::size_t ring_capacity = 256;
  /// Slow-query log entries retained (0 disables the slow log; at most
  /// kMaxTraceEntries).
  std::size_t slow_log_capacity = 64;
  /// Periodic sampler: 0 = off, 1 = every request, N = every Nth.
  /// Client-forced TraceContext::sampled is honored regardless.
  std::uint64_t sample_every = 0;
  /// Requests slower than this land in the slow log (<= 0 = off; must
  /// be finite and at most kMaxLatencyThresholdMs).
  double slow_threshold_ms = 0.0;
  /// Zone attribution label for exported JSONL lines.
  std::string zone;
};

/// Per-zone trace pipeline: sampling decision, record routing (ring +
/// slow log), accounting counters, JSONL export.
class Tracer {
 public:
  explicit Tracer(const TracerConfig& config = {}, MetricRegistry* metrics = nullptr);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const TracerConfig& config() const noexcept { return config_; }
  /// True when any sink can fire (periodic sampling, slow log, or a
  /// client-forced sample with a live ring).
  bool active() const noexcept {
    return config_.sample_every > 0 || slow_threshold_ns_ > 0 || ring_.capacity() > 0;
  }
  /// True when stages are worth capturing for this request.
  bool wants_stages(bool sampled) const noexcept {
    return sampled || slow_threshold_ns_ > 0;
  }
  std::uint64_t slow_threshold_ns() const noexcept { return slow_threshold_ns_; }

  /// Hands out the request ordinal (also the periodic-sampling phase).
  std::uint64_t begin_request() noexcept {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  bool should_sample(const TraceContext& ctx, std::uint64_t seq) const noexcept {
    if (ctx.sampled && ring_.capacity() > 0) return true;
    return config_.sample_every > 0 && seq % config_.sample_every == 0;
  }

  /// Nanoseconds since the tracer was created (the time base of
  /// TraceRecord::start_ns).
  std::uint64_t now_ns() const noexcept;

  /// Routes a completed record: ring when sampled, slow log when past
  /// the threshold (sets record.slow), accounting counters always.
  void finish(TraceRecord& record) noexcept;

  const TraceRing& ring() const noexcept { return ring_; }
  const SlowLog& slow_log() const noexcept { return slow_log_; }
  std::uint64_t requests() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// One JSONL object (newline-terminated) per record:
  ///   {"type":"trace","zone":...,"trace_id":...,"stages":[...],...}
  static std::string record_json(const TraceRecord& record, const std::string& zone);
  /// Newest `max` sampled traces as JSONL, oldest first.
  std::string ring_json(std::size_t max = static_cast<std::size_t>(-1)) const;
  /// Slow-log entries as JSONL, oldest first, plus nothing else (the
  /// drop counter is exported through the metric registry).
  std::string slow_json() const;

 private:
  TracerConfig config_;
  std::uint64_t slow_threshold_ns_ = 0;
  std::uint64_t epoch_ns_ = 0;
  TraceRing ring_;
  SlowLog slow_log_;
  std::atomic<std::uint64_t> next_seq_{0};

  // Cached accounting handles (null when metrics are absent/disabled).
  Counter* requests_counter_ = nullptr;
  Counter* sampled_counter_ = nullptr;
  Counter* slow_counter_ = nullptr;
  Counter* slow_dropped_counter_ = nullptr;
};

namespace trace_detail {

/// The trace being built on this thread, installed by TraceScope.
struct ActiveTrace {
  TraceRecord* record = nullptr;
  std::uint64_t request_start_abs_ns = 0;  ///< absolute steady-clock ns.
  std::uint32_t depth = 0;
};

ActiveTrace* active() noexcept;
void set_active(ActiveTrace* trace) noexcept;
std::uint64_t steady_ns() noexcept;

}  // namespace trace_detail

/// RAII request scope: opens a TraceRecord, installs it as the
/// thread's active trace (when stages are wanted), and on destruction
/// stamps the total latency and hands the record to the tracer.
class TraceScope {
 public:
  TraceScope(Tracer& tracer, const TraceContext& ctx, std::uint64_t queue_wait_ns) noexcept;
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Outcome fields the caller fills before the scope closes.
  TraceRecord& record() noexcept { return record_; }
  bool sampled() const noexcept { return record_.sampled; }
  /// True when stages recorded on this thread attach to this request.
  bool capturing() const noexcept { return installed_; }

 private:
  Tracer& tracer_;
  TraceRecord record_{};
  trace_detail::ActiveTrace active_{};
  trace_detail::ActiveTrace* previous_ = nullptr;
  bool installed_ = false;
  bool live_ = false;  ///< false when the tracer is fully inactive.
};

/// RAII stage timer for the request trace.  One thread-local load and a
/// branch when no trace is being captured on this thread -- safe to
/// leave in library hot paths.
class TraceStage {
 public:
  /// `name` must be a string literal (the record stores the pointer).
  explicit TraceStage(const char* name) noexcept {
    active_ = trace_detail::active();
    if (active_ == nullptr) return;
    name_ = name;
    depth_ = active_->depth++;
    start_abs_ns_ = trace_detail::steady_ns();
  }
  ~TraceStage() {
    if (active_ == nullptr) return;
    --active_->depth;
    const std::uint64_t end = trace_detail::steady_ns();
    active_->record->add_stage(name_, depth_,
                               start_abs_ns_ - active_->request_start_abs_ns,
                               end - start_abs_ns_);
  }

  TraceStage(const TraceStage&) = delete;
  TraceStage& operator=(const TraceStage&) = delete;

 private:
  trace_detail::ActiveTrace* active_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_abs_ns_ = 0;
  std::uint32_t depth_ = 0;
};

}  // namespace tafloc
