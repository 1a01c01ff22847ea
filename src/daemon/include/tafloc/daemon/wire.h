// taflocd wire protocol -- versioned, length-prefixed, checksummed
// packets over a Unix domain socket.
//
// Every packet is one storage::Frame (record.h): the u32 `type` is the
// PacketType, the u64 `seq` is a client-chosen request id echoed in the
// response, and the payload begins with a u32 wire version followed by
// the packet's fields in the bounds-checked ByteWriter/ByteReader
// codec.  The frame CRC32C already rejects torn or bit-flipped packets,
// so the daemon distinguishes exactly three receive outcomes:
//
//   kPacket   -- one complete, checksummed frame extracted;
//   kNeedMore -- the buffer ends mid-frame (keep reading);
//   kCorrupt  -- framing is lost on this connection (the server answers
//                with one kError packet and closes it; other
//                connections and zones are untouched).
//
// A version mismatch or malformed payload inside an intact frame throws
// from decode; the server maps that to a kError response on the same
// connection without crashing.
//
// Each packet struct states its layout once: `kType` names its packet
// type and `fields(self, visit)` hands its members to `visit` in wire
// order.  One writer and one reader in wire.cpp walk that list for
// every packet (and for the nested entries ZoneStatus, ZoneMetrics,
// WireHistogram and IngestQuery), so a packet's encode and decode can
// never disagree.  Field encodings: std::string as u64 length + bytes,
// std::vector as u64 count + elements, std::uint64_t / double as 8
// bytes, bool and the u8 enums as one byte, ingest::NodeBatch as its
// own versioned payload.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tafloc/ingest/batch.h"
#include "tafloc/storage/record.h"

namespace tafloc::daemon {

/// Bumped on any incompatible payload change; packets carrying another
/// version are rejected per-packet (kBadRequest) without harming the
/// connection or any zone.
/// v2: ZoneStatus grew kernel_backend + quantized_tier.
/// v3: LocalizeRequest grew the trace context (trace_id + sampled);
///     ZoneStatus grew the SLO block; new kMetricsRequest/Response and
///     kTraceRequest/Response packets for live introspection.
/// v4: new kBatchIngestRequest/Response (edge node batches through the
///     dedup/merge/movement-gate front-end); AmbientResponse grew the
///     scheduler's sample_accepted verdict.
inline constexpr std::uint32_t kWireVersion = 4;

enum class PacketType : std::uint32_t {
  kError = 0,  ///< server -> client: request rejected (status + message).
  kLocalizeRequest = 1,
  kLocalizeResponse = 2,
  kAmbientRequest = 3,
  kAmbientResponse = 4,
  kResurveyRequest = 5,
  kResurveyResponse = 6,
  kStatusRequest = 7,
  kStatusResponse = 8,
  kAdminRequest = 9,
  kAdminResponse = 10,
  kProbeRequest = 11,
  kProbeResponse = 12,
  kMetricsRequest = 13,
  kMetricsResponse = 14,
  kTraceRequest = 15,
  kTraceResponse = 16,
  kBatchIngestRequest = 17,
  kBatchIngestResponse = 18,
};

const char* packet_type_name(PacketType type);

enum class WireStatus : std::uint8_t {
  kOk = 0,
  kUnknownZone = 1,   ///< no zone of that name in this daemon.
  kNotServing = 2,    ///< zone is draining / stopped; admission refused.
  kBadRequest = 3,    ///< malformed payload or unsupported version.
  kInternalError = 4, ///< zone raised; details in `message`.
};

const char* wire_status_name(WireStatus status);

// -- requests --

struct LocalizeRequest {
  static constexpr PacketType kType = PacketType::kLocalizeRequest;

  std::string zone;
  std::vector<double> rss;  ///< one reading per deployment link.
  /// Trace context: a client-chosen id echoed into the zone's trace
  /// records (0 = let the zone assign one) and a flag forcing this
  /// request into the sampled trace ring regardless of the zone's
  /// periodic sampler.
  std::uint64_t trace_id = 0;
  bool trace_sampled = false;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.zone, s.rss, s.trace_id, s.trace_sampled); }
  std::string encode(std::uint64_t seq) const;
  static LocalizeRequest decode(const storage::Frame& frame);
};

/// Feed one ambient scan into the zone's update scheduler.
struct AmbientRequest {
  static constexpr PacketType kType = PacketType::kAmbientRequest;

  std::string zone;
  std::vector<double> ambient;
  double t_days = 0.0;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.zone, s.ambient, s.t_days); }
  std::string encode(std::uint64_t seq) const;
  static AmbientRequest decode(const storage::Frame& frame);
};

/// Explicitly kick a supervised reference re-survey (LoLi-IR update).
struct ResurveyRequest {
  static constexpr PacketType kType = PacketType::kResurveyRequest;

  std::string zone;
  double t_days = 0.0;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.zone, s.t_days); }
  std::string encode(std::uint64_t seq) const;
  static ResurveyRequest decode(const storage::Frame& frame);
};

/// Zone status; empty `zone` means every zone.
struct StatusRequest {
  static constexpr PacketType kType = PacketType::kStatusRequest;

  std::string zone;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.zone); }
  std::string encode(std::uint64_t seq) const;
  static StatusRequest decode(const storage::Frame& frame);
};

enum class AdminOp : std::uint8_t {
  kDrain = 1,     ///< graceful stop of one zone (or all when zone == "").
  kReload = 2,    ///< re-read the config file; apply scheduler changes.
  kShutdown = 3,  ///< drain every zone, then stop the daemon.
};

const char* admin_op_name(AdminOp op);

struct AdminRequest {
  static constexpr PacketType kType = PacketType::kAdminRequest;

  AdminOp op = AdminOp::kDrain;
  std::string zone;  ///< empty = daemon-wide.

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.op, s.zone); }
  std::string encode(std::uint64_t seq) const;
  static AdminRequest decode(const storage::Frame& frame);
};

/// Synthetic end-to-end check: the (sim-backed) zone generates one
/// observation at a known location, serves it through the localization
/// path, and reports truth vs. estimate.  Lets taflocctl and the CI
/// smoke drive real traffic without shipping RSS vectors.
struct ProbeRequest {
  static constexpr PacketType kType = PacketType::kProbeRequest;

  std::string zone;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.zone); }
  std::string encode(std::uint64_t seq) const;
  static ProbeRequest decode(const storage::Frame& frame);
};

/// Snapshot a zone's metric registry over the wire (empty `zone` =
/// every zone).  Powers `taflocctl top` without touching the JSONL
/// export path.
struct MetricsRequest {
  static constexpr PacketType kType = PacketType::kMetricsRequest;

  std::string zone;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.zone); }
  std::string encode(std::uint64_t seq) const;
  static MetricsRequest decode(const storage::Frame& frame);
};

/// Pull retained trace records from a zone: the newest `max` sampled
/// traces, or the slow-query log when `slow` is set.
struct TraceRequest {
  static constexpr PacketType kType = PacketType::kTraceRequest;

  std::string zone;
  std::uint64_t max = 64;  ///< newest-N cap for the sampled ring.
  bool slow = false;       ///< true: return the slow-query log instead.

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.zone, s.max, s.slow); }
  std::string encode(std::uint64_t seq) const;
  static TraceRequest decode(const storage::Frame& frame);
};

/// One node batch into a zone's ingest front-end (dedup + merge +
/// movement gate); the batch payload is the shared ingest codec, so a
/// node's store-and-forward file replays over the wire unmodified.
struct BatchIngestRequest {
  static constexpr PacketType kType = PacketType::kBatchIngestRequest;

  std::string zone;
  ingest::NodeBatch batch;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.zone, s.batch); }
  std::string encode(std::uint64_t seq) const;
  static BatchIngestRequest decode(const storage::Frame& frame);
};

// -- responses --

struct ErrorResponse {
  static constexpr PacketType kType = PacketType::kError;

  WireStatus status = WireStatus::kBadRequest;
  std::string message;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.status, s.message); }
  std::string encode(std::uint64_t seq) const;
  static ErrorResponse decode(const storage::Frame& frame);
};

struct LocalizeResponse {
  static constexpr PacketType kType = PacketType::kLocalizeResponse;

  WireStatus status = WireStatus::kOk;
  std::string message;
  double x = 0.0;
  double y = 0.0;
  double confidence = 0.0;
  bool served = false;
  bool degraded = false;
  std::uint64_t links_used = 0;

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.status, s.message, s.x, s.y, s.confidence, s.served, s.degraded, s.links_used);
  }
  std::string encode(std::uint64_t seq) const;
  static LocalizeResponse decode(const storage::Frame& frame);
};

struct AmbientResponse {
  static constexpr PacketType kType = PacketType::kAmbientResponse;

  WireStatus status = WireStatus::kOk;
  std::string message;
  bool accepted = false;        ///< scan admitted into the scheduler.
  bool sample_accepted = false; ///< the scheduler kept it (not out-of-order/NaN).
  bool triggered = false;       ///< it crossed the staleness threshold.
  double staleness_db = 0.0;

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.status, s.message, s.accepted, s.sample_accepted, s.triggered, s.staleness_db);
  }
  std::string encode(std::uint64_t seq) const;
  static AmbientResponse decode(const storage::Frame& frame);
};

struct ResurveyResponse {
  static constexpr PacketType kType = PacketType::kResurveyResponse;

  WireStatus status = WireStatus::kOk;
  std::string message;
  bool accepted = false;  ///< false: another update already in flight.

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.status, s.message, s.accepted); }
  std::string encode(std::uint64_t seq) const;
  static ResurveyResponse decode(const storage::Frame& frame);
};

struct ZoneStatus {
  std::string zone;
  std::string state;  ///< zone_state_name() of the lifecycle state.
  std::uint64_t queries = 0;
  std::uint64_t updates_committed = 0;
  std::uint64_t updates_failed = 0;
  bool update_in_flight = false;
  double staleness_db = 0.0;
  double clock_days = 0.0;
  std::uint64_t wal_sequence = 0;  ///< 0 when the zone is not durable.
  std::string kernel_backend;      ///< active process-wide kernel backend name.
  bool quantized_tier = false;     ///< int8 scan tier serving this zone's queries.
  // SLO accounting (all zero when the zone has no latency deadline).
  std::uint64_t slo_ok = 0;        ///< queries inside the deadline.
  std::uint64_t slo_violated = 0;  ///< queries past the deadline.
  double slo_budget_remaining = 0.0;  ///< error budget left (can go negative).
  bool slo_degraded = false;       ///< budget exhausted: `degraded-slo`.
  std::string last_error;

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.zone, s.state, s.queries, s.updates_committed, s.updates_failed, s.update_in_flight,
      s.staleness_db, s.clock_days, s.wal_sequence, s.kernel_backend, s.quantized_tier, s.slo_ok,
      s.slo_violated, s.slo_budget_remaining, s.slo_degraded, s.last_error);
  }
};

struct StatusResponse {
  static constexpr PacketType kType = PacketType::kStatusResponse;

  WireStatus status = WireStatus::kOk;
  std::string message;
  std::vector<ZoneStatus> zones;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.status, s.message, s.zones); }
  std::string encode(std::uint64_t seq) const;
  static StatusResponse decode(const storage::Frame& frame);
};

struct AdminResponse {
  static constexpr PacketType kType = PacketType::kAdminResponse;

  WireStatus status = WireStatus::kOk;
  std::string message;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.status, s.message); }
  std::string encode(std::uint64_t seq) const;
  static AdminResponse decode(const storage::Frame& frame);
};

struct ProbeResponse {
  static constexpr PacketType kType = PacketType::kProbeResponse;

  WireStatus status = WireStatus::kOk;
  std::string message;
  double truth_x = 0.0;
  double truth_y = 0.0;
  double estimate_x = 0.0;
  double estimate_y = 0.0;
  double error_m = 0.0;
  bool degraded = false;

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.status, s.message, s.truth_x, s.truth_y, s.estimate_x, s.estimate_y, s.error_m, s.degraded);
  }
  std::string encode(std::uint64_t seq) const;
  static ProbeResponse decode(const storage::Frame& frame);
};

/// One histogram's summary, pre-aggregated daemon-side so clients never
/// need the bucket layout.
struct WireHistogram {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.name, s.count, s.sum, s.min, s.max, s.p50, s.p95, s.p99); }
};

/// Point-in-time copy of one zone's metric registry.
struct ZoneMetrics {
  std::string zone;
  std::string state;  ///< lifecycle state at snapshot time.
  std::uint64_t uptime_ns = 0;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<WireHistogram> histograms;

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.zone, s.state, s.uptime_ns, s.spans_recorded, s.spans_dropped, s.counters, s.gauges,
      s.histograms);
  }
};

struct MetricsResponse {
  static constexpr PacketType kType = PacketType::kMetricsResponse;

  WireStatus status = WireStatus::kOk;
  std::string message;
  std::vector<ZoneMetrics> zones;

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.status, s.message, s.zones); }
  std::string encode(std::uint64_t seq) const;
  static MetricsResponse decode(const storage::Frame& frame);
};

/// One localize result served from an ingested round.
struct IngestQuery {
  double t_days = 0.0;
  double motion_db = 0.0;  ///< the gate metric that admitted it.
  double x = 0.0;
  double y = 0.0;
  double confidence = 0.0;
  bool served = false;
  bool degraded = false;
  std::uint64_t links_used = 0;

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.t_days, s.motion_db, s.x, s.y, s.confidence, s.served, s.degraded, s.links_used);
  }
};

struct BatchIngestResponse {
  static constexpr PacketType kType = PacketType::kBatchIngestResponse;

  WireStatus status = WireStatus::kOk;
  std::string message;
  // This batch's exact accounting deltas (mirrors ingest.* telemetry).
  std::uint64_t readings = 0;
  std::uint64_t dups_dropped = 0;
  std::uint64_t stale_dropped = 0;
  std::uint64_t bad_readings = 0;
  std::uint64_t rounds_completed = 0;
  std::uint64_t gated_ambient = 0;
  std::uint64_t admitted_queries = 0;
  double last_motion_db = 0.0;
  std::vector<IngestQuery> queries;  ///< one per admitted round.

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.status, s.message, s.readings, s.dups_dropped, s.stale_dropped, s.bad_readings,
      s.rounds_completed, s.gated_ambient, s.admitted_queries, s.last_motion_db, s.queries);
  }
  std::string encode(std::uint64_t seq) const;
  static BatchIngestResponse decode(const storage::Frame& frame);
};

struct TraceResponse {
  static constexpr PacketType kType = PacketType::kTraceResponse;

  WireStatus status = WireStatus::kOk;
  std::string message;
  /// Trace records as JSONL (one `{"type":"trace",...}` object per
  /// line) -- the same codec the daemon writes to disk, so clients and
  /// files share one schema.
  std::string jsonl;
  std::uint64_t total_recorded = 0;  ///< ring pushes (or slow-log size).
  std::uint64_t dropped = 0;         ///< ring overwrites (or slow-log drops).

  template <class S, class V>
  static void fields(S& s, V& v) { v(s.status, s.message, s.jsonl, s.total_recorded, s.dropped); }
  std::string encode(std::uint64_t seq) const;
  static TraceResponse decode(const storage::Frame& frame);
};

// -- connection-buffer framing --

enum class ExtractResult { kPacket, kNeedMore, kCorrupt };

/// Pull the first complete frame out of `buffer` (consuming its bytes)
/// into `out`.  kNeedMore leaves the buffer untouched; kCorrupt means
/// this byte stream can no longer be trusted (close the connection) and
/// `error`, when non-null, says why.
ExtractResult extract_packet(std::string& buffer, storage::Frame& out,
                             std::string* error = nullptr);

}  // namespace tafloc::daemon
