#include "tafloc/daemon/wire.h"

#include <array>
#include <cstddef>
#include <stdexcept>

#include "tafloc/storage/codec.h"

namespace tafloc::daemon {

namespace {

using storage::ByteReader;
using storage::ByteWriter;

/// Appends a packet's fields to a payload in the order its `fields`
/// lists them.
class FieldWriter {
 public:
  explicit FieldWriter(ByteWriter& out) : out_(out) {}

  template <class... F>
  void operator()(const F&... values) {
    (put(values), ...);
  }

 private:
  void put(const std::string& s) {
    out_.put_u8_span({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void put(std::uint64_t v) { out_.put_u64(v); }
  void put(double v) { out_.put_f64(v); }
  void put(bool v) { out_.put_u8(v ? 1 : 0); }
  void put(WireStatus status) { out_.put_u8(static_cast<std::uint8_t>(status)); }
  void put(AdminOp op) { out_.put_u8(static_cast<std::uint8_t>(op)); }
  // The nested payload carries its own format version.
  void put(const ingest::NodeBatch& batch) { batch.encode(out_); }
  template <class A, class B>
  void put(const std::pair<A, B>& entry) {
    put(entry.first);
    put(entry.second);
  }
  template <class T>
  void put(const std::vector<T>& entries) {
    out_.put_u64(entries.size());
    for (const T& entry : entries) put(entry);
  }
  template <class T>
  void put(const T& nested) {
    T::fields(nested, *this);
  }

  ByteWriter& out_;
};

/// Counts the bytes FieldWriter will write for the same fields, so a
/// packet is encoded into a buffer sized once.
class FieldSizer {
 public:
  template <class... F>
  void operator()(const F&... values) {
    (add(values), ...);
  }

  std::size_t bytes = 0;

 private:
  void add(const std::string& s) { bytes += 8 + s.size(); }
  void add(std::uint64_t) { bytes += 8; }
  void add(double) { bytes += 8; }
  void add(bool) { bytes += 1; }
  void add(WireStatus) { bytes += 1; }
  void add(AdminOp) { bytes += 1; }
  void add(const ingest::NodeBatch& batch) { bytes += batch.encoded_size(); }
  template <class A, class B>
  void add(const std::pair<A, B>& entry) {
    add(entry.first);
    add(entry.second);
  }
  template <class T>
  void add(const std::vector<T>& entries) {
    bytes += 8;
    for (const T& entry : entries) add(entry);
  }
  template <class T>
  void add(const T& nested) {
    T::fields(nested, *this);
  }
};

/// Smallest encoding of one T, the floor require_elements applies per
/// declared entry: every variable-length field is a count or length
/// prefix, so a default-constructed T (empty strings and vectors)
/// encodes to exactly that minimum.
template <class T>
std::size_t min_encoded_size() {
  FieldSizer size;
  size(T{});
  return size.bytes;
}

/// Fills a packet's fields from a payload in the order its `fields`
/// lists them; every read is bounds-checked, every enum range-checked.
class FieldReader {
 public:
  FieldReader(ByteReader& in, const char* what) : in_(in), what_(what) {}

  template <class... F>
  void operator()(F&... values) {
    (get(values), ...);
  }

 private:
  void get(std::string& s) { s.assign(in_.get_u8_view()); }
  void get(std::uint64_t& v) { v = in_.get_u64(); }
  void get(double& v) { v = in_.get_f64(); }
  void get(bool& v) { v = in_.get_u8() != 0; }
  void get(WireStatus& status) {
    const std::uint8_t raw = in_.get_u8();
    if (raw > static_cast<std::uint8_t>(WireStatus::kInternalError)) {
      throw std::runtime_error("wire: unknown status code " + std::to_string(raw));
    }
    status = static_cast<WireStatus>(raw);
  }
  void get(AdminOp& op) {
    const std::uint8_t raw = in_.get_u8();
    if (raw < static_cast<std::uint8_t>(AdminOp::kDrain) ||
        raw > static_cast<std::uint8_t>(AdminOp::kShutdown)) {
      throw std::runtime_error("wire: unknown admin op " + std::to_string(raw));
    }
    op = static_cast<AdminOp>(raw);
  }
  void get(ingest::NodeBatch& batch) { batch = ingest::NodeBatch::decode(in_); }
  template <class A, class B>
  void get(std::pair<A, B>& entry) {
    get(entry.first);
    get(entry.second);
  }
  template <class T>
  void get(std::vector<T>& entries) {
    const std::uint64_t count = in_.get_u64();
    in_.require_elements(count, min_encoded_size<T>(), what_);
    entries.resize(static_cast<std::size_t>(count));
    for (T& entry : entries) get(entry);
  }
  template <class T>
  void get(T& nested) {
    T::fields(nested, *this);
  }

  ByteReader& in_;
  const char* what_;
};

/// A packet is one frame of type P::kType whose payload is the wire
/// version followed by P's fields, written in place behind the frame
/// header into a buffer sized once.
template <class P>
std::string encode_packet(const P& packet, std::uint64_t seq) {
  FieldSizer size;
  P::fields(packet, size);
  ByteWriter out;
  out.reserve(storage::kFrameHeaderBytes + 4 + size.bytes);
  out.put_bytes(std::array<std::uint8_t, storage::kFrameHeaderBytes>{});
  out.put_u32(kWireVersion);
  FieldWriter writer(out);
  P::fields(packet, writer);
  return storage::seal_frame(out.take(), static_cast<std::uint32_t>(P::kType), seq);
}

/// The packet type and the wire version are checked before a single
/// field is trusted, so a packet from another protocol generation is
/// rejected, never half-parsed.
template <class P>
P decode_packet(const storage::Frame& frame) {
  const char* what = packet_type_name(P::kType);
  if (frame.type != static_cast<std::uint32_t>(P::kType)) {
    throw std::runtime_error(std::string("wire: expected ") + what + ", got packet type " +
                             std::to_string(frame.type));
  }
  ByteReader in(frame.payload);
  const std::uint32_t version = in.get_u32();
  if (version != kWireVersion) {
    throw std::runtime_error("wire: version " + std::to_string(version) +
                             " not supported (this daemon speaks version " +
                             std::to_string(kWireVersion) + ")");
  }
  P packet;
  FieldReader reader(in, what);
  P::fields(packet, reader);
  in.expect_exhausted(what);  // trailing bytes are as suspicious as truncation.
  return packet;
}

}  // namespace

const char* packet_type_name(PacketType type) {
  switch (type) {
    case PacketType::kError: return "error";
    case PacketType::kLocalizeRequest: return "localize-request";
    case PacketType::kLocalizeResponse: return "localize-response";
    case PacketType::kAmbientRequest: return "ambient-request";
    case PacketType::kAmbientResponse: return "ambient-response";
    case PacketType::kResurveyRequest: return "resurvey-request";
    case PacketType::kResurveyResponse: return "resurvey-response";
    case PacketType::kStatusRequest: return "status-request";
    case PacketType::kStatusResponse: return "status-response";
    case PacketType::kAdminRequest: return "admin-request";
    case PacketType::kAdminResponse: return "admin-response";
    case PacketType::kProbeRequest: return "probe-request";
    case PacketType::kProbeResponse: return "probe-response";
    case PacketType::kMetricsRequest: return "metrics-request";
    case PacketType::kMetricsResponse: return "metrics-response";
    case PacketType::kTraceRequest: return "trace-request";
    case PacketType::kTraceResponse: return "trace-response";
    case PacketType::kBatchIngestRequest: return "batch-ingest-request";
    case PacketType::kBatchIngestResponse: return "batch-ingest-response";
  }
  return "unknown";
}

const char* wire_status_name(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kUnknownZone: return "unknown-zone";
    case WireStatus::kNotServing: return "not-serving";
    case WireStatus::kBadRequest: return "bad-request";
    case WireStatus::kInternalError: return "internal-error";
  }
  return "unknown";
}

const char* admin_op_name(AdminOp op) {
  switch (op) {
    case AdminOp::kDrain: return "drain";
    case AdminOp::kReload: return "reload";
    case AdminOp::kShutdown: return "shutdown";
  }
  return "unknown";
}

// Every packet's encode/decode members, defined once over the codec above.
#define TAFLOC_WIRE_CODEC(P)                                                            \
  std::string P::encode(std::uint64_t seq) const { return encode_packet(*this, seq); } \
  P P::decode(const storage::Frame& frame) { return decode_packet<P>(frame); }

TAFLOC_WIRE_CODEC(LocalizeRequest)
TAFLOC_WIRE_CODEC(AmbientRequest)
TAFLOC_WIRE_CODEC(ResurveyRequest)
TAFLOC_WIRE_CODEC(StatusRequest)
TAFLOC_WIRE_CODEC(AdminRequest)
TAFLOC_WIRE_CODEC(ProbeRequest)
TAFLOC_WIRE_CODEC(MetricsRequest)
TAFLOC_WIRE_CODEC(TraceRequest)
TAFLOC_WIRE_CODEC(BatchIngestRequest)
TAFLOC_WIRE_CODEC(ErrorResponse)
TAFLOC_WIRE_CODEC(LocalizeResponse)
TAFLOC_WIRE_CODEC(AmbientResponse)
TAFLOC_WIRE_CODEC(ResurveyResponse)
TAFLOC_WIRE_CODEC(StatusResponse)
TAFLOC_WIRE_CODEC(AdminResponse)
TAFLOC_WIRE_CODEC(ProbeResponse)
TAFLOC_WIRE_CODEC(MetricsResponse)
TAFLOC_WIRE_CODEC(TraceResponse)
TAFLOC_WIRE_CODEC(BatchIngestResponse)

#undef TAFLOC_WIRE_CODEC

ExtractResult extract_packet(std::string& buffer, storage::Frame& out, std::string* error) {
  std::size_t pos = 0;
  const storage::FrameStatus status = storage::decode_frame(buffer, pos, out, error);
  switch (status) {
    case storage::FrameStatus::kOk:
      buffer.erase(0, pos);
      return ExtractResult::kPacket;
    case storage::FrameStatus::kEof:
    case storage::FrameStatus::kTorn:
      return ExtractResult::kNeedMore;
    case storage::FrameStatus::kCorrupt:
      return ExtractResult::kCorrupt;
  }
  return ExtractResult::kCorrupt;
}

}  // namespace tafloc::daemon
