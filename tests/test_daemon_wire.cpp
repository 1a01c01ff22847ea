// Wire protocol: packet round trips, version negotiation, and the
// rejection paths that keep one bad client from hurting the daemon.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "tafloc/daemon/wire.h"
#include "tafloc/storage/codec.h"
#include "tafloc/storage/record.h"

namespace tafloc::daemon {
namespace {

storage::Frame reframe(const std::string& bytes) {
  storage::Frame frame;
  std::size_t pos = 0;
  EXPECT_EQ(storage::decode_frame(bytes, pos, frame), storage::FrameStatus::kOk);
  EXPECT_EQ(pos, bytes.size());
  return frame;
}

TEST(DaemonWire, LocalizeRoundTrip) {
  LocalizeRequest req{"office", {1.0, -2.5, 3.25}};
  req.trace_id = 0xfeedbeef12345678ull;
  req.trace_sampled = true;
  const storage::Frame frame = reframe(req.encode(42));
  EXPECT_EQ(frame.type, static_cast<std::uint32_t>(PacketType::kLocalizeRequest));
  EXPECT_EQ(frame.seq, 42u);
  const LocalizeRequest back = LocalizeRequest::decode(frame);
  EXPECT_EQ(back.zone, "office");
  EXPECT_EQ(back.rss, req.rss);
  EXPECT_EQ(back.trace_id, 0xfeedbeef12345678ull);
  EXPECT_TRUE(back.trace_sampled);

  LocalizeResponse res;
  res.status = WireStatus::kOk;
  res.x = 2.75;
  res.y = -0.5;
  res.confidence = 0.9;
  res.served = true;
  res.degraded = true;
  res.links_used = 7;
  const LocalizeResponse res_back = LocalizeResponse::decode(reframe(res.encode(42)));
  EXPECT_EQ(res_back.x, 2.75);
  EXPECT_EQ(res_back.y, -0.5);
  EXPECT_EQ(res_back.confidence, 0.9);
  EXPECT_TRUE(res_back.served);
  EXPECT_TRUE(res_back.degraded);
  EXPECT_EQ(res_back.links_used, 7u);
}

TEST(DaemonWire, AmbientAndResurveyRoundTrip) {
  AmbientRequest amb{"lab", {-40.0, -41.5}, 3.25};
  const AmbientRequest amb_back = AmbientRequest::decode(reframe(amb.encode(7)));
  EXPECT_EQ(amb_back.zone, "lab");
  EXPECT_EQ(amb_back.ambient, amb.ambient);
  EXPECT_EQ(amb_back.t_days, 3.25);

  ResurveyRequest sur{"lab", 9.5};
  const ResurveyRequest sur_back = ResurveyRequest::decode(reframe(sur.encode(8)));
  EXPECT_EQ(sur_back.zone, "lab");
  EXPECT_EQ(sur_back.t_days, 9.5);

  AmbientResponse ares;
  ares.accepted = true;
  ares.triggered = true;
  ares.staleness_db = 4.125;
  const AmbientResponse ares_back = AmbientResponse::decode(reframe(ares.encode(7)));
  EXPECT_TRUE(ares_back.accepted);
  EXPECT_TRUE(ares_back.triggered);
  EXPECT_EQ(ares_back.staleness_db, 4.125);
}

TEST(DaemonWire, StatusRoundTripCarriesEveryZoneField) {
  StatusResponse res;
  res.status = WireStatus::kOk;
  ZoneStatus z;
  z.zone = "office";
  z.state = "resurveying";
  z.queries = 12;
  z.updates_committed = 3;
  z.updates_failed = 1;
  z.update_in_flight = true;
  z.staleness_db = 2.5;
  z.clock_days = 14.0;
  z.wal_sequence = 99;
  z.kernel_backend = "avx2";
  z.quantized_tier = true;
  z.slo_ok = 980;
  z.slo_violated = 20;
  z.slo_budget_remaining = -10.25;
  z.slo_degraded = true;
  z.last_error = "solver: diverged";
  res.zones.push_back(z);
  ZoneStatus lab;
  lab.zone = "lab";
  lab.state = "serving";
  lab.kernel_backend = "scalar";
  res.zones.push_back(lab);

  const StatusResponse back = StatusResponse::decode(reframe(res.encode(1)));
  ASSERT_EQ(back.zones.size(), 2u);
  EXPECT_EQ(back.zones[0].zone, "office");
  EXPECT_EQ(back.zones[0].state, "resurveying");
  EXPECT_EQ(back.zones[0].queries, 12u);
  EXPECT_EQ(back.zones[0].updates_committed, 3u);
  EXPECT_EQ(back.zones[0].updates_failed, 1u);
  EXPECT_TRUE(back.zones[0].update_in_flight);
  EXPECT_EQ(back.zones[0].staleness_db, 2.5);
  EXPECT_EQ(back.zones[0].clock_days, 14.0);
  EXPECT_EQ(back.zones[0].wal_sequence, 99u);
  EXPECT_EQ(back.zones[0].kernel_backend, "avx2");
  EXPECT_TRUE(back.zones[0].quantized_tier);
  EXPECT_EQ(back.zones[0].slo_ok, 980u);
  EXPECT_EQ(back.zones[0].slo_violated, 20u);
  EXPECT_EQ(back.zones[0].slo_budget_remaining, -10.25);
  EXPECT_TRUE(back.zones[0].slo_degraded);
  EXPECT_EQ(back.zones[0].last_error, "solver: diverged");
  EXPECT_EQ(back.zones[1].zone, "lab");
  EXPECT_EQ(back.zones[1].kernel_backend, "scalar");
  EXPECT_FALSE(back.zones[1].quantized_tier);
  EXPECT_EQ(back.zones[1].slo_ok, 0u);
  EXPECT_FALSE(back.zones[1].slo_degraded);
}

TEST(DaemonWire, MetricsRoundTripCarriesEveryField) {
  MetricsRequest req{"office"};
  const storage::Frame rframe = reframe(req.encode(5));
  EXPECT_EQ(rframe.type, static_cast<std::uint32_t>(PacketType::kMetricsRequest));
  EXPECT_EQ(MetricsRequest::decode(rframe).zone, "office");

  MetricsResponse res;
  ZoneMetrics m;
  m.zone = "office";
  m.state = "degraded";
  m.uptime_ns = 123456789;
  m.spans_recorded = 40;
  m.spans_dropped = 8;
  m.counters = {{"zone.shed", 3}, {"system.degraded_queries", 11}};
  m.gauges = {{"slo.budget_remaining", -1.5}};
  m.histograms.push_back(WireHistogram{"zone.request_seconds", 100, 0.5, 0.001, 0.09,
                                       0.004, 0.02, 0.05});
  res.zones.push_back(m);

  const MetricsResponse back = MetricsResponse::decode(reframe(res.encode(5)));
  ASSERT_EQ(back.zones.size(), 1u);
  const ZoneMetrics& b = back.zones[0];
  EXPECT_EQ(b.zone, "office");
  EXPECT_EQ(b.state, "degraded");
  EXPECT_EQ(b.uptime_ns, 123456789u);
  EXPECT_EQ(b.spans_recorded, 40u);
  EXPECT_EQ(b.spans_dropped, 8u);
  ASSERT_EQ(b.counters.size(), 2u);
  EXPECT_EQ(b.counters[0].first, "zone.shed");
  EXPECT_EQ(b.counters[0].second, 3u);
  ASSERT_EQ(b.gauges.size(), 1u);
  EXPECT_EQ(b.gauges[0].second, -1.5);
  ASSERT_EQ(b.histograms.size(), 1u);
  EXPECT_EQ(b.histograms[0].name, "zone.request_seconds");
  EXPECT_EQ(b.histograms[0].count, 100u);
  EXPECT_EQ(b.histograms[0].p95, 0.02);
  EXPECT_EQ(b.histograms[0].p99, 0.05);
}

TEST(DaemonWire, TraceRoundTripCarriesEveryField) {
  TraceRequest req{"lab", 32, true};
  const storage::Frame rframe = reframe(req.encode(6));
  EXPECT_EQ(rframe.type, static_cast<std::uint32_t>(PacketType::kTraceRequest));
  const TraceRequest rback = TraceRequest::decode(rframe);
  EXPECT_EQ(rback.zone, "lab");
  EXPECT_EQ(rback.max, 32u);
  EXPECT_TRUE(rback.slow);

  TraceResponse res;
  res.jsonl = "{\"type\":\"trace\",\"trace_id\":1}\n{\"type\":\"trace\",\"trace_id\":2}\n";
  res.total_recorded = 9;
  res.dropped = 2;
  const TraceResponse back = TraceResponse::decode(reframe(res.encode(6)));
  EXPECT_EQ(back.jsonl, res.jsonl);
  EXPECT_EQ(back.total_recorded, 9u);
  EXPECT_EQ(back.dropped, 2u);
}

TEST(DaemonWire, AdminAndProbeRoundTrip) {
  AdminRequest req{AdminOp::kShutdown, ""};
  const AdminRequest back = AdminRequest::decode(reframe(req.encode(3)));
  EXPECT_EQ(back.op, AdminOp::kShutdown);
  EXPECT_EQ(back.zone, "");

  ProbeResponse probe;
  probe.truth_x = 1.5;
  probe.truth_y = 2.5;
  probe.estimate_x = 1.25;
  probe.estimate_y = 2.75;
  probe.error_m = 0.354;
  probe.degraded = false;
  const ProbeResponse probe_back = ProbeResponse::decode(reframe(probe.encode(4)));
  EXPECT_EQ(probe_back.truth_x, 1.5);
  EXPECT_EQ(probe_back.estimate_y, 2.75);
  EXPECT_EQ(probe_back.error_m, 0.354);
}

TEST(DaemonWire, VersionSkewIsRejected) {
  // Hand-build a localize request whose payload claims wire version 99.
  storage::ByteWriter payload;
  payload.put_u32(99);
  const std::string bytes = storage::encode_frame(
      static_cast<std::uint32_t>(PacketType::kLocalizeRequest), 1, payload.bytes());
  const storage::Frame frame = reframe(bytes);
  EXPECT_THROW((void)LocalizeRequest::decode(frame), std::runtime_error);
}

// Build a syntactically valid v2 localize request (zone + rss, no trace
// context -- the pre-v3 payload layout) claiming the given version.
std::string v2_localize_bytes(std::uint32_t version, std::uint64_t seq) {
  storage::ByteWriter payload;
  payload.put_u32(version);
  const std::string zone = "office";
  payload.put_u8_span({reinterpret_cast<const std::uint8_t*>(zone.data()), zone.size()});
  const std::vector<double> rss{1.0, 2.0};
  payload.put_f64_span(rss);
  return storage::encode_frame(static_cast<std::uint32_t>(PacketType::kLocalizeRequest), seq,
                               payload.bytes());
}

TEST(DaemonWire, OldClientAgainstNewServerIsARejectNotAMisparse) {
  // A v2 client's localize request must be rejected on the version
  // field alone -- never half-parsed into a v3 struct (which would read
  // the missing trace context off the end of the payload).
  const storage::Frame frame = reframe(v2_localize_bytes(kWireVersion - 1, 11));
  try {
    (void)LocalizeRequest::decode(frame);
    FAIL() << "v2 payload must not decode on a v3 daemon";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(DaemonWire, NewClientAgainstOldServerIsARejectNotAMisparse) {
  // The mirror direction: an old daemon applies the same strict
  // equality check to a payload claiming a future version, so a v3+1
  // client gets a clean version error before any field is trusted.
  LocalizeRequest req{"office", {1.0, 2.0}};
  storage::Frame frame = reframe(req.encode(12));
  // Rewrite the leading version word to a future generation in place.
  ASSERT_GE(frame.payload.size(), 4u);
  const std::uint32_t future = kWireVersion + 1;
  std::memcpy(frame.payload.data(), &future, sizeof future);
  const std::string reframed = storage::encode_frame(frame.type, frame.seq, frame.payload);
  try {
    (void)LocalizeRequest::decode(reframe(reframed));
    FAIL() << "future-version payload must not decode";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(DaemonWire, WrongPacketTypeIsRejected) {
  const storage::Frame frame = reframe(StatusRequest{""}.encode(1));
  EXPECT_THROW((void)LocalizeRequest::decode(frame), std::runtime_error);
}

TEST(DaemonWire, TruncatedPayloadIsRejected) {
  LocalizeRequest req{"office", {1.0, 2.0}};
  std::string bytes = req.encode(1);
  // Chop doubles out of the payload but keep the frame intact by
  // re-framing the truncated payload bytes.
  storage::Frame frame = reframe(bytes);
  frame.payload.resize(frame.payload.size() - 8);
  const std::string reframed = storage::encode_frame(frame.type, frame.seq, frame.payload);
  EXPECT_THROW((void)LocalizeRequest::decode(reframe(reframed)), std::runtime_error);
}

// Frame a hand-built payload: wire version, then `body`.
storage::Frame hand_built(PacketType type, const storage::ByteWriter& body) {
  storage::ByteWriter payload;
  payload.put_u32(kWireVersion);
  payload.put_bytes({reinterpret_cast<const std::uint8_t*>(body.bytes().data()), body.size()});
  return reframe(storage::encode_frame(static_cast<std::uint32_t>(type), 1, payload.bytes()));
}

TEST(DaemonWire, MalformedPayloadsAreRejected) {
  for (const std::uint8_t op : {0, 4}) {
    storage::ByteWriter body;
    body.put_u8(op);
    body.put_u64(0);  // empty zone name.
    EXPECT_THROW((void)AdminRequest::decode(hand_built(PacketType::kAdminRequest, body)),
                 std::runtime_error)
        << "admin op " << int(op);
  }
  storage::ByteWriter status;
  status.put_u8(5);  // one past kInternalError.
  status.put_u64(0);
  EXPECT_THROW((void)ErrorResponse::decode(hand_built(PacketType::kError, status)),
               std::runtime_error);

  // A declared entry count the payload cannot hold fails before any
  // entry is allocated.
  for (const std::uint64_t count : {std::uint64_t{1}, std::uint64_t{1} << 40}) {
    storage::ByteWriter body;
    body.put_u8(0);
    body.put_u64(0);
    body.put_u64(count);
    EXPECT_THROW((void)StatusResponse::decode(hand_built(PacketType::kStatusResponse, body)),
                 std::runtime_error);
    EXPECT_THROW((void)MetricsResponse::decode(hand_built(PacketType::kMetricsResponse, body)),
                 std::runtime_error);
  }

  // A string field's declared length is checked against the payload
  // (and against absurdity) before a byte of it is allocated.
  for (const std::uint64_t length : {std::uint64_t{10}, std::uint64_t{1} << 40}) {
    storage::ByteWriter body;
    body.put_u64(length);
    body.put_bytes(std::vector<std::uint8_t>{'o', 'f', 'f'});  // 3 bytes present.
    EXPECT_THROW((void)StatusRequest::decode(hand_built(PacketType::kStatusRequest, body)),
                 std::runtime_error)
        << "declared string length " << length;
  }

  // Trailing bytes after the last field are as suspicious as truncation.
  storage::ByteWriter trailing;
  trailing.put_u64(0);  // empty zone name...
  trailing.put_u8(7);   // ...then one byte too many.
  EXPECT_THROW((void)StatusRequest::decode(hand_built(PacketType::kStatusRequest, trailing)),
               std::runtime_error);
}

TEST(DaemonWire, ExtractPacketStreamsAndDetectsCorruption) {
  const std::string a = StatusRequest{"office"}.encode(1);
  const std::string b = ProbeRequest{"lab"}.encode(2);
  std::string buffer = a + b;

  storage::Frame frame;
  EXPECT_EQ(extract_packet(buffer, frame), ExtractResult::kPacket);
  EXPECT_EQ(frame.seq, 1u);
  EXPECT_EQ(extract_packet(buffer, frame), ExtractResult::kPacket);
  EXPECT_EQ(frame.seq, 2u);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(extract_packet(buffer, frame), ExtractResult::kNeedMore);

  // A partial frame waits for more bytes...
  buffer = a.substr(0, a.size() - 3);
  EXPECT_EQ(extract_packet(buffer, frame), ExtractResult::kNeedMore);
  EXPECT_EQ(buffer.size(), a.size() - 3);  // untouched.

  // ...a bit flip inside a complete frame is terminal for the stream.
  buffer = a;
  buffer[10] ^= 0x40;
  std::string error;
  EXPECT_EQ(extract_packet(buffer, frame, &error), ExtractResult::kCorrupt);
  EXPECT_FALSE(error.empty());
}

// ---- golden bytes: the exact frames of wire v4, one per packet type.

constexpr std::uint64_t kGoldenSeq = 0x1122334455667788ull;

std::string to_hex(const std::string& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  return hex;
}

/// `packet` must encode to exactly `hex`, and decoding those bytes must
/// give back a packet that re-encodes to the same bytes (so every field
/// survives the round trip).
template <class Packet>
void expect_golden(const Packet& packet, const std::string& hex) {
  const std::string bytes = packet.encode(kGoldenSeq);
  const storage::Frame frame = reframe(bytes);
  const char* name = packet_type_name(static_cast<PacketType>(frame.type));
  EXPECT_EQ(to_hex(bytes), hex) << name;
  EXPECT_EQ(frame.seq, kGoldenSeq) << name;
  EXPECT_EQ(Packet::decode(frame).encode(kGoldenSeq), bytes) << name;
}

TEST(DaemonWire, GoldenBytes) {
  expect_golden(ErrorResponse{WireStatus::kNotServing, "drain"},
                "1e000000574a7e3e00000000887766554433221104000000020500000000000000647261696e");
  expect_golden(LocalizeRequest{"z1", {-41.5, -63.25}, 0xfeedbeefull, true},
                "3b000000738afce20100000088776655443322110400000002000000000000007a31020000000000"
                "00000000000000c044c00000000000a04fc0efbeedfe0000000001");
  expect_golden(LocalizeResponse{WireStatus::kInternalError, "m", 1.5, -2.25, 0.875, true, true, 9},
                "3c000000dcaf6e82020000008877665544332211040000000401000000000000006d000000000000"
                "f83f00000000000002c0000000000000ec3f01010900000000000000");
  expect_golden(AmbientRequest{"z2", {-40.0, -41.5}, 3.25},
                "3a00000047fac7b00300000088776655443322110400000002000000000000007a32020000000000"
                "000000000000000044c00000000000c044c00000000000000a40");
  expect_golden(AmbientResponse{WireStatus::kOk, "a", true, true, true, 4.125},
                "25000000b4d8a6550400000088776655443322110400000000010000000000000061010101000000"
                "0000801040");
  expect_golden(ResurveyRequest{"z2", 9.5},
                "2200000080014f640500000088776655443322110400000002000000000000007a32000000000000"
                "2340");
  expect_golden(ResurveyResponse{WireStatus::kOk, "busy", true},
                "1e000000eaf6836d060000008877665544332211040000000004000000000000006275737901");
  expect_golden(StatusRequest{"z1"},
                "1a000000ba95051d0700000088776655443322110400000002000000000000007a31");

  ZoneStatus zs{"z1", "serving", 12, 3, 1, true, 2.5, 14.0, 99, "avx2", true, 980, 20, -10.25,
                true, "oops"};
  expect_golden(StatusResponse{WireStatus::kOk, "s", {zs}},
                "9e0000002be410690800000088776655443322110400000000010000000000000073010000000000"
                "000002000000000000007a31070000000000000073657276696e670c000000000000000300000000"
                "00000001000000000000000100000000000004400000000000002c40630000000000000004000000"
                "000000006176783201d403000000000000140000000000000000000000008024c001040000000000"
                "00006f6f7073");
  expect_golden(AdminRequest{AdminOp::kReload, "z1"},
                "1b00000045e14196090000008877665544332211040000000202000000000000007a31");
  expect_golden(AdminResponse{WireStatus::kUnknownZone, "no"},
                "1b000000becd6e440a0000008877665544332211040000000102000000000000006e6f");
  expect_golden(ProbeRequest{"z1"},
                "1a0000000fd327c30b00000088776655443322110400000002000000000000007a31");
  expect_golden(ProbeResponse{WireStatus::kOk, "p", 1.5, 2.5, 1.25, 2.75, 0.354, true},
                "430000008a3832450c00000088776655443322110400000000010000000000000070000000000000"
                "f83f0000000000000440000000000000f43f00000000000006400e2db29defa7d63f01");
  expect_golden(MetricsRequest{"z1"},
                "1a0000002dcbc02e0d00000088776655443322110400000002000000000000007a31");

  ZoneMetrics zm{"z1", "degraded", 123456789, 40, 8, {{"c", 3}}, {{"g", -1.5}},
                 {WireHistogram{"h", 100, 0.5, 0.001, 0.09, 0.004, 0.02, 0.05}}};
  expect_golden(MetricsResponse{WireStatus::kOk, "m", {zm}},
                "cf0000003419fea30e0000008877665544332211040000000001000000000000006d010000000000"
                "000002000000000000007a310800000000000000646567726164656415cd5b070000000028000000"
                "00000000080000000000000001000000000000000100000000000000630300000000000000010000"
                "0000000000010000000000000067000000000000f8bf010000000000000001000000000000006864"
                "00000000000000000000000000e03ffca9f1d24d62503f0ad7a3703d0ab73ffca9f1d24d62703f7b"
                "14ae47e17a943f9a9999999999a93f");
  expect_golden(TraceRequest{"z2", 32, true},
                "230000005995bb740f00000088776655443322110400000002000000000000007a32200000000000"
                "000001");
  expect_golden(TraceResponse{WireStatus::kOk, "t", "{}\n", 9, 2},
                "350000009e797a291000000088776655443322110400000000010000000000000074030000000000"
                "00007b7d0a09000000000000000200000000000000");

  ingest::NodeBatch batch{3, {{1, -50.5, 7, 0.25}, {2, -61.0, 8, 0.25}}};
  expect_golden(BatchIngestRequest{"z1", batch},
                "62000000000e2d301100000088776655443322110400000002000000000000007a31010000000300"
                "000002000000000000000100000000000000004049c00700000000000000000000000000d03f0200"
                "00000000000000804ec00800000000000000000000000000d03f");
  BatchIngestResponse ingest{WireStatus::kOk, "i", 8, 1, 2, 3, 4, 5, 6, 7.5,
                             {IngestQuery{0.25, 6.5, 1.5, 2.5, 0.75, true, true, 10}}};
  expect_golden(ingest,
                "94000000b544fd141200000088776655443322110400000000010000000000000069080000000000"
                "00000100000000000000020000000000000003000000000000000400000000000000050000000000"
                "000006000000000000000000000000001e400100000000000000000000000000d03f000000000000"
                "1a40000000000000f83f0000000000000440000000000000e83f01010a00000000000000");
}

}  // namespace
}  // namespace tafloc::daemon
