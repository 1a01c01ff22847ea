// ZoneManager + ControlServer: in-process dispatch across every packet
// type and fault-containment path, plus a socket-level round trip over
// a live event loop.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "tafloc/daemon/client.h"
#include "tafloc/daemon/daemon.h"
#include "tafloc/sim/scenario.h"
#include "tafloc/util/rng.h"

namespace tafloc::daemon {
namespace {

namespace fs = std::filesystem;

DaemonConfig two_zone_config() {
  std::istringstream in(
      "socket = /tmp/unused.sock\n"
      "[zone office]\n"
      "seed = 21\n"
      "[zone lab]\n"
      "seed = 22\n");
  return DaemonConfig::parse(in);
}

storage::Frame reframe(const std::string& bytes) {
  storage::Frame frame;
  std::size_t pos = 0;
  EXPECT_EQ(storage::decode_frame(bytes, pos, frame), storage::FrameStatus::kOk);
  return frame;
}

Vector office_query() {
  Scenario scenario = Scenario::paper_room(21);
  Rng rng(5);
  return scenario.collector().observe({2.0, 2.0}, 0.0, rng);
}

class DispatchTest : public ::testing::Test {
 protected:
  DispatchTest()
      : config_(two_zone_config()),
        zones_(config_),
        server_(zones_, loop_, "/tmp/tafloc_dispatch_unused.sock") {
    zones_.start_all();
  }
  ~DispatchTest() override { zones_.drain_all(); }

  DaemonConfig config_;
  EventLoop loop_;
  ZoneManager zones_;
  ControlServer server_;
};

TEST_F(DispatchTest, StartAllBringsEveryZoneToServing) {
  ASSERT_EQ(zones_.zones().size(), 2u);
  for (const auto& zone : zones_.zones()) {
    EXPECT_EQ(zone->state(), ZoneState::kServing) << zone->name();
  }
  EXPECT_NE(zones_.find("office"), nullptr);
  EXPECT_NE(zones_.find("lab"), nullptr);
  EXPECT_EQ(zones_.find("warehouse"), nullptr);
}

TEST_F(DispatchTest, LocalizeDispatch) {
  LocalizeRequest req{"office", office_query()};
  const LocalizeResponse res = LocalizeResponse::decode(reframe(server_.dispatch(reframe(req.encode(1)))));
  EXPECT_EQ(res.status, WireStatus::kOk);
  EXPECT_TRUE(res.served);
  EXPECT_GT(res.confidence, 0.0);
  EXPECT_EQ(zones_.find("office")->status().queries, 1u);
}

TEST_F(DispatchTest, UnknownZoneIsAWireStatusNotACrash) {
  LocalizeRequest req{"warehouse", office_query()};
  const LocalizeResponse res = LocalizeResponse::decode(reframe(server_.dispatch(reframe(req.encode(1)))));
  EXPECT_EQ(res.status, WireStatus::kUnknownZone);
  EXPECT_FALSE(res.served);
}

TEST_F(DispatchTest, BadQueryIsABadRequestNotACrash) {
  // Wrong-length RSS vector: the zone throws invalid_argument; dispatch
  // must map it to a kError packet with kBadRequest.
  LocalizeRequest req{"office", {1.0, 2.0, 3.0}};
  const storage::Frame reply = reframe(server_.dispatch(reframe(req.encode(1))));
  ASSERT_EQ(reply.type, static_cast<std::uint32_t>(PacketType::kError));
  const ErrorResponse err = ErrorResponse::decode(reply);
  EXPECT_EQ(err.status, WireStatus::kBadRequest);
  EXPECT_FALSE(err.message.empty());
}

TEST_F(DispatchTest, DrainedZoneReportsNotServing) {
  AdminRequest drain{AdminOp::kDrain, "lab"};
  const AdminResponse ack = AdminResponse::decode(reframe(server_.dispatch(reframe(drain.encode(1)))));
  EXPECT_EQ(ack.status, WireStatus::kOk);
  EXPECT_EQ(zones_.find("lab")->state(), ZoneState::kStopped);

  LocalizeRequest req{"lab", office_query()};
  const LocalizeResponse res = LocalizeResponse::decode(reframe(server_.dispatch(reframe(req.encode(2)))));
  EXPECT_EQ(res.status, WireStatus::kNotServing);
}

TEST_F(DispatchTest, StatusCoversAllZonesOrOne) {
  const StatusResponse all = StatusResponse::decode(reframe(server_.dispatch(reframe(StatusRequest{""}.encode(1)))));
  EXPECT_EQ(all.status, WireStatus::kOk);
  ASSERT_EQ(all.zones.size(), 2u);

  const StatusResponse one = StatusResponse::decode(reframe(server_.dispatch(reframe(StatusRequest{"lab"}.encode(2)))));
  ASSERT_EQ(one.zones.size(), 1u);
  EXPECT_EQ(one.zones[0].zone, "lab");
  EXPECT_EQ(one.zones[0].state, "serving");

  const StatusResponse none = StatusResponse::decode(reframe(server_.dispatch(reframe(StatusRequest{"warehouse"}.encode(3)))));
  EXPECT_EQ(none.status, WireStatus::kUnknownZone);
}

TEST_F(DispatchTest, ProbeAndResurveyAndAmbientDispatch) {
  const ProbeResponse probe = ProbeResponse::decode(reframe(server_.dispatch(reframe(ProbeRequest{"office"}.encode(1)))));
  EXPECT_EQ(probe.status, WireStatus::kOk);
  EXPECT_LT(probe.error_m, 2.0);  // sanity, not an accuracy benchmark.

  const ResurveyResponse sur = ResurveyResponse::decode(reframe(server_.dispatch(reframe(ResurveyRequest{"office", 2.0}.encode(2)))));
  EXPECT_EQ(sur.status, WireStatus::kOk);
  EXPECT_TRUE(sur.accepted);
  EXPECT_EQ(zones_.find("office")->state(), ZoneState::kResurveying);
  zones_.jobs().wait_idle();  // let the supervised solve land...
  zones_.poll_all();          // ...and the serving thread commit it.
  EXPECT_EQ(zones_.find("office")->state(), ZoneState::kServing);
  EXPECT_EQ(zones_.find("office")->status().updates_committed, 1u);

  Scenario scenario = Scenario::paper_room(21);
  Rng rng(6);
  AmbientRequest amb{"office", scenario.collector().ambient_scan(3.0, rng), 3.0};
  const AmbientResponse ares = AmbientResponse::decode(reframe(server_.dispatch(reframe(amb.encode(3)))));
  EXPECT_EQ(ares.status, WireStatus::kOk);
  EXPECT_TRUE(ares.accepted);
}

TEST_F(DispatchTest, MetricsDispatchSnapshotsEveryZoneOrOne) {
  // Drive a little traffic so the snapshot has something to show.
  for (int i = 0; i < 3; ++i) {
    LocalizeRequest req{"office", office_query()};
    (void)server_.dispatch(reframe(req.encode(1)));
  }
  const MetricsResponse all =
      MetricsResponse::decode(reframe(server_.dispatch(reframe(MetricsRequest{""}.encode(2)))));
  EXPECT_EQ(all.status, WireStatus::kOk);
  ASSERT_EQ(all.zones.size(), 2u);

  const MetricsResponse one = MetricsResponse::decode(
      reframe(server_.dispatch(reframe(MetricsRequest{"office"}.encode(3)))));
  ASSERT_EQ(one.zones.size(), 1u);
  const ZoneMetrics& m = one.zones[0];
  EXPECT_EQ(m.zone, "office");
  EXPECT_EQ(m.state, "serving");
  EXPECT_GT(m.uptime_ns, 0u);
  bool saw_latency = false;
  for (const WireHistogram& h : m.histograms) {
    if (h.name == "zone.request_seconds") {
      saw_latency = true;
      EXPECT_EQ(h.count, 3u);
      EXPECT_GT(h.p50, 0.0);
      EXPECT_LE(h.p50, h.p95);
      EXPECT_LE(h.p95, h.p99);
    }
  }
  EXPECT_TRUE(saw_latency);

  const MetricsResponse none = MetricsResponse::decode(
      reframe(server_.dispatch(reframe(MetricsRequest{"warehouse"}.encode(4)))));
  EXPECT_EQ(none.status, WireStatus::kUnknownZone);
}

TEST_F(DispatchTest, TraceDispatchReturnsClientForcedSamples) {
  LocalizeRequest req{"office", office_query()};
  req.trace_id = 9001;
  req.trace_sampled = true;  // zone has no periodic sampler configured.
  (void)server_.dispatch(reframe(req.encode(1)));

  const TraceResponse res = TraceResponse::decode(
      reframe(server_.dispatch(reframe(TraceRequest{"office", 16, false}.encode(2)))));
  EXPECT_EQ(res.status, WireStatus::kOk);
  EXPECT_EQ(res.total_recorded, 1u);
  EXPECT_EQ(res.dropped, 0u);
  EXPECT_NE(res.jsonl.find("\"trace_id\":9001"), std::string::npos) << res.jsonl;
  EXPECT_NE(res.jsonl.find("\"name\":\"zone.serve\""), std::string::npos) << res.jsonl;

  const TraceResponse missing = TraceResponse::decode(
      reframe(server_.dispatch(reframe(TraceRequest{"warehouse", 16, false}.encode(3)))));
  EXPECT_EQ(missing.status, WireStatus::kUnknownZone);
}

TEST_F(DispatchTest, ShedsAreCountedWhenAdmissionIsRefused) {
  AdminRequest drain{AdminOp::kDrain, "lab"};
  (void)server_.dispatch(reframe(drain.encode(1)));
  LocalizeRequest req{"lab", office_query()};
  (void)server_.dispatch(reframe(req.encode(2)));
  (void)server_.dispatch(reframe(ProbeRequest{"lab"}.encode(3)));
  EXPECT_EQ(zones_.find("lab")->status().sheds, 2u);
}

TEST_F(DispatchTest, VersionSkewedLocalizeLeavesZonesAndDispatchUntouched) {
  // A v2 client's localize payload (zone + rss, no trace context): the
  // daemon must answer kBadRequest for THAT packet and keep serving --
  // no zone leaves its lifecycle state, no query is counted.
  storage::ByteWriter payload;
  payload.put_u32(kWireVersion - 1);
  const std::string zone = "office";
  payload.put_u8_span({reinterpret_cast<const std::uint8_t*>(zone.data()), zone.size()});
  const Vector rss = office_query();
  payload.put_f64_span(rss);
  const std::string bytes = storage::encode_frame(
      static_cast<std::uint32_t>(PacketType::kLocalizeRequest), 7, payload.bytes());

  const storage::Frame reply = reframe(server_.dispatch(reframe(bytes)));
  ASSERT_EQ(reply.type, static_cast<std::uint32_t>(PacketType::kError));
  const ErrorResponse err = ErrorResponse::decode(reply);
  EXPECT_EQ(err.status, WireStatus::kBadRequest);
  EXPECT_NE(err.message.find("version"), std::string::npos) << err.message;
  EXPECT_EQ(zones_.find("office")->state(), ZoneState::kServing);
  EXPECT_EQ(zones_.find("office")->status().queries, 0u);

  // The very next well-formed packet on the same dispatch path serves.
  LocalizeRequest good{"office", office_query()};
  const LocalizeResponse res =
      LocalizeResponse::decode(reframe(server_.dispatch(reframe(good.encode(8)))));
  EXPECT_EQ(res.status, WireStatus::kOk);
  EXPECT_TRUE(res.served);
}

TEST_F(DispatchTest, VersionSkewGetsAnErrorPacketBack) {
  storage::ByteWriter payload;
  payload.put_u32(99);  // future wire version.
  const std::string bytes = storage::encode_frame(
      static_cast<std::uint32_t>(PacketType::kLocalizeRequest), 9, payload.bytes());
  const storage::Frame reply = reframe(server_.dispatch(reframe(bytes)));
  ASSERT_EQ(reply.type, static_cast<std::uint32_t>(PacketType::kError));
  const ErrorResponse err = ErrorResponse::decode(reply);
  EXPECT_EQ(err.status, WireStatus::kBadRequest);
  EXPECT_FALSE(err.message.empty());
}

TEST_F(DispatchTest, UnexpectedPacketTypeGetsAnErrorPacketBack) {
  // A client must never send a *response* type at the daemon.
  AdminResponse rogue;
  const storage::Frame reply = reframe(server_.dispatch(reframe(rogue.encode(1))));
  EXPECT_EQ(reply.type, static_cast<std::uint32_t>(PacketType::kError));
}

TEST_F(DispatchTest, ReloadWithoutHandlerIsRefusedWithHandlerRuns) {
  AdminRequest reload{AdminOp::kReload, ""};
  const AdminResponse refused = AdminResponse::decode(reframe(server_.dispatch(reframe(reload.encode(1)))));
  EXPECT_EQ(refused.status, WireStatus::kBadRequest);

  server_.set_reload_handler([] { return std::string("2 zone(s) updated"); });
  const AdminResponse ok = AdminResponse::decode(reframe(server_.dispatch(reframe(reload.encode(2)))));
  EXPECT_EQ(ok.status, WireStatus::kOk);
  EXPECT_NE(ok.message.find("2 zone(s)"), std::string::npos);
}

TEST(ZoneManagerReload, AppliesSchedulerChangesAndRefusesTopology) {
  DaemonConfig config = two_zone_config();
  ZoneManager zones(config);
  zones.start_all();

  std::istringstream in(
      "socket = /tmp/unused.sock\n"
      "[zone office]\n"
      "seed = 21\n"
      "staleness_threshold_db = 9.5\n"
      "[zone forge]\n"
      "seed = 99\n");
  const std::string summary = zones.reload(DaemonConfig::parse(in));
  EXPECT_EQ(zones.find("office")->config().scheduler.staleness_threshold_db, 9.5);
  EXPECT_NE(summary.find("forge"), std::string::npos);  // new zone refused, reported.
  EXPECT_NE(summary.find("lab"), std::string::npos);    // removed zone reported.
  zones.drain_all();
}

TEST(ZoneManagerReload, RefusesAnInvalidSchedulerConfigAndAppliesNothing) {
  // Startup refuses staleness_threshold_db = 0, so a reload must too --
  // and all or nothing: office, listed before the bad zone, keeps its
  // old threshold.
  DaemonConfig config = two_zone_config();
  ZoneManager zones(config);
  zones.start_all();
  const double before = zones.find("office")->config().scheduler.staleness_threshold_db;

  std::istringstream in(
      "socket = /tmp/unused.sock\n"
      "[zone office]\n"
      "seed = 21\n"
      "staleness_threshold_db = 9.5\n"
      "[zone lab]\n"
      "seed = 22\n"
      "staleness_threshold_db = 0\n");
  EXPECT_THROW(zones.reload(DaemonConfig::parse(in)), std::invalid_argument);
  EXPECT_EQ(zones.find("office")->config().scheduler.staleness_threshold_db, before);
  EXPECT_EQ(zones.find("lab")->config().scheduler.staleness_threshold_db, before);
  zones.drain_all();
}

TEST(ZoneManagerTelemetry, ExportWritesOneLabeledFilePerZone) {
  const fs::path dir =
      fs::temp_directory_path() / ("tafloc_daemon_telemetry_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  DaemonConfig config = two_zone_config();
  {
    ZoneManager zones(config);
    zones.start_all();
    EXPECT_EQ(zones.export_telemetry(dir.string()), 2u);
    zones.drain_all();
  }
  for (const char* name : {"office", "lab"}) {
    std::ifstream in(dir / (std::string(name) + ".jsonl"));
    ASSERT_TRUE(in.good()) << name;
    std::string line;
    ASSERT_TRUE(std::getline(in, line)) << name;
    EXPECT_NE(line.find("\"zone\":\"" + std::string(name) + "\""), std::string::npos) << line;
  }
  fs::remove_all(dir);
}

// ---- socket level: the full loop -> accept -> frame -> dispatch path.

TEST(ControlServerSocket, ServesFramesAndSurvivesGarbage) {
  const std::string socket_path =
      (fs::temp_directory_path() / ("tafloc_daemon_sock_" + std::to_string(::getpid()))).string();
  std::istringstream in("socket = " + socket_path + "\n[zone office]\nseed = 21\n");
  const DaemonConfig config = DaemonConfig::parse(in);

  EventLoop loop;
  ZoneManager zones(config);
  ASSERT_EQ(zones.start_all(), 1u);
  ControlServer server(zones, loop, socket_path);
  server.open();
  std::thread loop_thread([&loop] { loop.run(50); });

  {
    Client client(socket_path);
    client.send(StatusRequest{""}.encode(1));
    storage::Frame frame;
    ASSERT_TRUE(client.recv(frame));
    const StatusResponse status = StatusResponse::decode(frame);
    ASSERT_EQ(status.zones.size(), 1u);
    EXPECT_EQ(status.zones[0].zone, "office");

    // Two packets in one write: both must be answered, in order.
    client.send(ProbeRequest{"office"}.encode(2) + StatusRequest{"office"}.encode(3));
    ASSERT_TRUE(client.recv(frame));
    EXPECT_EQ(frame.seq, 2u);
    ASSERT_TRUE(client.recv(frame));
    EXPECT_EQ(frame.seq, 3u);
  }

  {
    // Many packets in one write are all answered, in seq order.  The
    // 256 probe responses (about 21 KB) fit well inside the socket
    // buffer, so the daemon never waits on this client while it sends.
    constexpr std::uint64_t kFirst = 100, kCount = 256;
    Client client(socket_path);
    std::string burst;
    for (std::uint64_t seq = kFirst; seq < kFirst + kCount; ++seq) {
      burst += ProbeRequest{"office"}.encode(seq);
    }
    client.send(burst);
    storage::Frame frame;
    for (std::uint64_t seq = kFirst; seq < kFirst + kCount; ++seq) {
      ASSERT_TRUE(client.recv(frame));
      ASSERT_EQ(frame.seq, seq);
      EXPECT_EQ(ProbeResponse::decode(frame).status, WireStatus::kOk);
    }
  }

  {
    // Good packets then garbage in one write: each good packet is
    // answered before the one error packet, then the daemon closes.
    Client client(socket_path);
    client.send(ProbeRequest{"office"}.encode(20) + StatusRequest{"office"}.encode(21) +
                std::string(64, '\xfe'));
    storage::Frame frame;
    ASSERT_TRUE(client.recv(frame));
    EXPECT_EQ(ProbeResponse::decode(frame).status, WireStatus::kOk);
    EXPECT_EQ(frame.seq, 20u);
    ASSERT_TRUE(client.recv(frame));
    EXPECT_EQ(StatusResponse::decode(frame).status, WireStatus::kOk);
    EXPECT_EQ(frame.seq, 21u);
    ASSERT_TRUE(client.recv(frame));
    EXPECT_EQ(ErrorResponse::decode(frame).status, WireStatus::kBadRequest);
    EXPECT_FALSE(client.recv(frame));
  }

  {
    // Garbage bytes: the daemon replies with one error packet (best
    // effort) and closes this connection -- and only this connection.
    Client garbage(socket_path);
    garbage.send(std::string(64, '\xfe'));
    storage::Frame frame;
    while (garbage.recv(frame)) {
    }  // drain until the daemon closes on us.
  }

  {
    // The daemon is still healthy for a fresh client.
    Client again(socket_path);
    again.send(ProbeRequest{"office"}.encode(9));
    storage::Frame frame;
    ASSERT_TRUE(again.recv(frame));
    const ProbeResponse probe = ProbeResponse::decode(frame);
    EXPECT_EQ(probe.status, WireStatus::kOk);
  }

  loop.post([&] {
    server.close();
    loop.stop();
  });
  loop_thread.join();
  zones.drain_all();
  fs::remove(socket_path);
}

}  // namespace
}  // namespace tafloc::daemon
