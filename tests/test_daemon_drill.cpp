// End-to-end observability drill (ISSUE PR 9 acceptance scenario):
// boot a two-zone daemon on a real socket, push 100+ localize queries
// with every 25th forced slow by fault injection, then verify from the
// *outside* (wire packets, as taflocctl would see them) and the
// *inside* (the zone's trace ring) that
//   - `top`'s inputs show nonzero QPS / p50 / p95 / p99,
//   - the slow-query log holds exactly the forced-slow requests,
//   - sampled traces carry per-stage timings whose sum ~= the latency,
//   - SLO accounting burns the error budget and flags degraded-slo,
//   - a version-skewed packet mid-stream corrupts nothing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tafloc/daemon/client.h"
#include "tafloc/daemon/daemon.h"
#include "tafloc/sim/scenario.h"
#include "tafloc/util/rng.h"

namespace tafloc::daemon {
namespace {

namespace fs = std::filesystem;

constexpr int kQueries = 100;
constexpr int kFaultEvery = 25;     // ordinals 25/50/75/100 -> seqs 24/49/74/99.
constexpr double kFaultMs = 60.0;   // far above...
constexpr double kSlowMs = 20.0;    // ...the slow threshold and
constexpr double kDeadlineMs = 20.0;  // the SLO deadline.

int count_lines(const std::string& text) {
  int lines = 0;
  for (char c : text) lines += c == '\n';
  return lines;
}

TEST(DaemonDrill, HundredQueryTraceSloAndSlowLogDrill) {
  const std::string socket_path =
      (fs::temp_directory_path() / ("tafloc_drill_" + std::to_string(::getpid()))).string();
  std::istringstream in(
      "socket = " + socket_path + "\n" +
      "[zone office]\n"
      "seed = 21\n"
      "trace_sample_every = 1\n"
      "trace_ring_capacity = 256\n"
      "slow_query_ms = " + std::to_string(kSlowMs) + "\n" +
      "slow_log_capacity = 16\n"
      "slo_deadline_ms = " + std::to_string(kDeadlineMs) + "\n" +
      "slo_target = 0.99\n"
      "fault_slow_every = " + std::to_string(kFaultEvery) + "\n" +
      "fault_slow_ms = " + std::to_string(kFaultMs) + "\n" +
      "[zone lab]\n"
      "seed = 22\n");
  const DaemonConfig config = DaemonConfig::parse(in);

  EventLoop loop;
  ZoneManager zones(config);
  ASSERT_EQ(zones.start_all(), 2u);
  ControlServer server(zones, loop, socket_path);
  server.open();
  std::thread loop_thread([&loop] { loop.run(50); });

  // Fresh noise per query: a frozen reading would (correctly) trip the
  // link-health tracker's stuck-link detector and kill the links.
  Scenario scenario = Scenario::paper_room(21);
  Rng rng(5);
  std::vector<Vector> queries;
  queries.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(scenario.collector().observe({2.0, 2.0}, 0.01 * i, rng));
  }

  {
    Client client(socket_path);
    storage::Frame frame;
    for (int i = 1; i <= kQueries; ++i) {
      LocalizeRequest req{"office", queries[static_cast<std::size_t>(i - 1)]};
      req.trace_id = static_cast<std::uint64_t>(1000 + i);
      client.send(req.encode(static_cast<std::uint64_t>(i)));
      ASSERT_TRUE(client.recv(frame)) << "query " << i;
      const LocalizeResponse res = LocalizeResponse::decode(frame);
      ASSERT_EQ(res.status, WireStatus::kOk) << "query " << i;
      EXPECT_TRUE(res.served);

      if (i == kQueries / 2) {
        // Mid-stream version skew: a v2 localize payload must bounce as
        // kBadRequest without disturbing the connection or any zone.
        storage::ByteWriter old_payload;
        old_payload.put_u32(kWireVersion - 1);
        const std::string zone = "office";
        old_payload.put_u8_span(
            {reinterpret_cast<const std::uint8_t*>(zone.data()), zone.size()});
        old_payload.put_f64_span(queries[0]);
        client.send(storage::encode_frame(
            static_cast<std::uint32_t>(PacketType::kLocalizeRequest), 9000,
            old_payload.bytes()));
        ASSERT_TRUE(client.recv(frame));
        ASSERT_EQ(frame.type, static_cast<std::uint32_t>(PacketType::kError));
        const ErrorResponse err = ErrorResponse::decode(frame);
        EXPECT_EQ(err.status, WireStatus::kBadRequest);
        EXPECT_NE(err.message.find("version"), std::string::npos) << err.message;
      }
    }

    // ---- `taflocctl top` inputs: metrics + status over the wire.
    client.send(MetricsRequest{""}.encode(9001));
    ASSERT_TRUE(client.recv(frame));
    const MetricsResponse metrics = MetricsResponse::decode(frame);
    ASSERT_EQ(metrics.status, WireStatus::kOk);
    ASSERT_EQ(metrics.zones.size(), 2u);
    const ZoneMetrics* office = nullptr;
    for (const ZoneMetrics& m : metrics.zones) {
      if (m.zone == "office") office = &m;
    }
    ASSERT_NE(office, nullptr);
    EXPECT_EQ(office->state, "serving");
    const WireHistogram* latency = nullptr;
    for (const WireHistogram& h : office->histograms) {
      if (h.name == "zone.request_seconds") latency = &h;
    }
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count, static_cast<std::uint64_t>(kQueries));
    EXPECT_GT(latency->p50, 0.0);
    EXPECT_LE(latency->p50, latency->p95);
    EXPECT_LE(latency->p95, latency->p99);
    // Every 25th of 100 queries slept 60 ms, so p99 sees the faults.
    EXPECT_GE(latency->p99, kFaultMs * 1e-3);
    ASSERT_GT(office->uptime_ns, 0u);
    const double qps =
        static_cast<double>(latency->count) / (static_cast<double>(office->uptime_ns) * 1e-9);
    EXPECT_GT(qps, 0.0);

    client.send(StatusRequest{"office"}.encode(9002));
    ASSERT_TRUE(client.recv(frame));
    const StatusResponse status = StatusResponse::decode(frame);
    ASSERT_EQ(status.zones.size(), 1u);
    const ZoneStatus& z = status.zones[0];
    EXPECT_EQ(z.queries, static_cast<std::uint64_t>(kQueries));
    EXPECT_EQ(z.slo_violated, 4u);  // exactly the fault-injected ordinals.
    EXPECT_EQ(z.slo_ok, static_cast<std::uint64_t>(kQueries) - 4u);
    // Budget: 100 * (1 - 0.99) - 4 violations = -3 -> degraded-slo.
    EXPECT_NEAR(z.slo_budget_remaining, -3.0, 1e-6);
    EXPECT_TRUE(z.slo_degraded);

    // ---- `taflocctl trace --slow`: the forced-slow requests, exactly.
    client.send(TraceRequest{"office", 0, true}.encode(9003));
    ASSERT_TRUE(client.recv(frame));
    const TraceResponse slow = TraceResponse::decode(frame);
    ASSERT_EQ(slow.status, WireStatus::kOk);
    EXPECT_EQ(slow.total_recorded, 4u);
    EXPECT_EQ(slow.dropped, 0u);
    EXPECT_EQ(count_lines(slow.jsonl), 4);
    std::istringstream slow_lines(slow.jsonl);
    std::string line;
    while (std::getline(slow_lines, line)) {
      ASSERT_FALSE(line.empty());
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
      EXPECT_NE(line.find("\"type\":\"trace\""), std::string::npos) << line;
      EXPECT_NE(line.find("\"fault_injected\":true"), std::string::npos) << line;
      EXPECT_NE(line.find("\"slow\":true"), std::string::npos) << line;
      EXPECT_NE(line.find("\"name\":\"zone.fault.delay\""), std::string::npos) << line;
    }

    // ---- sampled traces over the wire parse and carry stages.
    client.send(TraceRequest{"office", 8, false}.encode(9004));
    ASSERT_TRUE(client.recv(frame));
    const TraceResponse ring = TraceResponse::decode(frame);
    ASSERT_EQ(ring.status, WireStatus::kOk);
    EXPECT_EQ(ring.total_recorded, static_cast<std::uint64_t>(kQueries));
    EXPECT_EQ(count_lines(ring.jsonl), 8);
    EXPECT_NE(ring.jsonl.find("\"name\":\"zone.serve\""), std::string::npos);
  }

  // ---- inside view: the trace ring agrees with itself.  Sum of the
  // top-level stage durations must account for (almost all of) each
  // request's total latency; the slack absorbs scope bookkeeping, not
  // missing stages.
  const Zone* office_zone = zones.find("office");
  ASSERT_NE(office_zone, nullptr);
  const std::vector<TraceRecord> records = office_zone->tracer().ring().snapshot();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kQueries));
  constexpr std::uint64_t kSlackNs = 10'000'000;  // 10 ms for CI scheduling.
  for (const TraceRecord& r : records) {
    std::uint64_t depth0_ns = 0;
    for (std::uint32_t s = 0; s < r.stage_count; ++s) {
      if (r.stages[s].depth == 0) depth0_ns += r.stages[s].duration_ns;
    }
    EXPECT_GT(r.stage_count, 0u) << "seq " << r.seq;
    EXPECT_LE(depth0_ns, r.total_ns) << "seq " << r.seq;
    EXPECT_LE(r.total_ns - depth0_ns, kSlackNs) << "seq " << r.seq;
    EXPECT_EQ(r.trace_id, 1000u + r.seq + 1u);  // client ids round-tripped.
  }

  std::set<std::uint64_t> slow_seqs;
  for (const TraceRecord& r : office_zone->tracer().slow_log().entries()) {
    slow_seqs.insert(r.seq);
  }
  EXPECT_EQ(slow_seqs, (std::set<std::uint64_t>{24, 49, 74, 99}));
  EXPECT_EQ(office_zone->tracer().slow_log().dropped(), 0u);

  // The untraced lab zone stayed serving and recorded nothing.
  const Zone* lab_zone = zones.find("lab");
  ASSERT_NE(lab_zone, nullptr);
  EXPECT_EQ(lab_zone->state(), ZoneState::kServing);
  EXPECT_EQ(lab_zone->tracer().ring().pushed(), 0u);

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
