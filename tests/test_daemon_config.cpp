// Daemon config parser: the happy path and the strictness contract
// (a config the daemon does not fully understand must be refused).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "tafloc/daemon/config.h"

namespace tafloc::daemon {
namespace {

DaemonConfig parse(const std::string& text) {
  std::istringstream in(text);
  return DaemonConfig::parse(in);
}

TEST(DaemonConfig, ParsesDaemonAndZoneSections) {
  const DaemonConfig config = parse(R"(
# daemon-wide
socket = /run/tafloc/taflocd.sock
telemetry_dir = /var/lib/tafloc/telemetry

[zone office]
seed = 4242
state_dir = /var/lib/tafloc/office
staleness_threshold_db = 2.5
min_interval_days = 0.5
max_interval_days = 30
telemetry = true

[zone lab]
seed = 7
telemetry = off
)");
  EXPECT_EQ(config.socket_path, "/run/tafloc/taflocd.sock");
  EXPECT_EQ(config.telemetry_dir, "/var/lib/tafloc/telemetry");
  ASSERT_EQ(config.zones.size(), 2u);

  const ZoneConfig* office = config.find_zone("office");
  ASSERT_NE(office, nullptr);
  EXPECT_EQ(office->seed, 4242u);
  EXPECT_EQ(office->state_dir, "/var/lib/tafloc/office");
  EXPECT_EQ(office->scheduler.staleness_threshold_db, 2.5);
  EXPECT_EQ(office->scheduler.min_interval_days, 0.5);
  EXPECT_EQ(office->scheduler.max_interval_days, 30.0);
  EXPECT_TRUE(office->telemetry);

  const ZoneConfig* lab = config.find_zone("lab");
  ASSERT_NE(lab, nullptr);
  EXPECT_EQ(lab->seed, 7u);
  EXPECT_TRUE(lab->state_dir.empty());  // in-memory zone.
  EXPECT_FALSE(lab->telemetry);

  EXPECT_EQ(config.find_zone("warehouse"), nullptr);
}

TEST(DaemonConfig, DefaultsMatchSchedulerDefaults) {
  const DaemonConfig config = parse("socket = /tmp/t.sock\n[zone a]\n");
  const SchedulerConfig defaults;
  EXPECT_EQ(config.zones[0].scheduler.staleness_threshold_db, defaults.staleness_threshold_db);
  EXPECT_EQ(config.zones[0].scheduler.min_interval_days, defaults.min_interval_days);
  EXPECT_EQ(config.zones[0].scheduler.max_interval_days, defaults.max_interval_days);
}

TEST(DaemonConfig, RejectsMissingSocket) {
  EXPECT_THROW(parse("[zone a]\nseed = 1\n"), std::runtime_error);
}

TEST(DaemonConfig, RejectsZeroZones) {
  EXPECT_THROW(parse("socket = /tmp/t.sock\n"), std::runtime_error);
}

TEST(DaemonConfig, RejectsDuplicateZones) {
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\n[zone a]\n"), std::runtime_error);
}

TEST(DaemonConfig, RejectsUnknownKeysAtBothLevels) {
  EXPECT_THROW(parse("socket = /tmp/t.sock\nspeed = 11\n[zone a]\n"), std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\nwarp = 9\n"), std::runtime_error);
}

TEST(DaemonConfig, RejectsMalformedLines) {
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a\n"), std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\njust words\n"), std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[section]\n"), std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone ]\n"), std::runtime_error);
}

TEST(DaemonConfig, RejectsBadNumbersWithLineInfo) {
  try {
    parse("socket = /tmp/t.sock\n[zone a]\nseed = twelve\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\nmin_interval_days = 1.5x\n"),
               std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\ntelemetry = maybe\n"), std::runtime_error);
}

TEST(DaemonConfig, ParsesIngestKeys) {
  const DaemonConfig config = parse(R"(
socket = /tmp/t.sock
[zone a]
motion_threshold_db = 1.5
ingest_dedup_window = 512
ingest_max_pending_rounds = 16
)");
  EXPECT_EQ(config.zones[0].ingest.motion_threshold_db, 1.5);
  EXPECT_EQ(config.zones[0].ingest.dedup_window, 512u);
  EXPECT_EQ(config.zones[0].ingest.max_pending_rounds, 16u);
}

TEST(DaemonConfig, RejectsNegativeTimingAndSloValues) {
  // A negative value fed through stoull wraps to a huge unsigned -- the
  // parser must refuse it as a bad number, never accept the wrap; the
  // float keys in the same family must refuse negatives explicitly.
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\ntrace_sample_every = -1\n"),
               std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\nfault_slow_every = -5\n"),
               std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\nseed = -2\n"), std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\nslo_deadline_ms = -10\n"),
               std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\nfault_slow_ms = -3\n"),
               std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\nslow_query_ms = -3\n"),
               std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\nmotion_threshold_db = -1\n"),
               std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\ningest_dedup_window = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse("socket = /tmp/t.sock\n[zone a]\ningest_max_pending_rounds = 0\n"),
               std::runtime_error);
}

TEST(DaemonConfig, RejectsTraceSizesAndLatenciesBeyondTheirCaps) {
  // Trace rings and slow logs are allocated and zeroed up front, and
  // millisecond thresholds become uint64 nanoseconds: a huge value must
  // fail here, with its line number, not hang or overflow a zone.
  const auto rejected = [](const std::string& line) {
    try {
      parse("socket = /tmp/t.sock\n[zone a]\n" + line + "\n");
    } catch (const std::runtime_error& e) {
      return std::string(e.what()).find("line 3") != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(rejected("trace_ring_capacity = 1099511627776"));  // 2^40
  EXPECT_TRUE(rejected("trace_ring_capacity = 65537"));
  EXPECT_TRUE(rejected("slow_log_capacity = 1099511627776"));
  EXPECT_TRUE(rejected("slo_deadline_ms = 1e15"));
  EXPECT_TRUE(rejected("slow_query_ms = 1e15"));
  EXPECT_TRUE(rejected("slo_deadline_ms = nan"));
  EXPECT_TRUE(rejected("slow_query_ms = inf"));
  // An injected delay becomes a sleep_for duration: 1e300 ms overflows
  // the clock's integer nanoseconds.
  EXPECT_TRUE(rejected("fault_slow_ms = 1e300"));
  EXPECT_TRUE(rejected("fault_slow_ms = 86400001"));
  EXPECT_TRUE(rejected("fault_slow_ms = nan"));
  EXPECT_TRUE(rejected("fault_slow_ms = inf"));

  const DaemonConfig at_caps = parse(
      "socket = /tmp/t.sock\n[zone a]\ntrace_ring_capacity = 65536\n"
      "slow_log_capacity = 65536\nslo_deadline_ms = 86400000\nslow_query_ms = 86400000\n"
      "fault_slow_ms = 86400000\n");
  EXPECT_EQ(at_caps.zones[0].trace_ring_capacity, 65536u);
  EXPECT_EQ(at_caps.zones[0].slow_log_capacity, 65536u);
  EXPECT_EQ(at_caps.zones[0].slo_deadline_ms, 86400000.0);
  EXPECT_EQ(at_caps.zones[0].slow_query_ms, 86400000.0);
  EXPECT_EQ(at_caps.zones[0].fault_slow_ms, 86400000.0);
}

TEST(DaemonConfig, LoadFileMissingThrows) {
  EXPECT_THROW(DaemonConfig::load_file("/nonexistent/taflocd.conf"), std::runtime_error);
}

}  // namespace
}  // namespace tafloc::daemon
