// Request tracing: record/ring/slow-log semantics, sampling decisions,
// scope + stage capture, JSONL export, and the accounting counters the
// daemon's introspection surfaces are built on.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tafloc/telemetry/metrics.h"
#include "tafloc/telemetry/trace.h"

namespace tafloc {
namespace {

TraceRecord make_record(std::uint64_t seq, std::uint64_t total_ns = 1000) {
  TraceRecord r;
  r.trace_id = seq + 1;
  r.seq = seq;
  r.total_ns = total_ns;
  r.set_state("serving");
  return r;
}

TEST(TraceRecord, StateIsTruncatedNotOverrun) {
  TraceRecord r;
  r.set_state("a-zone-state-name-much-longer-than-the-inline-buffer");
  EXPECT_LT(std::strlen(r.state), sizeof r.state);
  r.set_state("serving");
  EXPECT_STREQ(r.state, "serving");
}

TEST(TraceRecord, StageOverflowIsCountedNeverSilent) {
  TraceRecord r;
  for (std::uint32_t i = 0; i < kTraceMaxStages + 5; ++i) {
    r.add_stage("stage", 0, i, 1);
  }
  EXPECT_EQ(r.stage_count, kTraceMaxStages);
  EXPECT_EQ(r.stages_dropped, 5u);
}

TEST(TraceRing, RetainsNewestAndCountsOverwrites) {
  TraceRing ring(4);  // already a power of two.
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(make_record(i));
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.overwritten(), 6u);

  const std::vector<TraceRecord> all = ring.snapshot();
  ASSERT_EQ(all.size(), 4u);
  // Oldest first, and only the newest four survive.
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, 6u + i);

  const std::vector<TraceRecord> two = ring.snapshot(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].seq, 8u);
  EXPECT_EQ(two[1].seq, 9u);
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(TraceRing, ZeroCapacityIsInert) {
  TraceRing ring(0);
  ring.push(make_record(0));
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, RejectsCapacityBeyondTheCap) {
  // Rounding 2^63 + 1 up to a power of two never terminated; anything
  // past the cap (2^16 slots) is refused before allocation.
  EXPECT_THROW(TraceRing(std::size_t{1} << 40), std::invalid_argument);
  EXPECT_THROW(TraceRing(65537), std::invalid_argument);
  EXPECT_THROW(SlowLog(std::size_t{1} << 40), std::invalid_argument);
}

TEST(SlowLog, AppendOnlyBoundedWithDropCounter) {
  SlowLog log(2);
  EXPECT_TRUE(log.append(make_record(0)));
  EXPECT_TRUE(log.append(make_record(1)));
  EXPECT_FALSE(log.append(make_record(2)));  // full: dropped, not evicted.
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  const std::vector<TraceRecord> entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].seq, 0u);  // earliest evidence is preserved.
  EXPECT_EQ(entries[1].seq, 1u);
}

TEST(Tracer, PeriodicSamplerTakesEveryNth) {
  TracerConfig config;
  config.sample_every = 3;
  Tracer tracer(config);
  EXPECT_TRUE(tracer.active());
  EXPECT_TRUE(tracer.should_sample({}, 0));
  EXPECT_FALSE(tracer.should_sample({}, 1));
  EXPECT_FALSE(tracer.should_sample({}, 2));
  EXPECT_TRUE(tracer.should_sample({}, 3));
}

TEST(Tracer, RejectsASlowThresholdBeyondOneDay) {
  // slow_threshold_ms * 1e6 must fit a uint64 of nanoseconds.
  TracerConfig config;
  config.slow_threshold_ms = 1e15;
  EXPECT_THROW(Tracer{config}, std::invalid_argument);
  config.slow_threshold_ms = std::nan("");
  EXPECT_THROW(Tracer{config}, std::invalid_argument);
  config.slow_threshold_ms = 86'400'000.0;  // one day: accepted.
  EXPECT_EQ(Tracer(config).slow_threshold_ns(), 86'400'000'000'000u);
}

TEST(Tracer, ClientForcedSamplingBeatsThePeriodicSampler) {
  TracerConfig config;
  config.sample_every = 0;  // server-side sampling off...
  Tracer tracer(config);
  TraceContext forced;
  forced.sampled = true;
  EXPECT_TRUE(tracer.should_sample(forced, 1));  // ...client still wins.
  EXPECT_FALSE(tracer.should_sample({}, 1));

  TracerConfig no_ring;
  no_ring.ring_capacity = 0;
  no_ring.slow_log_capacity = 0;
  Tracer inert(no_ring);
  EXPECT_FALSE(inert.should_sample(forced, 1));  // nowhere to put it.
  EXPECT_FALSE(inert.active());
}

TEST(Tracer, FinishRoutesToRingAndSlowLog) {
  MetricRegistry reg;  // enabled by default.
  TracerConfig config;
  config.sample_every = 1;
  config.slow_threshold_ms = 1.0;
  config.slow_log_capacity = 4;
  Tracer tracer(config, &reg);

  TraceRecord fast = make_record(0, 100'000);  // 0.1 ms.
  fast.sampled = true;
  tracer.finish(fast);
  TraceRecord slow = make_record(1, 5'000'000);  // 5 ms > 1 ms threshold.
  slow.sampled = true;
  tracer.finish(slow);

  EXPECT_EQ(tracer.ring().pushed(), 2u);
  ASSERT_EQ(tracer.slow_log().size(), 1u);
  EXPECT_EQ(tracer.slow_log().entries()[0].seq, 1u);
  EXPECT_TRUE(tracer.slow_log().entries()[0].slow);
  EXPECT_EQ(reg.counter("trace.sampled").value(), 2u);
  EXPECT_EQ(reg.counter("trace.slow").value(), 1u);
}

TEST(Tracer, ScopeCapturesStagesWithNestingDepth) {
  TracerConfig config;
  config.sample_every = 1;
  Tracer tracer(config);
  {
    TraceScope scope(tracer, {}, 250);
    ASSERT_TRUE(scope.capturing());
    {
      TraceStage outer("outer");
      TraceStage inner("inner");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    scope.record().served = true;
  }
  const std::vector<TraceRecord> records = tracer.ring().snapshot();
  ASSERT_EQ(records.size(), 1u);
  const TraceRecord& r = records[0];
  EXPECT_EQ(r.queue_wait_ns, 250u);
  EXPECT_TRUE(r.served);
  EXPECT_GT(r.total_ns, 0u);
  ASSERT_EQ(r.stage_count, 2u);
  // Destruction order closes inner first.
  EXPECT_STREQ(r.stages[0].name, "inner");
  EXPECT_EQ(r.stages[0].depth, 1u);
  EXPECT_STREQ(r.stages[1].name, "outer");
  EXPECT_EQ(r.stages[1].depth, 0u);
  EXPECT_LE(r.stages[1].start_ns + r.stages[1].duration_ns, r.total_ns);
}

TEST(Tracer, InactiveTracerRecordsNothingAndInstallsNoThreadState) {
  TracerConfig config;
  config.ring_capacity = 0;
  config.slow_log_capacity = 0;
  Tracer tracer(config);
  ASSERT_FALSE(tracer.active());
  {
    TraceScope scope(tracer, {}, 0);
    EXPECT_FALSE(scope.capturing());
    TraceStage stage("ignored");  // must be a no-op, not a crash.
  }
  EXPECT_EQ(tracer.ring().pushed(), 0u);
  EXPECT_EQ(tracer.requests(), 0u);
}

TEST(Tracer, UnsampledRequestStillFeedsTheSlowLog) {
  TracerConfig config;
  config.sample_every = 0;          // ring sampling off...
  config.slow_threshold_ms = 0.001; // ...but everything is "slow".
  Tracer tracer(config);
  {
    TraceScope scope(tracer, {}, 0);
    EXPECT_TRUE(scope.capturing());  // stages wanted for the slow log.
    TraceStage stage("work");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(tracer.ring().pushed(), 0u);
  ASSERT_EQ(tracer.slow_log().size(), 1u);
  EXPECT_GE(tracer.slow_log().entries()[0].stage_count, 1u);
}

TEST(Tracer, TraceIdDefaultsToOrdinalPlusOne) {
  TracerConfig config;
  config.sample_every = 1;
  Tracer tracer(config);
  { TraceScope scope(tracer, {}, 0); }
  TraceContext ctx;
  ctx.trace_id = 777;
  { TraceScope scope(tracer, ctx, 0); }
  const std::vector<TraceRecord> records = tracer.ring().snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 1u);    // seq 0 -> id 1, never 0.
  EXPECT_EQ(records[1].trace_id, 777u);  // client id wins.
}

// Minimal structural JSON check: balanced braces/brackets outside
// strings, no raw control bytes.  The CI smoke runs every exported line
// through a real JSON parser; this keeps unit feedback local.
void expect_plausible_json_line(const std::string& line) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    ASSERT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte at " << i;
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(TraceJson, RecordLineIsSelfContainedAndEscaped) {
  TraceRecord r = make_record(3, 42'000);
  r.queue_wait_ns = 77;
  r.fault_injected = true;
  r.add_stage("zone.serve", 0, 10, 30'000);
  const std::string line = Tracer::record_json(r, "office \"A\"\n");
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  expect_plausible_json_line(line.substr(0, line.size() - 1));
  EXPECT_NE(line.find("\"type\":\"trace\""), std::string::npos);
  EXPECT_NE(line.find("\"zone\":\"office \\\"A\\\"\\n\""), std::string::npos);
  EXPECT_NE(line.find("\"trace_id\":4"), std::string::npos);
  EXPECT_NE(line.find("\"queue_wait_ns\":77"), std::string::npos);
  EXPECT_NE(line.find("\"fault_injected\":true"), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"zone.serve\""), std::string::npos);
}

TEST(TraceJson, RingAndSlowExportsAreOneLinePerRecord) {
  TracerConfig config;
  config.sample_every = 1;
  config.slow_threshold_ms = 0.0005;
  config.zone = "lab";
  Tracer tracer(config);
  for (int i = 0; i < 3; ++i) {
    TraceScope scope(tracer, {}, 0);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const std::string ring = tracer.ring_json();
  const std::string slow = tracer.slow_json();
  int ring_lines = 0;
  for (char c : ring) ring_lines += c == '\n';
  int slow_lines = 0;
  for (char c : slow) slow_lines += c == '\n';
  EXPECT_EQ(ring_lines, 3);
  EXPECT_EQ(slow_lines, 3);
  EXPECT_NE(ring.find("\"zone\":\"lab\""), std::string::npos);
}

TEST(Tracer, AccountingCountersLandInTheRegistry) {
  MetricRegistry reg;  // enabled by default.
  TracerConfig config;
  config.sample_every = 2;
  Tracer tracer(config, &reg);
  for (int i = 0; i < 4; ++i) {
    TraceScope scope(tracer, {}, 0);
  }
  EXPECT_EQ(reg.counter("trace.requests").value(), 4u);
  EXPECT_EQ(reg.counter("trace.sampled").value(), 2u);  // seqs 0 and 2.
  EXPECT_EQ(tracer.requests(), 4u);
}

}  // namespace
}  // namespace tafloc
