// Telemetry substrate tests: exact counters under concurrency,
// histogram percentiles against a sorted reference, JSONL snapshot
// round-trips through a strict JSON parser, disabled-mode inertness,
// span nesting, the atomic logger, and the end-to-end system snapshot
// after a scheduler-driven update cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tafloc/sim/scenario.h"
#include "tafloc/tafloc/scheduler.h"
#include "tafloc/tafloc/system.h"
#include "tafloc/telemetry/metrics.h"
#include "tafloc/telemetry/span.h"
#include "tafloc/util/log.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

// ---------------- a minimal strict JSON parser ----------------
// Enough of RFC 8259 to validate every snapshot line standalone (the CI
// smoke step re-checks with python3 -m json.tool; this keeps the
// guarantee inside ctest).

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// True when the whole input is exactly one valid JSON value.
  bool valid() {
    pos_ = 0;
    ok_ = true;
    skip_ws();
    parse_value();
    skip_ws();
    return ok_ && pos_ == text_.size();
  }

 private:
  void fail() { ok_ = false; }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  void parse_value() {
    if (!ok_) return;
    switch (peek()) {
      case '{': parse_object(); return;
      case '[': parse_array(); return;
      case '"': parse_string(); return;
      case 't': parse_literal("true"); return;
      case 'f': parse_literal("false"); return;
      case 'n': parse_literal("null"); return;
      default: parse_number(); return;
    }
  }

  void parse_object() {
    consume('{');
    skip_ws();
    if (consume('}')) return;
    for (;;) {
      skip_ws();
      parse_string();
      skip_ws();
      if (!consume(':')) return fail();
      skip_ws();
      parse_value();
      skip_ws();
      if (consume('}')) return;
      if (!consume(',')) return fail();
      if (!ok_) return;
    }
  }

  void parse_array() {
    consume('[');
    skip_ws();
    if (consume(']')) return;
    for (;;) {
      skip_ws();
      parse_value();
      skip_ws();
      if (consume(']')) return;
      if (!consume(',')) return fail();
      if (!ok_) return;
    }
  }

  void parse_string() {
    if (!consume('"')) return fail();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return;
      if (static_cast<unsigned char>(c) < 0x20) return fail();
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail();
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_++])))
              return fail();
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) == std::string_view::npos) {
          return fail();
        }
      }
    }
    fail();  // unterminated
  }

  void parse_number() {
    const std::size_t start = pos_;
    consume('-');
    if (!std::isdigit(static_cast<unsigned char>(peek()))) return fail();
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (consume('.')) {
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return fail();
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return fail();
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) fail();
  }

  void parse_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail();
    pos_ += word.size();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// ---------------- counters and gauges ----------------

TEST(Telemetry, CounterConcurrentAddsAreExact) {
  MetricRegistry registry;
  Counter& counter = registry.counter("test.hits");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) counter.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
}

TEST(Telemetry, RegistryLookupIsStableAndIdempotent) {
  MetricRegistry registry;
  Counter& a = registry.counter("x.same");
  registry.counter("x.other").add(5);
  Counter& b = registry.counter("x.same");
  EXPECT_EQ(&a, &b) << "same name must resolve to the same metric";
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Telemetry, GaugeSetMaxOnlyRaises) {
  MetricRegistry registry;
  Gauge& g = registry.gauge("test.highwater");
  g.set_max(5.0);
  g.set_max(2.0);
  EXPECT_EQ(g.value(), 5.0);
  g.set_max(9.0);
  EXPECT_EQ(g.value(), 9.0);
  g.set(1.0);  // plain set may lower
  EXPECT_EQ(g.value(), 1.0);
}

// ---------------- histograms ----------------

TEST(Telemetry, HistogramConcurrentObservationsKeepExactTotals) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("test.latency");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        h.observe(1e-6 * static_cast<double>(t * kPerThread + i + 1));
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(h.count(), kThreads * kPerThread);
  const double n = static_cast<double>(kThreads * kPerThread);
  const double expected_sum = 1e-6 * n * (n + 1.0) / 2.0;
  EXPECT_NEAR(h.sum(), expected_sum, 1e-9 * expected_sum);
  EXPECT_EQ(h.min(), 1e-6);
  EXPECT_EQ(h.max(), 1e-6 * n);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.num_buckets(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, h.count()) << "every observation lands in exactly one bucket";
}

TEST(Telemetry, HistogramQuantilesMatchSortedReferenceWithinBucketWidth) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("test.dist");
  Rng rng(2024);
  std::vector<double> values;
  for (std::size_t i = 0; i < 20000; ++i) {
    // Log-uniform over ~6 decades: exercises many buckets.
    values.push_back(std::pow(10.0, -6.0 + 6.0 * rng.uniform01()));
    h.observe(values.back());
  }
  std::sort(values.begin(), values.end());

  const std::vector<double>& bounds = h.bounds();
  for (const double q : {0.5, 0.95, 0.99}) {
    const double est = h.quantile(q);
    const double ref = values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))];
    // Accuracy contract: the estimate lives in the same bucket as the
    // true quantile, so it is within one bucket width of the reference.
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), ref);
    const double hi = it != bounds.end() ? *it : values.back();
    const double lo = it != bounds.begin() ? *(it - 1) : 0.0;
    EXPECT_GE(est, lo) << "q=" << q;
    EXPECT_LE(est, hi * (1.0 + 1e-12)) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(0.0), h.min());
  EXPECT_EQ(h.quantile(1.0), h.max());
}

TEST(Telemetry, HistogramEmptyAndSingleValueEdgeCases) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("test.edge");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  h.observe(0.0042);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0.0042);
  EXPECT_EQ(h.max(), 0.0042);
  // Quantiles clamp to observed min/max, never outside.
  EXPECT_EQ(h.quantile(0.5), 0.0042);
  EXPECT_EQ(h.quantile(0.99), 0.0042);
  // Extreme q on a single sample behaves like min/max too.
  EXPECT_EQ(h.quantile(0.0), 0.0042);
  EXPECT_EQ(h.quantile(1.0), 0.0042);
}

TEST(Telemetry, HistogramAllSamplesInOneBucketStayInsideObservedRange) {
  // Every observation lands in the same bucket: the within-bucket
  // interpolation must never extrapolate outside [min, max], at any q.
  MetricRegistry registry;
  Histogram& h = registry.histogram("test.onebucket");
  for (int i = 0; i < 1000; ++i) h.observe(0.00107);  // identical samples
  EXPECT_EQ(h.count(), 1000u);
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double est = h.quantile(q);
    EXPECT_GE(est, h.min()) << "q=" << q;
    EXPECT_LE(est, h.max()) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(0.0), h.min());
  EXPECT_EQ(h.quantile(1.0), h.max());
}

// ---------------- spans ----------------

TEST(Telemetry, ScopedSpansNestAndRecordDepth) {
  MetricRegistry registry;
  {
    ScopedSpan outer(&registry, "stage.outer");
    EXPECT_TRUE(outer.active());
    EXPECT_EQ(ScopedSpan::current_depth(), 1u);
    {
      ScopedSpan inner(&registry, "stage.inner");
      EXPECT_EQ(ScopedSpan::current_depth(), 2u);
    }
    EXPECT_EQ(ScopedSpan::current_depth(), 1u);
  }
  EXPECT_EQ(ScopedSpan::current_depth(), 0u);
  EXPECT_EQ(registry.spans_recorded(), 2u);

  const std::vector<SpanRecord> trace = registry.trace();
  ASSERT_EQ(trace.size(), 2u);
  // Spans complete inner-first.
  EXPECT_EQ(trace[0].name, "stage.inner");
  EXPECT_EQ(trace[0].depth, 1u);
  EXPECT_EQ(trace[1].name, "stage.outer");
  EXPECT_EQ(trace[1].depth, 0u);
  EXPECT_GE(trace[1].duration_ns, trace[0].duration_ns)
      << "the enclosing span cannot be shorter than its child";
  // Each span also fed the same-named histogram.
  EXPECT_EQ(registry.histogram("stage.outer").count(), 1u);
  EXPECT_EQ(registry.histogram("stage.inner").count(), 1u);
}

TEST(Telemetry, TraceRingEvictsOldestBeyondCapacity) {
  TelemetryConfig config;
  config.trace_capacity = 4;
  MetricRegistry registry(config);
  for (int i = 0; i < 10; ++i)
    registry.record_span("event." + std::to_string(i), 0, static_cast<std::uint64_t>(i), 0);
  EXPECT_EQ(registry.spans_recorded(), 10u);
  const std::vector<SpanRecord> trace = registry.trace();
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.front().name, "event.6");
  EXPECT_EQ(trace.back().name, "event.9");
}

// ---------------- disabled mode ----------------

TEST(Telemetry, DisabledRegistryStaysInert) {
  TelemetryConfig config;
  config.enabled = false;
  MetricRegistry registry(config);
  EXPECT_FALSE(registry.enabled());

  registry.counter("a").add(41);
  registry.gauge("b").set(1.0);
  registry.histogram("c").observe(2.0);
  EXPECT_EQ(registry.size(), 0u) << "disabled lookups must not register metrics";

  {
    ScopedSpan span(&registry, "stage.ignored");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(ScopedSpan::current_depth(), 0u) << "disabled spans must not nest";
  }
  EXPECT_EQ(registry.spans_recorded(), 0u);
  EXPECT_TRUE(registry.trace().empty());

  EXPECT_EQ(registry_counter(&registry, "a"), nullptr);
  EXPECT_EQ(registry_gauge(&registry, "b"), nullptr);
  EXPECT_EQ(registry_histogram(&registry, "c"), nullptr);
  EXPECT_EQ(registry_counter(nullptr, "a"), nullptr);

  // The snapshot is just the header line.
  const std::vector<std::string> lines = split_lines(registry.snapshot_json());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"enabled\":false"), std::string::npos);
  EXPECT_NE(lines[0].find("\"metrics\":0"), std::string::npos);
}

TEST(Telemetry, NullRegistrySpanIsANoop) {
  ScopedSpan span(nullptr, "anything");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(ScopedSpan::current_depth(), 0u);
}

// ---------------- exporters ----------------

TEST(Telemetry, SnapshotJsonLinesAllParseStandalone) {
  MetricRegistry registry;
  registry.counter("layer.comp.events").add(7);
  registry.gauge("layer.comp.level").set(-3.25);
  registry.gauge("layer.weird\"name\\with\tescapes").set(1.0);
  Histogram& h = registry.histogram("layer.comp.latency_seconds");
  for (int i = 1; i <= 100; ++i) h.observe(1e-4 * i);
  {
    ScopedSpan span(&registry, "layer.comp.op_seconds");
  }

  const std::vector<std::string> lines = split_lines(registry.snapshot_json());
  // header + 1 counter + 2 gauges + 2 histograms (latency + span) + 1 span.
  ASSERT_EQ(lines.size(), 7u);
  for (const std::string& line : lines) {
    JsonParser parser(line);
    EXPECT_TRUE(parser.valid()) << "not valid JSON: " << line;
  }
  EXPECT_NE(lines[0].find("\"type\":\"snapshot\""), std::string::npos);
  const std::string all = registry.snapshot_json();
  EXPECT_NE(all.find("\"type\":\"counter\",\"name\":\"layer.comp.events\",\"value\":7"),
            std::string::npos);
  EXPECT_NE(all.find("\"type\":\"span\",\"name\":\"layer.comp.op_seconds\""),
            std::string::npos);
}

TEST(Telemetry, SnapshotJsonHandlesNonFiniteGauges) {
  MetricRegistry registry;
  registry.gauge("test.nan").set(std::nan(""));
  registry.gauge("test.inf").set(std::numeric_limits<double>::infinity());
  const std::vector<std::string> lines = split_lines(registry.snapshot_json());
  for (const std::string& line : lines) {
    JsonParser parser(line);
    EXPECT_TRUE(parser.valid()) << "not valid JSON: " << line;
  }
  EXPECT_NE(registry.snapshot_json().find("\"name\":\"test.nan\",\"value\":null"),
            std::string::npos);
}

TEST(Telemetry, TextDumpListsEveryMetric) {
  MetricRegistry registry;
  registry.counter("a.count").add(3);
  registry.gauge("b.gauge").set(2.5);
  registry.histogram("c.hist").observe(0.5);
  const std::string dump = registry.text_dump();
  EXPECT_NE(dump.find("a.count"), std::string::npos);
  EXPECT_NE(dump.find("b.gauge"), std::string::npos);
  EXPECT_NE(dump.find("c.hist"), std::string::npos);
}

// ---------------- zone attribution labels ----------------

TEST(Telemetry, ZoneLabelTagsEveryExportLine) {
  TelemetryConfig config;
  config.zone = "lobby";
  MetricRegistry registry(config);
  EXPECT_EQ(registry.zone(), "lobby");
  registry.counter("zone.queries").add(2);
  registry.gauge("zone.staleness_db").set(1.5);
  registry.histogram("zone.latency_seconds").observe(0.01);
  {
    ScopedSpan span(&registry, "zone.update_seconds");
  }
  const std::vector<std::string> lines = split_lines(registry.snapshot_json());
  ASSERT_GE(lines.size(), 5u);  // header + counter + gauge + 2 histograms + span.
  for (const std::string& line : lines) {
    JsonParser parser(line);
    EXPECT_TRUE(parser.valid()) << "not valid JSON: " << line;
    EXPECT_NE(line.find("\"zone\":\"lobby\""), std::string::npos)
        << "unlabeled line: " << line;
  }
  EXPECT_NE(registry.text_dump().find("zone=lobby"), std::string::npos);
}

TEST(Telemetry, EmptyZoneLabelKeepsLibraryExportUnlabeled) {
  MetricRegistry registry;  // default config: no zone.
  registry.counter("a.count").add(1);
  registry.gauge("b.gauge").set(0.5);
  {
    ScopedSpan span(&registry, "c.op_seconds");
  }
  const std::string snapshot = registry.snapshot_json();
  EXPECT_EQ(snapshot.find("\"zone\""), std::string::npos)
      << "no-label export must stay byte-identical to the historical format";
  EXPECT_EQ(registry.text_dump().find("zone="), std::string::npos);
}

TEST(Telemetry, ZoneLabelWithSpecialCharactersStaysValidJson) {
  TelemetryConfig config;
  config.zone = "lab\"2\\north";
  MetricRegistry registry(config);
  registry.counter("a.count").add(1);
  for (const std::string& line : split_lines(registry.snapshot_json())) {
    JsonParser parser(line);
    EXPECT_TRUE(parser.valid()) << "not valid JSON: " << line;
  }
}

// ---------------- atomic logging ----------------

TEST(Telemetry, ConcurrentLogLinesNeverInterleave) {
  const LogLevel previous = log_level();
  set_log_level(LogLevel::Info);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLines = 50;

  testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (std::size_t i = 0; i < kLines; ++i) {
        log_message(LogLevel::Info, "thread-" + std::to_string(t) + "-line-" +
                                        std::to_string(i) + "-end");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::string captured = testing::internal::GetCapturedStderr();
  set_log_level(previous);

  const std::vector<std::string> lines = split_lines(captured);
  ASSERT_EQ(lines.size(), kThreads * kLines);
  std::vector<std::size_t> seen(kThreads, 0);
  for (const std::string& line : lines) {
    // Prefix: "[tafloc INFO  <ISO-8601>Z +<seconds>s] thread-T-line-I-end"
    // -- one complete message per line, never split or merged, with
    // wall-clock UTC next to the monotonic offset.
    ASSERT_EQ(line.rfind("[tafloc INFO  ", 0), 0u) << "bad prefix: " << line;
    const std::size_t close = line.find("] ");
    ASSERT_NE(close, std::string::npos) << line;
    const std::string stamp = line.substr(14, close - 14);
    const std::size_t space = stamp.find(' ');
    ASSERT_NE(space, std::string::npos) << "missing wall clock: " << line;
    const std::string wall = stamp.substr(0, space);
    // 2026-08-09T12:34:56.789Z -- fixed-width ISO-8601 UTC.
    ASSERT_EQ(wall.size(), 24u) << "bad wall clock: " << line;
    EXPECT_EQ(wall[4], '-');
    EXPECT_EQ(wall[10], 'T');
    EXPECT_EQ(wall[19], '.');
    EXPECT_EQ(wall.back(), 'Z');
    const std::string mono = stamp.substr(space + 1);
    ASSERT_EQ(mono.rfind('+', 0), 0u) << "missing monotonic offset: " << line;
    EXPECT_EQ(mono.back(), 's') << "missing timestamp unit: " << line;
    const std::string payload = line.substr(close + 2);
    ASSERT_EQ(payload.rfind("thread-", 0), 0u) << "torn line: " << line;
    ASSERT_EQ(payload.size() - payload.rfind("-end"), 4u) << "torn line: " << line;
    const std::size_t thread_id = static_cast<std::size_t>(std::stoul(payload.substr(7)));
    ASSERT_LT(thread_id, kThreads);
    ++seen[thread_id];
  }
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(seen[t], kLines) << "thread " << t << " lost lines";
}

// ---------------- end-to-end system snapshot ----------------

TEST(Telemetry, SystemSnapshotCoversSchedulerReconAndLocalization) {
  Scenario scenario = Scenario::paper_room(5);
  TafLocConfig config;
  TafLocSystem system(scenario.deployment(), config);
  EXPECT_TRUE(system.telemetry().enabled());

  Rng rng(77);
  const Matrix survey = scenario.collector().survey_all(0.0, rng);
  const Vector ambient = scenario.collector().ambient_scan(0.0, rng);
  system.calibrate(survey, ambient, 0.0);

  UpdateScheduler scheduler(ambient, 0.0);
  scheduler.attach_telemetry(&system.telemetry());

  // Drive cheap ambient scans forward until the scheduler triggers (the
  // max-interval clamp guarantees it within the scan horizon).
  double t = 0.0;
  bool triggered = false;
  for (t = 5.0; t <= 50.0; t += 5.0) {
    const Vector scan = scenario.collector().ambient_scan(t, rng);
    if (scheduler.observe_ambient(scan, t)) {
      triggered = true;
      break;
    }
  }
  ASSERT_TRUE(triggered);
  const TafLocSystem::UpdateReport report =
      system.update_with_collector(scenario.collector(), t, rng);
  scheduler.notify_updated(system.database().ambient(), t);
  EXPECT_GT(report.solver.outer_iterations, 0u);

  Vector rss(survey.rows());
  for (std::size_t q = 0; q < 8; ++q) {
    for (double& v : rss) v = rng.normal(-50.0, 5.0);
    (void)system.localize(rss);
  }

  const std::string snapshot = system.telemetry_snapshot_json();
  for (const std::string& line : split_lines(snapshot)) {
    JsonParser parser(line);
    EXPECT_TRUE(parser.valid()) << "not valid JSON: " << line;
  }
  // The acceptance surface: scheduler staleness gauge, the trigger
  // event, recon iteration/residual metrics, a populated per-query
  // latency histogram, and the sampled pool gauges.
  EXPECT_NE(snapshot.find("\"name\":\"scheduler.staleness_db\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"type\":\"span\",\"name\":\"scheduler.update_trigger\""),
            std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"recon.loli_ir.outer_iterations\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"recon.loli_ir.sweep_rel_change\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"loc.knn.query_seconds\",\"count\":8"),
            std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"exec.pool.threads\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"system.update_seconds\""), std::string::npos);
  EXPECT_EQ(system.telemetry().counter("system.updates").value(), 1u);
  EXPECT_EQ(system.telemetry().counter("scheduler.update_triggers").value(), 1u);
}

TEST(Telemetry, DisabledSystemRecordsNothing) {
  Scenario scenario = Scenario::paper_room(6);
  TafLocConfig config;
  config.telemetry.enabled = false;
  TafLocSystem system(scenario.deployment(), config);
  EXPECT_FALSE(system.telemetry().enabled());

  Rng rng(78);
  const Matrix survey = scenario.collector().survey_all(0.0, rng);
  const Vector ambient = scenario.collector().ambient_scan(0.0, rng);
  system.calibrate(survey, ambient, 0.0);
  Vector rss(survey.rows());
  for (double& v : rss) v = rng.normal(-50.0, 5.0);
  (void)system.localize(rss);

  EXPECT_EQ(system.telemetry().size(), 0u);
  EXPECT_EQ(system.telemetry().spans_recorded(), 0u);
}

}  // namespace
}  // namespace tafloc
