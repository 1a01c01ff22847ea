// taflocd configuration -- one daemon, many zones.
//
// The config file is a minimal INI dialect (comments with '#', blank
// lines ignored):
//
//   # daemon-wide settings come before the first section
//   socket = /run/tafloc/taflocd.sock
//   telemetry_dir = /var/lib/tafloc/telemetry
//
//   [zone office]
//   seed = 4242                 # scenario RNG seed (sim-backed zone)
//   state_dir = /var/lib/tafloc/office   # empty = zone not durable
//   staleness_threshold_db = 3.0
//   min_interval_days = 1.0
//   max_interval_days = 45.0
//   telemetry = true
//   trace_sample_every = 100    # 0 = off, 1 = every query, N = every Nth
//   trace_ring_capacity = 256
//   slow_query_ms = 50.0        # 0 = slow-query log off
//   slow_log_capacity = 64
//   slo_deadline_ms = 100.0     # 0 = no latency SLO
//   slo_target = 0.99           # fraction of queries that must meet it
//   fault_slow_every = 0        # drills: delay every Nth query...
//   fault_slow_ms = 0.0         # ...by this much (0/0 = off)
//   motion_threshold_db = 1.0   # ingest gate: below = ambient, above = query
//   ingest_dedup_window = 1024  # per-node sequence dedup window
//   ingest_max_pending_rounds = 64  # open merge rounds before expiry
//
// Parsing is strict: unknown keys, duplicate zone names, a missing
// socket path, an unparsable number, or a value out of range all throw
// std::runtime_error with the offending line number -- a daemon must
// refuse a config it does not fully understand rather than half-apply
// it.  trace_ring_capacity and slow_log_capacity are capped at
// kMaxTraceEntries (65536), and slow_query_ms, slo_deadline_ms and
// fault_slow_ms at kMaxLatencyThresholdMs (one day); see
// telemetry/trace.h.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tafloc/tafloc/scheduler.h"

namespace tafloc::daemon {

/// Edge-ingestion knobs (the kBatchIngest path; see src/ingest).
struct IngestConfig {
  /// Symmetric-diff movement gate against the scheduler's ambient
  /// baseline: a completed round whose mean |Y - baseline| stays below
  /// this is classified ambient (feeds the update scheduler); at or
  /// above it the round is admitted as a localize query.
  double motion_threshold_db = 1.0;
  std::uint64_t dedup_window = 1024;      ///< per-node sequence dedup window.
  std::uint64_t max_pending_rounds = 64;  ///< open merge rounds before expiry.
};

struct ZoneConfig {
  std::string name;
  std::uint64_t seed = 1;     ///< Scenario::paper_room seed backing the zone.
  std::string state_dir;      ///< durability directory; empty = in-memory only.
  SchedulerConfig scheduler;  ///< time-adaptive update trigger tuning.
  bool telemetry = true;      ///< per-zone MetricRegistry on/off.

  // -- request tracing --
  std::uint64_t trace_sample_every = 0;   ///< 0 = off, N = every Nth query.
  std::uint64_t trace_ring_capacity = 256;
  double slow_query_ms = 0.0;             ///< slow-query threshold (0 = off).
  std::uint64_t slow_log_capacity = 64;

  // -- latency SLO --
  double slo_deadline_ms = 0.0;  ///< per-query deadline (0 = no SLO).
  double slo_target = 0.99;      ///< fraction that must meet the deadline.

  // -- fault injection (drills/tests only) --
  std::uint64_t fault_slow_every = 0;  ///< delay every Nth query (0 = off).
  double fault_slow_ms = 0.0;          ///< injected delay per hit.

  // -- edge ingestion (kBatchIngest) --
  IngestConfig ingest;
};

struct DaemonConfig {
  std::string socket_path;    ///< Unix domain socket taflocd listens on.
  std::string telemetry_dir;  ///< per-zone JSONL exports on drain; empty = off.
  std::vector<ZoneConfig> zones;

  /// Parse from a stream / file.  Throws std::runtime_error with a
  /// line-numbered message on any malformed or unknown input.
  static DaemonConfig parse(std::istream& in);
  static DaemonConfig load_file(const std::string& path);

  /// The zone config of `name`, or nullptr.
  const ZoneConfig* find_zone(const std::string& name) const;
};

}  // namespace tafloc::daemon
