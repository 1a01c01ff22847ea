#include "tafloc/daemon/config.h"

#include <cstddef>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "tafloc/telemetry/trace.h"

namespace tafloc::daemon {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("config line " + std::to_string(line_no) + ": " + what);
}

std::string strip(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && (s[begin] == ' ' || s[begin] == '\t')) ++begin;
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t' || s[end - 1] == '\r')) --end;
  return std::string(s.substr(begin, end - begin));
}

double parse_double(const std::string& value, std::size_t line_no, const std::string& key) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) fail(line_no, key + ": trailing garbage in '" + value + "'");
    return parsed;
  } catch (const std::invalid_argument&) {
    fail(line_no, key + ": not a number: '" + value + "'");
  } catch (const std::out_of_range&) {
    fail(line_no, key + ": out of range: '" + value + "'");
  }
}

std::uint64_t parse_u64(const std::string& value, std::size_t line_no, const std::string& key) {
  // std::stoull silently negates "-1" into 2^64-1; an unsigned knob fed
  // a negative value must fail loudly, not wrap into "practically off"
  // (or "practically always"), so reject the sign before parsing.
  if (!value.empty() && value[0] == '-') {
    fail(line_no, key + ": must be a non-negative integer, got '" + value + "'");
  }
  try {
    std::size_t consumed = 0;
    const unsigned long long parsed = std::stoull(value, &consumed);
    if (consumed != value.size()) fail(line_no, key + ": trailing garbage in '" + value + "'");
    return parsed;
  } catch (const std::invalid_argument&) {
    fail(line_no, key + ": not an integer: '" + value + "'");
  } catch (const std::out_of_range&) {
    fail(line_no, key + ": out of range: '" + value + "'");
  }
}

/// A trace ring / slow log size, at most kMaxTraceEntries.
std::uint64_t parse_trace_entries(const std::string& value, std::size_t line_no,
                                  const std::string& key) {
  const std::uint64_t entries = parse_u64(value, line_no, key);
  if (entries > kMaxTraceEntries) {
    fail(line_no, key + " must be at most " + std::to_string(kMaxTraceEntries) + ", got " + value);
  }
  return entries;
}

/// A per-request latency in ms (a threshold or an injected delay): 0
/// (off) up to kMaxLatencyThresholdMs.  Rejects NaN and infinities too.
double parse_latency_ms(const std::string& value, std::size_t line_no, const std::string& key) {
  const double ms = parse_double(value, line_no, key);
  if (!(ms >= 0.0 && ms <= kMaxLatencyThresholdMs)) {
    fail(line_no, key + " must be in [0, " +
                      std::to_string(static_cast<std::uint64_t>(kMaxLatencyThresholdMs)) +
                      "] (one day), got " + value);
  }
  return ms;
}

bool parse_bool(const std::string& value, std::size_t line_no, const std::string& key) {
  if (value == "true" || value == "1" || value == "on" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "off" || value == "no") return false;
  fail(line_no, key + ": not a boolean: '" + value + "'");
}

}  // namespace

DaemonConfig DaemonConfig::parse(std::istream& in) {
  DaemonConfig config;
  ZoneConfig* zone = nullptr;  // null while in the daemon-wide preamble.
  std::string raw;
  std::size_t line_no = 0;

  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = strip(raw);
    if (line.empty() || line[0] == '#') continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail(line_no, "unterminated section header: '" + line + "'");
      const std::string header = strip(line.substr(1, line.size() - 2));
      if (header.rfind("zone ", 0) != 0) {
        fail(line_no, "unknown section '" + header + "' (expected [zone <name>])");
      }
      const std::string name = strip(header.substr(5));
      if (name.empty()) fail(line_no, "zone section needs a name");
      if (config.find_zone(name) != nullptr) fail(line_no, "duplicate zone '" + name + "'");
      config.zones.push_back(ZoneConfig{});
      zone = &config.zones.back();
      zone->name = name;
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected key = value, got '" + line + "'");
    const std::string key = strip(line.substr(0, eq));
    const std::string value = strip(line.substr(eq + 1));
    if (key.empty()) fail(line_no, "empty key");

    if (zone == nullptr) {
      if (key == "socket") {
        config.socket_path = value;
      } else if (key == "telemetry_dir") {
        config.telemetry_dir = value;
      } else {
        fail(line_no, "unknown daemon key '" + key + "'");
      }
      continue;
    }

    if (key == "seed") {
      zone->seed = parse_u64(value, line_no, key);
    } else if (key == "state_dir") {
      zone->state_dir = value;
    } else if (key == "staleness_threshold_db") {
      zone->scheduler.staleness_threshold_db = parse_double(value, line_no, key);
    } else if (key == "min_interval_days") {
      zone->scheduler.min_interval_days = parse_double(value, line_no, key);
    } else if (key == "max_interval_days") {
      zone->scheduler.max_interval_days = parse_double(value, line_no, key);
    } else if (key == "telemetry") {
      zone->telemetry = parse_bool(value, line_no, key);
    } else if (key == "trace_sample_every") {
      zone->trace_sample_every = parse_u64(value, line_no, key);
    } else if (key == "trace_ring_capacity") {
      zone->trace_ring_capacity = parse_trace_entries(value, line_no, key);
    } else if (key == "slow_query_ms") {
      zone->slow_query_ms = parse_latency_ms(value, line_no, key);
    } else if (key == "slow_log_capacity") {
      zone->slow_log_capacity = parse_trace_entries(value, line_no, key);
    } else if (key == "slo_deadline_ms") {
      zone->slo_deadline_ms = parse_latency_ms(value, line_no, key);
    } else if (key == "slo_target") {
      zone->slo_target = parse_double(value, line_no, key);
      if (zone->slo_target <= 0.0 || zone->slo_target > 1.0)
        fail(line_no, "slo_target must be in (0, 1]");
    } else if (key == "fault_slow_every") {
      zone->fault_slow_every = parse_u64(value, line_no, key);
    } else if (key == "fault_slow_ms") {
      zone->fault_slow_ms = parse_latency_ms(value, line_no, key);
    } else if (key == "motion_threshold_db") {
      zone->ingest.motion_threshold_db = parse_double(value, line_no, key);
      if (zone->ingest.motion_threshold_db < 0.0) fail(line_no, "motion_threshold_db must be >= 0");
    } else if (key == "ingest_dedup_window") {
      zone->ingest.dedup_window = parse_u64(value, line_no, key);
      if (zone->ingest.dedup_window == 0) fail(line_no, "ingest_dedup_window must be >= 1");
    } else if (key == "ingest_max_pending_rounds") {
      zone->ingest.max_pending_rounds = parse_u64(value, line_no, key);
      if (zone->ingest.max_pending_rounds == 0)
        fail(line_no, "ingest_max_pending_rounds must be >= 1");
    } else {
      fail(line_no, "unknown zone key '" + key + "'");
    }
  }

  if (config.socket_path.empty()) {
    throw std::runtime_error("config: missing required daemon key 'socket'");
  }
  if (config.zones.empty()) {
    throw std::runtime_error("config: at least one [zone <name>] section is required");
  }
  return config;
}

DaemonConfig DaemonConfig::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open '" + path + "'");
  return parse(in);
}

const ZoneConfig* DaemonConfig::find_zone(const std::string& name) const {
  for (const ZoneConfig& z : zones) {
    if (z.name == name) return &z;
  }
  return nullptr;
}

}  // namespace tafloc::daemon
