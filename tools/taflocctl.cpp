// taflocctl -- control client for taflocd.
//
//   taflocctl --socket=PATH status   [--zone=NAME]
//   taflocctl --socket=PATH localize --zone=NAME --rss=v1,v2,... [--trace_id=N] [--trace]
//   taflocctl --socket=PATH probe    --zone=NAME [--count=N]
//   taflocctl --socket=PATH observe  --zone=NAME --t=DAYS --ambient=v1,v2,...
//   taflocctl --socket=PATH resurvey --zone=NAME --t=DAYS
//   taflocctl --socket=PATH top      [--zone=NAME]
//   taflocctl --socket=PATH trace    --zone=NAME [--max=N] [--slow]
//   taflocctl --socket=PATH drain    [--zone=NAME]
//   taflocctl --socket=PATH reload
//   taflocctl --socket=PATH shutdown
//
// `top` is the live-introspection view: one row per zone with QPS,
// request latency quantiles, served/degraded/shed counts, the exact
// int8 keys a two-tier query computed on average (the tier's cell
// count without the projection bound, far fewer with it), staleness,
// recalibration status, and the SLO error budget -- assembled from one
// kMetricsRequest + one kStatusRequest, no daemon-side state.
// `trace` dumps the zone's retained trace records (or, with --slow, its
// slow-query log) as JSONL on stdout, one request per line.
//
// Exit status: 0 when the daemon answered with wire status ok, 1 on a
// daemon-side error status, 2 on usage/connection errors.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "tafloc/daemon/client.h"
#include "tafloc/daemon/wire.h"
#include "tafloc/util/cli.h"

namespace {

using namespace tafloc;
using namespace tafloc::daemon;

int usage() {
  std::fprintf(stderr,
               "usage: taflocctl --socket=PATH "
               "status|localize|probe|observe|resurvey|top|trace|drain|reload|shutdown [options]\n"
               "  status   [--zone=NAME]\n"
               "  localize --zone=NAME --rss=v1,v2,... [--trace_id=N] [--trace]\n"
               "  probe    --zone=NAME [--count=N]\n"
               "  observe  --zone=NAME --t=DAYS --ambient=v1,v2,...\n"
               "  resurvey --zone=NAME --t=DAYS\n"
               "  top      [--zone=NAME]\n"
               "  trace    --zone=NAME [--max=N] [--slow]\n"
               "  drain    [--zone=NAME]\n"
               "  reload | shutdown\n");
  return 2;
}

/// kError replies can answer any request type; report and exit 1.
bool maybe_error(const storage::Frame& frame) {
  if (frame.type != static_cast<std::uint32_t>(PacketType::kError)) return false;
  const ErrorResponse err = ErrorResponse::decode(frame);
  std::fprintf(stderr, "error (%s): %s\n", wire_status_name(err.status), err.message.c_str());
  return true;
}

int report(WireStatus status, const std::string& message) {
  if (status == WireStatus::kOk) return 0;
  std::fprintf(stderr, "error (%s): %s\n", wire_status_name(status), message.c_str());
  return 1;
}

std::uint64_t find_counter(const ZoneMetrics& m, const char* name) {
  for (const auto& [key, value] : m.counters) {
    if (key == name) return value;
  }
  return 0;
}

const WireHistogram* find_histogram(const ZoneMetrics& m, const char* name) {
  for (const WireHistogram& h : m.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::string socket_path = args.get_string("socket", "");
  if (socket_path.empty() || args.positionals().size() != 1) return usage();
  const std::string command = args.positionals()[0];
  const std::string zone = args.get_string("zone", "");

  try {
    Client client(socket_path);
    std::uint64_t seq = 1;

    if (command == "status") {
      const storage::Frame frame = client.round_trip(StatusRequest{zone}.encode(seq));
      if (maybe_error(frame)) return 1;
      const StatusResponse res = StatusResponse::decode(frame);
      for (const ZoneStatus& z : res.zones) {
        std::printf(
            "zone=%s state=%s%s queries=%llu updates=%llu failed=%llu in_flight=%d "
            "staleness_db=%.3f clock_days=%.3f wal_seq=%llu backend=%s quantized=%d",
            z.zone.c_str(), z.state.c_str(), z.slo_degraded ? " degraded-slo" : "",
            static_cast<unsigned long long>(z.queries),
            static_cast<unsigned long long>(z.updates_committed),
            static_cast<unsigned long long>(z.updates_failed), z.update_in_flight ? 1 : 0,
            z.staleness_db, z.clock_days, static_cast<unsigned long long>(z.wal_sequence),
            z.kernel_backend.c_str(), z.quantized_tier ? 1 : 0);
        if (z.slo_ok + z.slo_violated > 0) {
          std::printf(" slo_ok=%llu slo_violated=%llu slo_budget=%.2f",
                      static_cast<unsigned long long>(z.slo_ok),
                      static_cast<unsigned long long>(z.slo_violated), z.slo_budget_remaining);
        }
        if (!z.last_error.empty()) std::printf(" last_error=%s", z.last_error.c_str());
        std::printf("\n");
      }
      return report(res.status, res.message);
    }

    if (command == "localize") {
      if (zone.empty() || !args.has("rss")) return usage();
      LocalizeRequest req{zone, args.get_doubles("rss", {})};
      req.trace_id = static_cast<std::uint64_t>(args.get_long("trace_id", 0));
      req.trace_sampled = args.get_bool("trace", false) || req.trace_id != 0;
      const storage::Frame frame = client.round_trip(req.encode(seq));
      if (maybe_error(frame)) return 1;
      const LocalizeResponse res = LocalizeResponse::decode(frame);
      if (res.status == WireStatus::kOk) {
        std::printf("estimate=(%.3f, %.3f) served=%d degraded=%d confidence=%.3f links=%llu\n",
                    res.x, res.y, res.served ? 1 : 0, res.degraded ? 1 : 0, res.confidence,
                    static_cast<unsigned long long>(res.links_used));
      }
      return report(res.status, res.message);
    }

    if (command == "probe") {
      if (zone.empty()) return usage();
      const long count = args.get_long("count", 1);
      if (count < 1) return usage();
      double total_error = 0.0;
      for (long i = 0; i < count; ++i) {
        const storage::Frame frame = client.round_trip(ProbeRequest{zone}.encode(seq++));
        if (maybe_error(frame)) return 1;
        const ProbeResponse res = ProbeResponse::decode(frame);
        if (res.status != WireStatus::kOk) return report(res.status, res.message);
        total_error += res.error_m;
        std::printf("probe truth=(%.3f, %.3f) estimate=(%.3f, %.3f) error=%.3fm degraded=%d\n",
                    res.truth_x, res.truth_y, res.estimate_x, res.estimate_y, res.error_m,
                    res.degraded ? 1 : 0);
      }
      if (count > 1) std::printf("mean_error=%.3fm over %ld probes\n", total_error / count, count);
      return 0;
    }

    if (command == "observe") {
      if (zone.empty() || !args.has("t") || !args.has("ambient")) return usage();
      AmbientRequest req{zone, args.get_doubles("ambient", {}), args.get_double("t", 0.0)};
      const storage::Frame frame = client.round_trip(req.encode(seq));
      if (maybe_error(frame)) return 1;
      const AmbientResponse res = AmbientResponse::decode(frame);
      if (res.status == WireStatus::kOk) {
        std::printf("accepted=%d sample_accepted=%d triggered=%d staleness_db=%.3f\n",
                    res.accepted ? 1 : 0, res.sample_accepted ? 1 : 0, res.triggered ? 1 : 0,
                    res.staleness_db);
      }
      return report(res.status, res.message);
    }

    if (command == "resurvey") {
      if (zone.empty() || !args.has("t")) return usage();
      ResurveyRequest req{zone, args.get_double("t", 0.0)};
      const storage::Frame frame = client.round_trip(req.encode(seq));
      if (maybe_error(frame)) return 1;
      const ResurveyResponse res = ResurveyResponse::decode(frame);
      std::printf("accepted=%d%s%s\n", res.accepted ? 1 : 0,
                  res.message.empty() ? "" : " message=", res.message.c_str());
      return report(res.status, res.message) != 0 ? 1 : (res.accepted ? 0 : 1);
    }

    if (command == "top") {
      // Two snapshots, one connection: registry metrics (latency
      // histogram, degraded/shed counters) + lifecycle status
      // (staleness, recalibration, SLO budget).
      const storage::Frame mframe = client.round_trip(MetricsRequest{zone}.encode(seq++));
      if (maybe_error(mframe)) return 1;
      const MetricsResponse metrics = MetricsResponse::decode(mframe);
      if (metrics.status != WireStatus::kOk) return report(metrics.status, metrics.message);
      const storage::Frame sframe = client.round_trip(StatusRequest{zone}.encode(seq++));
      if (maybe_error(sframe)) return 1;
      const StatusResponse status = StatusResponse::decode(sframe);
      if (status.status != WireStatus::kOk) return report(status.status, status.message);

      std::printf("%-12s %-14s %8s %8s %8s %8s %8s %8s %6s %8s %9s %6s  %s\n", "ZONE", "STATE",
                  "QPS", "P50ms", "P95ms", "P99ms", "SERVED", "DEGRADED", "SHED", "KEYS/Q",
                  "STALE_dB", "RECAL", "SLO");
      for (const ZoneMetrics& m : metrics.zones) {
        const ZoneStatus* zs = nullptr;
        for (const ZoneStatus& candidate : status.zones) {
          if (candidate.zone == m.zone) zs = &candidate;
        }
        const WireHistogram* lat = find_histogram(m, "zone.request_seconds");
        const double uptime_s = static_cast<double>(m.uptime_ns) * 1e-9;
        const std::uint64_t served = lat != nullptr ? lat->count : 0;
        const double qps = uptime_s > 0.0 ? static_cast<double>(served) / uptime_s : 0.0;
        char slo[96];
        if (zs != nullptr && zs->slo_ok + zs->slo_violated > 0) {
          std::snprintf(slo, sizeof slo, "%s ok=%llu viol=%llu budget=%.2f",
                        zs->slo_degraded ? "degraded-slo" : "ok",
                        static_cast<unsigned long long>(zs->slo_ok),
                        static_cast<unsigned long long>(zs->slo_violated),
                        zs->slo_budget_remaining);
        } else {
          std::snprintf(slo, sizeof slo, "-");
        }
        const std::uint64_t two_tier = find_counter(m, "loc.knn.prepass_queries");
        const double keys_per_query =
            two_tier > 0 ? static_cast<double>(find_counter(m, "loc.knn.bound_cells")) /
                               static_cast<double>(two_tier)
                         : 0.0;
        std::printf("%-12s %-14s %8.1f %8.3f %8.3f %8.3f %8llu %8llu %6llu %8.0f %9.3f %6s  %s\n",
                    m.zone.c_str(), m.state.c_str(), qps,
                    lat != nullptr ? lat->p50 * 1e3 : 0.0, lat != nullptr ? lat->p95 * 1e3 : 0.0,
                    lat != nullptr ? lat->p99 * 1e3 : 0.0,
                    static_cast<unsigned long long>(served),
                    static_cast<unsigned long long>(find_counter(m, "system.degraded_queries")),
                    static_cast<unsigned long long>(find_counter(m, "zone.shed")),
                    keys_per_query, zs != nullptr ? zs->staleness_db : 0.0,
                    (zs != nullptr && zs->update_in_flight) ? "yes" : "no", slo);
      }
      return 0;
    }

    if (command == "trace") {
      if (zone.empty()) return usage();
      TraceRequest req{zone, static_cast<std::uint64_t>(args.get_long("max", 64)),
                       args.get_bool("slow", false)};
      const storage::Frame frame = client.round_trip(req.encode(seq));
      if (maybe_error(frame)) return 1;
      const TraceResponse res = TraceResponse::decode(frame);
      if (res.status == WireStatus::kOk) {
        std::fputs(res.jsonl.c_str(), stdout);
        std::fprintf(stderr, "%llu recorded, %llu dropped\n",
                     static_cast<unsigned long long>(res.total_recorded),
                     static_cast<unsigned long long>(res.dropped));
      }
      return report(res.status, res.message);
    }

    if (command == "drain" || command == "reload" || command == "shutdown") {
      AdminRequest req;
      req.zone = zone;
      req.op = command == "drain"    ? AdminOp::kDrain
               : command == "reload" ? AdminOp::kReload
                                     : AdminOp::kShutdown;
      const storage::Frame frame = client.round_trip(req.encode(seq));
      if (maybe_error(frame)) return 1;
      const AdminResponse res = AdminResponse::decode(frame);
      if (!res.message.empty()) std::printf("%s\n", res.message.c_str());
      return report(res.status, res.message);
    }

    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "taflocctl: %s\n", e.what());
    return 2;
  }
}
