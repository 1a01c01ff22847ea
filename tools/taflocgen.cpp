// taflocgen -- closed-loop ingest load generator for taflocd.
//
//   taflocgen --socket=PATH --zone=NAME --seed=N [options]
//
//     --nodes=N            sensor nodes sharing the links      (default 4)
//     --rounds=N           scan rounds per QPS step            (default 40)
//     --qps=a,b,c          batch-send rates to step through    (default 25,50,100)
//     --motion-fraction=F  fraction of rounds with a target    (default 0.3)
//     --dup-fraction=F     per-batch duplicate probability     (default 0.1)
//     --shuffle=BOOL       shuffle batch delivery order        (default true)
//     --t-start=DAYS       timestamp of the first round        (default 0.0)
//     --t-step=DAYS        timestamp increment per round       (default 2e-4)
//     --out=PATH           JSON report path                    (default BENCH_serving.json)
//
// Mirrors the zone's world by seed: the generator builds the same
// Scenario the daemon loaded, draws ambient or target scans from its
// collector, splits each round across a NodeNetwork, perturbs transport
// (duplicates + reordering), and replays the batches over the wire at a
// paced rate.  Each QPS step records client-side latency quantiles and
// the daemon's own ingest accounting (gated vs admitted, dedup drops,
// served/degraded/shed) into one JSON report for BENCH_serving.json.
//
// Timestamps stay small (fractions of a day) so the movement gate
// operates against a fresh scheduler baseline -- the regime the
// daemon's own recalibration loop maintains in production.
//
// Exit status: 0 on success, 1 when the daemon rejected traffic with a
// non-ok status other than shedding, 2 on usage/connection errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tafloc/daemon/client.h"
#include "tafloc/daemon/wire.h"
#include "tafloc/sim/node_net.h"
#include "tafloc/sim/scenario.h"
#include "tafloc/util/cli.h"

namespace {

using namespace tafloc;
using namespace tafloc::daemon;
using Clock = std::chrono::steady_clock;

int usage() {
  std::fprintf(stderr,
               "usage: taflocgen --socket=PATH --zone=NAME --seed=N\n"
               "  [--nodes=4] [--rounds=40] [--qps=25,50,100]\n"
               "  [--motion-fraction=0.3] [--dup-fraction=0.1] [--shuffle=true]\n"
               "  [--t-start=0.0] [--t-step=2e-4] [--out=BENCH_serving.json]\n");
  return 2;
}

/// Per-QPS-step aggregates, client side + daemon-reported.
struct StepStats {
  double target_qps = 0.0;
  double achieved_qps = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t batches = 0;
  std::uint64_t readings = 0;
  std::uint64_t dups_dropped = 0;
  std::uint64_t stale_dropped = 0;
  std::uint64_t bad_readings = 0;
  std::uint64_t rounds_completed = 0;
  std::uint64_t gated_ambient = 0;
  std::uint64_t admitted_queries = 0;
  std::uint64_t served = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void write_json(const std::string& path, const std::string& zone, std::uint64_t seed,
                std::size_t nodes, double motion_fraction, double dup_fraction,
                const std::vector<StepStats>& steps) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "{\n  \"tool\": \"taflocgen\",\n  \"zone\": \"%s\",\n", zone.c_str());
  std::fprintf(out, "  \"seed\": %llu,\n  \"nodes\": %zu,\n", (unsigned long long)seed, nodes);
  std::fprintf(out, "  \"motion_fraction\": %.3f,\n  \"dup_fraction\": %.3f,\n", motion_fraction,
               dup_fraction);
  std::fprintf(out, "  \"steps\": [\n");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepStats& s = steps[i];
    std::fprintf(out,
                 "    {\"target_qps\": %.1f, \"achieved_qps\": %.1f, \"rounds\": %llu, "
                 "\"batches\": %llu, \"readings\": %llu,\n"
                 "     \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f,\n"
                 "     \"served\": %llu, \"degraded\": %llu, \"shed\": %llu, \"errors\": %llu,\n"
                 "     \"gated_ambient\": %llu, \"admitted_queries\": %llu,\n"
                 "     \"dups_dropped\": %llu, \"stale_dropped\": %llu, \"bad_readings\": %llu, "
                 "\"rounds_completed\": %llu}%s\n",
                 s.target_qps, s.achieved_qps, (unsigned long long)s.rounds,
                 (unsigned long long)s.batches, (unsigned long long)s.readings, s.p50_ms, s.p95_ms,
                 s.p99_ms, (unsigned long long)s.served, (unsigned long long)s.degraded,
                 (unsigned long long)s.shed, (unsigned long long)s.errors,
                 (unsigned long long)s.gated_ambient, (unsigned long long)s.admitted_queries,
                 (unsigned long long)s.dups_dropped, (unsigned long long)s.stale_dropped,
                 (unsigned long long)s.bad_readings, (unsigned long long)s.rounds_completed,
                 i + 1 < steps.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::string socket_path = args.get_string("socket", "");
  const std::string zone = args.get_string("zone", "");
  if (socket_path.empty() || zone.empty() || !args.has("seed")) return usage();

  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_long("seed", 0));
  const long nodes = args.get_long("nodes", 4);
  const long rounds_per_step = args.get_long("rounds", 40);
  const double motion_fraction = args.get_double("motion-fraction", 0.3);
  const double dup_fraction = args.get_double("dup-fraction", 0.1);
  const bool shuffle = args.get_bool("shuffle", true);
  const double t_start = args.get_double("t-start", 0.0);
  const double t_step = args.get_double("t-step", 2e-4);
  const std::string out_path = args.get_string("out", "BENCH_serving.json");
  if (nodes < 1 || rounds_per_step < 1 || motion_fraction < 0.0 || motion_fraction > 1.0) {
    return usage();
  }

  try {
    const std::vector<double> qps_steps = args.get_doubles("qps", {25.0, 50.0, 100.0});
    for (const double qps : qps_steps) {
      if (!(qps > 0.0)) throw std::runtime_error("qps values must be positive");
    }

    // Mirror the daemon's world: same scenario seed means the generator
    // draws scans from the same deployment the zone localizes against.
    Scenario scenario = Scenario::paper_room(seed);
    const std::size_t num_links = scenario.deployment().num_links();
    const std::vector<Point2> centers = scenario.deployment().grid().all_centers();
    Rng rng(seed ^ 0x67656eULL);  // "gen": distinct stream from the daemon's.
    NodeNetwork net(num_links, static_cast<std::size_t>(nodes));

    Client client(socket_path);
    std::uint64_t seq = 1;
    std::vector<StepStats> steps;
    long round_index = 0;
    bool hard_error = false;

    for (const double qps : qps_steps) {
      StepStats stats;
      stats.target_qps = qps;
      std::vector<double> latencies_ms;
      const auto interval =
          std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(1.0 / qps));
      const Clock::time_point step_start = Clock::now();
      Clock::time_point next_send = step_start;
      std::uint64_t sent = 0;

      for (long r = 0; r < rounds_per_step; ++r, ++round_index) {
        const double t_days = t_start + t_step * static_cast<double>(round_index);
        const bool moving = rng.bernoulli(motion_fraction);
        const Vector y = moving
                             ? scenario.collector().observe(centers[rng.index(centers.size())],
                                                            t_days, rng)
                             : scenario.collector().observe_ambient(t_days, rng);
        std::vector<ingest::NodeBatch> batches = net.emit_round(y, t_days);
        NodeNetwork::perturb(batches, dup_fraction, shuffle, rng);
        ++stats.rounds;

        for (const ingest::NodeBatch& batch : batches) {
          std::this_thread::sleep_until(next_send);
          next_send += interval;
          const BatchIngestRequest req{zone, batch};
          const Clock::time_point before = Clock::now();
          const storage::Frame frame = client.round_trip(req.encode(seq++));
          const Clock::time_point after = Clock::now();
          latencies_ms.push_back(std::chrono::duration<double, std::milli>(after - before).count());
          ++sent;
          ++stats.batches;

          if (frame.type == static_cast<std::uint32_t>(PacketType::kError)) {
            const ErrorResponse err = ErrorResponse::decode(frame);
            std::fprintf(stderr, "taflocgen: error (%s): %s\n", wire_status_name(err.status),
                         err.message.c_str());
            ++stats.errors;
            hard_error = true;
            continue;
          }
          const BatchIngestResponse res = BatchIngestResponse::decode(frame);
          if (res.status == WireStatus::kNotServing) {
            ++stats.shed;
            continue;
          }
          if (res.status != WireStatus::kOk) {
            std::fprintf(stderr, "taflocgen: ingest rejected (%s): %s\n",
                         wire_status_name(res.status), res.message.c_str());
            ++stats.errors;
            hard_error = true;
            continue;
          }
          stats.readings += res.readings;
          stats.dups_dropped += res.dups_dropped;
          stats.stale_dropped += res.stale_dropped;
          stats.bad_readings += res.bad_readings;
          stats.rounds_completed += res.rounds_completed;
          stats.gated_ambient += res.gated_ambient;
          stats.admitted_queries += res.admitted_queries;
          for (const IngestQuery& q : res.queries) {
            if (q.served) ++stats.served;
            if (q.degraded) ++stats.degraded;
          }
        }
      }

      const double elapsed_s =
          std::chrono::duration<double>(Clock::now() - step_start).count();
      stats.achieved_qps = elapsed_s > 0.0 ? static_cast<double>(sent) / elapsed_s : 0.0;
      std::sort(latencies_ms.begin(), latencies_ms.end());
      stats.p50_ms = percentile(latencies_ms, 0.50);
      stats.p95_ms = percentile(latencies_ms, 0.95);
      stats.p99_ms = percentile(latencies_ms, 0.99);
      steps.push_back(stats);

      std::printf(
          "qps=%.0f achieved=%.1f batches=%llu p50=%.3fms p95=%.3fms p99=%.3fms "
          "gated=%llu admitted=%llu served=%llu degraded=%llu shed=%llu dups=%llu stale=%llu\n",
          stats.target_qps, stats.achieved_qps, (unsigned long long)stats.batches, stats.p50_ms,
          stats.p95_ms, stats.p99_ms, (unsigned long long)stats.gated_ambient,
          (unsigned long long)stats.admitted_queries, (unsigned long long)stats.served,
          (unsigned long long)stats.degraded, (unsigned long long)stats.shed,
          (unsigned long long)stats.dups_dropped, (unsigned long long)stats.stale_dropped);
    }

    write_json(out_path, zone, seed, static_cast<std::size_t>(nodes), motion_fraction,
               dup_fraction, steps);
    std::printf("wrote %s (%zu steps)\n", out_path.c_str(), steps.size());
    return hard_error ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "taflocgen: %s\n", e.what());
    return 2;
  }
}
