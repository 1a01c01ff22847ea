#include "bench_util.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tafloc/telemetry/metrics.h"
#include "tafloc/util/stats.h"
#include "tafloc/util/table.h"

namespace tafloc::bench {

CalibratedRoom::CalibratedRoom(std::uint64_t seed, const TafLocConfig& config)
    : scenario(Scenario::paper_room(seed)),
      x0(),
      ambient0(),
      system(scenario.deployment(), config),
      rng(seed * 7919 + 13) {
  x0 = scenario.collector().survey_all(0.0, rng);
  ambient0 = scenario.collector().ambient_scan(0.0, rng);
  system.calibrate(x0, ambient0, 0.0);
}

ReconstructionOutcome reconstruct_at(CalibratedRoom& room, double t_days,
                                     bool validate_measured) {
  ReconstructionOutcome out;
  out.t_days = t_days;
  const auto report = room.system.update_with_collector(room.scenario.collector(), t_days,
                                                        room.rng);
  out.references = report.references_surveyed;

  const Matrix& reconstructed = room.system.database().fingerprints();
  const Matrix truth = room.scenario.collector().ground_truth(t_days);
  out.errors_vs_truth = entrywise_abs_errors(reconstructed, truth);

  if (validate_measured) {
    // The paper's protocol: compare the reconstruction against freshly
    // measured fingerprints (which carry placement repeatability and
    // sampling noise of their own).
    const Matrix validation = room.scenario.collector().survey_all(t_days, room.rng);
    out.errors_vs_measured = entrywise_abs_errors(reconstructed, validation);
  }
  return out;
}

ReconInstance::ReconInstance(std::uint64_t seed, double t, std::size_t n_refs,
                             ReferencePolicy policy)
    : scenario(Scenario::paper_room(seed)), t_days(t) {
  Rng rng(seed * 104729 + 7);
  x0 = scenario.collector().survey_all(0.0, rng);
  ambient0 = scenario.collector().ambient_scan(0.0, rng);
  mask = DistortionDetector().detect_from_data(x0, ambient0);
  Rng policy_rng(seed + 1);
  refs = select_reference_locations(x0, n_refs, policy, &policy_rng);

  const LrrModel lrr(x0, refs);
  const Matrix fresh = scenario.collector().survey_grids(refs, t, rng);
  Vector fresh_ambient = scenario.collector().ambient_scan(t, rng);

  problem.mask_undistorted = mask.undistorted;
  problem.known = known_entry_matrix(mask, fresh_ambient);
  problem.prediction = lrr.predict(fresh);
  problem.reference_columns = fresh;
  problem.reference_indices = refs;
  problem.continuity = continuity_pairs(scenario.deployment(), &mask.undistorted);
  problem.similarity = similarity_pairs(scenario.deployment(), &mask.undistorted);

  truth = scenario.collector().ground_truth(t);
}

void print_cdf_summary(const std::string& label, const std::vector<double>& samples,
                       double curve_hi, const std::string& unit) {
  const EmpiricalCdf cdf(samples);
  AsciiTable t;
  t.set_header({"series", "mean", "median", "p80", "p95", "max", "unit"});
  t.add_row({label, AsciiTable::num(cdf.mean()), AsciiTable::num(cdf.median()),
             AsciiTable::num(cdf.quantile(0.8)), AsciiTable::num(cdf.quantile(0.95)),
             AsciiTable::num(cdf.max()), unit});
  std::fputs(t.render().c_str(), stdout);

  std::printf("  CDF(%s): ", label.c_str());
  for (const auto& [x, f] : cdf.curve(0.0, curve_hi, 13)) {
    std::printf("%.1f:%.2f ", x, f);
  }
  std::printf("\n");
}

std::string csv_path(const std::string& stem) { return stem + ".csv"; }

bool smoke_mode() {
  static const bool on = [] {
    const char* v = std::getenv("TAFLOC_BENCH_SMOKE");
    return v != nullptr && std::strcmp(v, "0") != 0;
  }();
  return on;
}

bool telemetry_mode() {
  static const bool on = [] {
    const char* v = std::getenv("TAFLOC_BENCH_TELEMETRY");
    return v != nullptr && std::strcmp(v, "0") != 0;
  }();
  return on;
}

std::string telemetry_json_array(const MetricRegistry& registry, int indent) {
  // snapshot_json() is JSONL -- every line a standalone object -- so the
  // array is just the lines joined with commas.
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string snapshot = registry.snapshot_json();
  std::string out = "[";
  bool first = true;
  std::size_t begin = 0;
  while (begin < snapshot.size()) {
    std::size_t end = snapshot.find('\n', begin);
    if (end == std::string::npos) end = snapshot.size();
    if (end > begin) {
      out += first ? "\n" : ",\n";
      out += pad;
      out += "  ";
      out.append(snapshot, begin, end - begin);
      first = false;
    }
    begin = end + 1;
  }
  out += first ? "]" : "\n" + pad + "]";
  return out;
}

int finish_benchmarks(int argc, char** argv) {
  if (smoke_mode()) {
    std::printf("[smoke] TAFLOC_BENCH_SMOKE set: tables ran at tiny sizes, "
                "micro timings skipped\n");
    return 0;
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace tafloc::bench
