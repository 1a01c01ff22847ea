// Large-grid scaling of the serving hot paths: the KNN fingerprint
// scan and the LoLi-IR reconstruction solve, at 96 / 2 500 / 20 000
// grid cells x 128 / 512 links -- the paper room up to warehouse-scale
// deployments -- plus recal_under_load's 1 600 cells x 40 links.
//
// Per configuration, written to BENCH_scan.json (the CI artefact)
// before the google-benchmark micro timings run:
//
//   * quantized vs float: per-query latency of the exact float column
//     scan against the int8 pre-pass + exact re-rank (matcher.h).  The
//     two serve bit-identical answers, so the speedup column is the
//     whole story.  Measured at one thread -- the acceptance bar is the
//     single-thread win of the representation, not pool scaling.
//   * backend vs backend: the same quantized scan, and one full int8
//     pre-pass over every cell (the kernel alone), under every kernel
//     table this CPU runs (linalg/backend.h), and the same LoLi-IR solve
//     under the default table and the forced-scalar one, quantifying
//     what each SIMD table buys.
//   * the projection bound (quantized.h): whether the tier built one
//     (rows of 256 padded links and up), its build time, the scan time
//     with it, and the median count of cells whose exact int8 key a
//     query computed -- every cell without the projection.
//
// Honors TAFLOC_BENCH_SMOKE (tiny sizes, no micro timings) so CI's
// bench-smoke job exercises every code path in seconds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "tafloc/linalg/backend.h"
#include "tafloc/linalg/ops.h"

namespace {

using namespace tafloc;

/// Repeat `op` for ~`budget` and return seconds per operation.
template <typename Op>
double seconds_per_op(Op&& op, std::chrono::milliseconds budget) {
  using clock = std::chrono::steady_clock;
  op();  // warm caches and the thread pool
  const auto t0 = clock::now();
  std::size_t reps = 0;
  while (clock::now() - t0 < budget) {
    op();
    ++reps;
  }
  return std::chrono::duration<double>(clock::now() - t0).count() / static_cast<double>(reps);
}

/// Synthetic deployment-scale fixture: per-link RSS offsets in
/// [-70, -40] dBm plus structured low-rank variation plus noise -- the
/// shape (not the physics) of a surveyed fingerprint matrix, cheap
/// enough to build at 20 000 cells.
struct ScaleFixture {
  Deployment deployment;
  Matrix fingerprints;  ///< links x cells.
  Vector ambient;
  std::vector<Vector> queries;

  ScaleFixture(std::size_t grid_w, std::size_t grid_h, std::size_t links, std::uint64_t seed)
      : deployment(Deployment::perimeter(static_cast<double>(grid_w),
                                         static_cast<double>(grid_h), 1.0, links)) {
    const std::size_t cells = grid_w * grid_h;
    Rng rng(seed);
    constexpr std::size_t kRank = 6;
    const Matrix u = random_gaussian(links, kRank, rng);
    const Matrix v = random_gaussian(kRank, cells, rng);
    fingerprints = u * v;  // structured variation, O(1) dB per entry
    ambient = Vector(links);
    for (std::size_t i = 0; i < links; ++i) {
      const double offset = -70.0 + 30.0 * rng.uniform01();
      ambient[i] = offset;
      for (std::size_t j = 0; j < cells; ++j)
        fingerprints(i, j) = offset + 2.0 * fingerprints(i, j) + rng.normal();
    }
    const std::size_t n_queries = 16;
    queries.reserve(n_queries);
    for (std::size_t q = 0; q < n_queries; ++q) {
      Vector query = fingerprints.col((q * 6151) % cells);
      for (double& v_i : query) v_i += 2.0 * rng.normal();  // observation noise
      queries.push_back(std::move(query));
    }
  }
};

struct ScanTimings {
  double float_ns = 0.0;
  double quantized_ns = 0.0;  ///< on the default backend
  std::vector<std::pair<KernelBackend, double>> backend_ns;  ///< every supported table
  std::vector<std::pair<KernelBackend, double>> prepass_ns;  ///< one full pre-pass, every table
  bool projected = false;
  double projection_build_ms = 0.0;
  double survivors_p50 = 0.0;  ///< exact int8 keys per query, default backend
};

ScanTimings time_scans(const ScaleFixture& f, std::chrono::milliseconds budget) {
  const std::size_t k = 4;
  KnnMatcher float_matcher(f.fingerprints.view(), f.deployment.grid(), k);
  KnnMatcher quant_matcher(f.fingerprints.view(), f.deployment.grid(), k);
  QuantizedTier tier;
  tier.rebuild(f.fingerprints.view());
  quant_matcher.attach_quantized_tier(&tier);

  const auto localize_all = [&](const KnnMatcher& m) {
    for (const Vector& q : f.queries) benchmark::DoNotOptimize(m.localize(q));
  };
  const double per_query = 1.0 / static_cast<double>(f.queries.size());

  ScanTimings t;
  t.projected = tier.projected();
  t.projection_build_ms = 1e3 * seconds_per_op([&] { tier.rebuild_projection(); }, budget);
  t.float_ns = 1e9 * per_query * seconds_per_op([&] { localize_all(float_matcher); }, budget);
  const KernelBackend active = active_kernel_backend();
  for (const KernelBackend backend : supported_kernel_backends()) {
    set_kernel_backend(backend);
    const double ns =
        1e9 * per_query * seconds_per_op([&] { localize_all(quant_matcher); }, budget);
    t.backend_ns.emplace_back(backend, ns);
    if (backend == active) t.quantized_ns = ns;
  }
  set_kernel_backend(active);

  // The kernel alone: one unmasked pre-pass over every cell.
  std::vector<std::int8_t> levels;
  std::vector<double> residual;
  tier.quantize_observation(f.queries.front(), {}, levels, residual);
  Int8Prepass pass{levels.data(), nullptr, tier.cell_data(0), tier.padded_links(),
                   tier.key_index_bits(), tier.cell_terms().data()};
  for (const std::int8_t v : levels) pass.query_norm_sq += v * v;
  std::vector<std::uint64_t> keys(tier.num_grids());
  for (const KernelBackend backend : supported_kernel_backends()) {
    const KernelOps& ops = kernel_ops(backend);
    t.prepass_ns.emplace_back(backend, 1e9 * seconds_per_op([&] {
      ops.int8_prepass(pass, 0, keys.size(), keys.data());
      benchmark::DoNotOptimize(keys.data());
      benchmark::ClobberMemory();
    }, budget));
  }

  MetricRegistry registry;
  quant_matcher.attach_telemetry(&registry);
  const Counter& cells = registry.counter("loc.knn.bound_cells");
  std::vector<double> survivors;
  for (const Vector& q : f.queries) {
    const std::uint64_t before = cells.value();
    benchmark::DoNotOptimize(quant_matcher.localize(q));
    survivors.push_back(static_cast<double>(cells.value() - before));
  }
  std::nth_element(survivors.begin(), survivors.begin() + survivors.size() / 2, survivors.end());
  t.survivors_p50 = survivors[survivors.size() / 2];
  return t;
}

struct SolveTimings {
  double seconds = 0.0;
  double scalar_seconds = 0.0;
  std::size_t iterations = 0;
};

/// One bounded LoLi-IR solve on the fixture: detected distortion mask,
/// evenly spaced reference columns, oracle prediction (the solver does
/// not care how the prediction was made; skipping the LRR fit keeps
/// the 20 000-cell build affordable).
SolveTimings time_solve(const ScaleFixture& f, std::uint64_t seed) {
  using tafloc::bench::smoke_or;
  const std::size_t cells = f.fingerprints.cols();
  Rng rng(seed);

  const DistortionMask mask = DistortionDetector().detect_from_data(f.fingerprints, f.ambient);
  const std::size_t n_refs = 12;
  std::vector<std::size_t> refs(n_refs);
  for (std::size_t r = 0; r < n_refs; ++r) refs[r] = r * cells / n_refs;

  LoliIrProblem problem;
  problem.mask_undistorted = mask.undistorted;
  problem.known = known_entry_matrix(mask, f.ambient);
  problem.prediction = f.fingerprints;
  for (double& v : problem.prediction.data()) v += 0.5 * rng.normal();
  problem.reference_columns = Matrix(f.fingerprints.rows(), n_refs);
  for (std::size_t r = 0; r < n_refs; ++r)
    for (std::size_t i = 0; i < f.fingerprints.rows(); ++i)
      problem.reference_columns(i, r) = f.fingerprints(i, refs[r]);
  problem.reference_indices = refs;
  problem.continuity = continuity_pairs(f.deployment, &mask.undistorted);
  problem.similarity = similarity_pairs(f.deployment, &mask.undistorted);

  LoliIrConfig config;
  config.rank = 4;
  config.max_rank = 4;
  config.max_outer_iterations = smoke_or<std::size_t>(6, 2);
  config.cg.max_iterations = smoke_or<std::size_t>(60, 15);

  SolveTimings t;
  {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const LoliIrResult result = loli_ir_reconstruct(problem, config);
    t.seconds = std::chrono::duration<double>(clock::now() - t0).count();
    t.iterations = result.outer_iterations;
  }
  if (cpu_supports_avx2()) {
    set_kernel_backend(KernelBackend::kScalar);
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    benchmark::DoNotOptimize(loli_ir_reconstruct(problem, config));
    t.scalar_seconds = std::chrono::duration<double>(clock::now() - t0).count();
    set_kernel_backend(KernelBackend::kAuto);
  } else {
    t.scalar_seconds = t.seconds;
  }
  return t;
}

struct ConfigResult {
  std::size_t cells = 0;
  std::size_t links = 0;
  ScanTimings scan;
  SolveTimings solve;
};

void run_json_experiments() {
  using tafloc::bench::smoke_or;
  const auto budget = std::chrono::milliseconds(smoke_or(400, 25));

  // (grid_w, grid_h, links): 96 (the paper room's 12 x 8), 2 500 and
  // 20 000 cells at 128 and 512 links -- both sides of the projection's
  // shape rule -- and recal_under_load's 1 600 x 40.  Smoke mode stops
  // at a few hundred cells, one config projected.
  struct Config {
    std::size_t w, h, links;
  };
  const std::vector<Config> full_configs = {{12, 8, 128},    {12, 8, 512},    {50, 50, 128},
                                            {50, 50, 512},   {160, 125, 128}, {160, 125, 512},
                                            {40, 40, 40}};
  const std::vector<Config> smoke_configs = {{12, 8, 32}, {20, 12, 32}, {20, 12, 256}};
  const std::vector<Config>& configs =
      tafloc::bench::smoke_mode() ? smoke_configs : full_configs;

  // Single-thread timings: the acceptance criterion is the win of the
  // int8 representation and the SIMD kernels, not pool scaling.
  const std::size_t threads_before = global_thread_count();
  set_global_threads(1);

  std::printf("=== scan + solve scaling (single thread; default backend=%s) ===\n",
              kernel_backend_name(active_kernel_backend()));
  std::vector<ConfigResult> results;
  std::uint64_t seed = 1234;
  for (const Config& c : configs) {
    ScaleFixture fixture(c.w, c.h, c.links, ++seed);
    ConfigResult r;
    r.cells = c.w * c.h;
    r.links = c.links;
    r.scan = time_scans(fixture, budget);
    r.solve = time_solve(fixture, seed * 31);
    std::printf("  cells=%6zu links=%4zu  scan: float %10.0f ns  quantized %10.0f ns (%.2fx) ",
                r.cells, r.links, r.scan.float_ns, r.scan.quantized_ns,
                r.scan.float_ns / r.scan.quantized_ns);
    for (const auto& [backend, ns] : r.scan.backend_ns)
      std::printf(" %s %10.0f ns", kernel_backend_name(backend), ns);
    std::printf("   pre-pass:");
    for (const auto& [backend, ns] : r.scan.prepass_ns)
      std::printf(" %s %9.0f ns", kernel_backend_name(backend), ns);
    std::printf("   projection: %s %.2f ms, %.0f keys/query",
                r.scan.projected ? "built" : "none", r.scan.projection_build_ms,
                r.scan.survivors_p50);
    std::printf("   solve: %7.3f s  scalar %7.3f s\n", r.solve.seconds, r.solve.scalar_seconds);
    results.push_back(r);
  }
  set_global_threads(threads_before);

  std::ofstream json("BENCH_scan.json");
  json << "{\n  \"smoke\": " << (tafloc::bench::smoke_mode() ? "true" : "false")
       << ",\n  \"threads\": 1,\n  \"avx2_supported\": "
       << (cpu_supports_avx2() ? "true" : "false") << ",\n  \"default_backend\": \""
       << kernel_backend_name(resolve_kernel_backend()) << "\",\n  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    const auto by_backend = [&](const std::vector<std::pair<KernelBackend, double>>& ns) {
      for (std::size_t b = 0; b < ns.size(); ++b)
        json << (b > 0 ? ", " : "") << "\"" << kernel_backend_name(ns[b].first)
             << "\": " << ns[b].second;
    };
    json << "    {\"cells\": " << r.cells << ", \"links\": " << r.links
         << ",\n     \"scan\": {\"float_ns\": " << r.scan.float_ns
         << ", \"quantized_ns\": " << r.scan.quantized_ns
         << ", \"quantized_speedup\": " << r.scan.float_ns / r.scan.quantized_ns
         << ",\n              \"quantized_ns_by_backend\": {";
    by_backend(r.scan.backend_ns);
    json << "},\n              \"prepass_ns_by_backend\": {";
    by_backend(r.scan.prepass_ns);
    json << "}},\n     \"projection\": {\"built\": " << (r.scan.projected ? "true" : "false")
         << ", \"build_ms\": " << r.scan.projection_build_ms
         << ", \"scan_ns\": " << r.scan.quantized_ns
         << ", \"survivors_p50\": " << r.scan.survivors_p50 << "}"
         << ",\n     \"solve\": {\"seconds\": " << r.solve.seconds
         << ", \"scalar_seconds\": " << r.solve.scalar_seconds
         << ", \"backend_speedup\": " << r.solve.scalar_seconds / r.solve.seconds
         << ", \"outer_iterations\": " << r.solve.iterations << "}}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_scan.json\n\n");
}

// ---- google-benchmark micro timings (skipped in smoke mode) ----

void BM_ScanFloat(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  ScaleFixture f(cells / 8, 8, 128, 7);
  KnnMatcher matcher(f.fingerprints.view(), f.deployment.grid(), 4);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.localize(f.queries[q++ % f.queries.size()]));
  }
}
BENCHMARK(BM_ScanFloat)->Arg(96)->Arg(2496)->Unit(benchmark::kMicrosecond);

void BM_ScanQuantized(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  ScaleFixture f(cells / 8, 8, 128, 7);
  KnnMatcher matcher(f.fingerprints.view(), f.deployment.grid(), 4);
  QuantizedTier tier;
  tier.rebuild(f.fingerprints.view());
  matcher.attach_quantized_tier(&tier);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.localize(f.queries[q++ % f.queries.size()]));
  }
}
BENCHMARK(BM_ScanQuantized)->Arg(96)->Arg(2496)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  run_json_experiments();
  return tafloc::bench::finish_benchmarks(argc, argv);
}
