// Micro benchmarks of the linear-algebra substrate: the kernels every
// reconstruction and localization path runs on.  Sizes bracket the
// paper room (10 x 96) and the Fig. 4 sweep endpoints.
//
// Before the google-benchmark suite runs, three experiments write
// BENCH_linalg.json (the CI artefact): a thread-scaling sweep of the
// destination-passing gemm at 1/2/4/8 threads, copy-vs-view
// comparisons of the strided-view kernels (column scan and gemm on a
// column range) that track the zero-copy win of the view layer, and a
// KNN per-query latency comparison with telemetry absent / disabled /
// enabled that keeps the "disabled telemetry is free" claim honest.
// The same KNN loop is re-run under request tracing -- scope + stage
// per query -- with tracing off, sampled at 1%, and sampled at 100%,
// so the artefact records the tracing tax at both ends of the sampling
// dial (the acceptance bar is < 2% with tracing off).  With
// TAFLOC_BENCH_TELEMETRY set, the enabled run's registry snapshot is
// embedded in the JSON record.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench_util.h"
#include "tafloc/exec/exec_config.h"
#include "tafloc/exec/workspace.h"
#include "tafloc/telemetry/metrics.h"
#include "tafloc/telemetry/trace.h"
#include "tafloc/linalg/cg.h"
#include "tafloc/linalg/cholesky.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/linalg/qr.h"
#include "tafloc/linalg/sparse.h"
#include "tafloc/linalg/svd.h"
#include "tafloc/linalg/vector_ops.h"

namespace {

using namespace tafloc;

Matrix fixture_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed = 9) {
  Rng rng(seed);
  return random_gaussian(rows, cols, rng);
}

void BM_MatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = fixture_matrix(n, n, 1);
  const Matrix b = fixture_matrix(n, n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MatrixMultiply)->Arg(16)->Arg(64)->Arg(128)->Complexity(benchmark::oNCubed);

void BM_MultiplyInto(benchmark::State& state) {
  // Destination-passing gemm: same kernel as operator*, zero allocation.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = fixture_matrix(n, n, 1);
  const Matrix b = fixture_matrix(n, n, 2);
  Matrix out(n, n);
  for (auto _ : state) {
    multiply_into(a, b, out);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MultiplyInto)->Arg(64)->Arg(128)->Arg(256)->Complexity(benchmark::oNCubed);

void BM_MultiplyIntoThreads(benchmark::State& state) {
  // 512 x 512 gemm at an explicit pool size; the acceptance target is
  // >= 2x ops/sec from 1 -> 4/8 threads (also captured in the JSON).
  const std::size_t before = global_thread_count();
  set_global_threads(static_cast<std::size_t>(state.range(0)));
  const Matrix a = fixture_matrix(512, 512, 1);
  const Matrix b = fixture_matrix(512, 512, 2);
  Matrix out(512, 512);
  for (auto _ : state) {
    multiply_into(a, b, out);
    benchmark::DoNotOptimize(out.data().data());
  }
  set_global_threads(before);
}
BENCHMARK(BM_MultiplyIntoThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_GramProductInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = fixture_matrix(n, n, 3);
  Matrix out(n, n);
  for (auto _ : state) {
    gram_product_into(a, a, out);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_GramProductInto)->Arg(64)->Arg(256);

void BM_TransposedInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = fixture_matrix(n, n, 4);
  Matrix out(n, n);
  for (auto _ : state) {
    transposed_into(a, out);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_TransposedInto)->Arg(128)->Arg(512);

void BM_AddScaledInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix x = fixture_matrix(n, n, 5);
  Matrix y(n, n);
  for (auto _ : state) {
    add_scaled_into(x, 0.5, y);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_AddScaledInto)->Arg(128)->Arg(512);

void BM_WorkspaceLeaseReuse(benchmark::State& state) {
  // Steady-state lease cost: after warm-up this is pointer bookkeeping
  // plus the zero-fill, never malloc.
  Workspace ws;
  for (auto _ : state) {
    auto a = ws.matrix(96, 12);
    auto b = ws.matrix(96, 12);
    benchmark::DoNotOptimize(&*a);
    benchmark::DoNotOptimize(&*b);
  }
}
BENCHMARK(BM_WorkspaceLeaseReuse);

void BM_QrDecompose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = fixture_matrix(n, n / 2);
  for (auto _ : state) benchmark::DoNotOptimize(qr_decompose(a));
}
BENCHMARK(BM_QrDecompose)->Arg(32)->Arg(96);

void BM_QrPivoted(benchmark::State& state) {
  // The reference-selection workload: wide fingerprint-shaped matrices.
  const auto cols = static_cast<std::size_t>(state.range(0));
  const Matrix a = fixture_matrix(10, cols);
  for (auto _ : state) benchmark::DoNotOptimize(qr_decompose_pivoted(a));
}
BENCHMARK(BM_QrPivoted)->Arg(96)->Arg(400)->Arg(1600);

void BM_SvdDecompose(benchmark::State& state) {
  const auto cols = static_cast<std::size_t>(state.range(0));
  const Matrix a = fixture_matrix(10, cols);
  for (auto _ : state) benchmark::DoNotOptimize(svd_decompose(a));
}
BENCHMARK(BM_SvdDecompose)->Arg(96)->Arg(400)->Arg(1600)->Unit(benchmark::kMicrosecond);

void BM_CholeskySolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Matrix g = random_gaussian(n + 4, n, rng);
  Matrix a = gram_product(g, g);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  Vector b(n);
  for (double& v : b) v = rng.normal();
  for (auto _ : state) benchmark::DoNotOptimize(cholesky_solve(cholesky_factor(a), b));
}
BENCHMARK(BM_CholeskySolve)->Arg(96)->Arg(400);

void BM_ConjugateGradient(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const Matrix g = random_gaussian(n + 8, n, rng);
  Matrix a = gram_product(g, g);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  Vector b(n);
  for (double& v : b) v = rng.normal();
  const LinearOperatorInto apply = [&](std::span<const double> v, std::span<double> y) {
    const Vector av = multiply(a, v);
    std::copy(av.begin(), av.end(), y.begin());
  };
  Vector x(n);
  CgScratch scratch;
  for (auto _ : state) {
    std::fill(x.begin(), x.end(), 0.0);
    benchmark::DoNotOptimize(conjugate_gradient_in_place(apply, b, x, scratch));
  }
}
BENCHMARK(BM_ConjugateGradient)->Arg(96)->Arg(400)->Unit(benchmark::kMicrosecond);

void BM_SparseMatvec(benchmark::State& state) {
  // RTI weight-model shape at the Fig. 4 endpoint: 60 x 3600, ~3% dense.
  const auto cols = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < 60; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      if (rng.bernoulli(0.03)) triplets.push_back({r, c, rng.normal()});
  const SparseMatrix w(60, cols, std::move(triplets));
  Vector x(cols);
  for (double& v : x) v = rng.normal();
  for (auto _ : state) benchmark::DoNotOptimize(w.multiply(x));
}
BENCHMARK(BM_SparseMatvec)->Arg(900)->Arg(3600);

void BM_SingularValueShrink(benchmark::State& state) {
  const Matrix a = fixture_matrix(10, 96, 8);
  Matrix out;
  for (auto _ : state) {
    singular_value_shrink_into(a, 1.0, out);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SingularValueShrink)->Unit(benchmark::kMicrosecond);

void BM_ColumnScanCopy(benchmark::State& state) {
  // Sum every column through Matrix::col (allocates + copies the
  // column) -- the pre-view idiom of the matcher scan loops.
  const Matrix m = fixture_matrix(96, 400, 10);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const Vector c = m.col(j);
      for (double v : c) acc += v;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ColumnScanCopy);

void BM_ColumnScanView(benchmark::State& state) {
  // Same scan through col_view: strided reads, zero allocation.
  const Matrix m = fixture_matrix(96, 400, 10);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const ConstVectorView c = m.col_view(j);
      for (std::size_t i = 0; i < c.size(); ++i) acc += c[i];
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ColumnScanView);

void BM_GemmColumnRangeCopy(benchmark::State& state) {
  const Matrix a = fixture_matrix(128, 256, 11);
  const Matrix b = fixture_matrix(128, 128, 12);
  Matrix out(128, 128);
  for (auto _ : state) {
    const Matrix mid(a.columns_view(64, 128));  // materialize the slice
    multiply_into(mid, b, out);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_GemmColumnRangeCopy);

void BM_GemmColumnRangeView(benchmark::State& state) {
  const Matrix a = fixture_matrix(128, 256, 11);
  const Matrix b = fixture_matrix(128, 128, 12);
  Matrix out(128, 128);
  for (auto _ : state) {
    multiply_into(a.columns_view(64, 128), b.view(), out.view());
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_GemmColumnRangeView);

// ---- BENCH_linalg.json: thread scaling + copy-vs-view ----

/// Repeat `op` for ~`budget` and return operations per second.
template <typename Op>
double ops_per_sec(Op&& op, std::chrono::milliseconds budget) {
  using clock = std::chrono::steady_clock;
  op();  // warm caches (and the pool, for threaded ops)
  const auto t0 = clock::now();
  std::size_t reps = 0;
  while (clock::now() - t0 < budget) {
    op();
    ++reps;
  }
  const double seconds = std::chrono::duration<double>(clock::now() - t0).count();
  return static_cast<double>(reps) / seconds;
}

struct CopyVsView {
  const char* name;
  double copy_ops = 0.0;
  double view_ops = 0.0;
};

void run_json_experiments() {
  using tafloc::bench::smoke_or;
  // Smoke mode shrinks problem sizes and timing budgets so CI's
  // bench-smoke job still produces a (noisy) BENCH_linalg.json fast.
  const std::size_t n = smoke_or<std::size_t>(512, 64);
  const auto budget = std::chrono::milliseconds(smoke_or(500, 20));

  // 1) gemm thread scaling.
  std::printf("=== gemm thread scaling: %zu x %zu multiply_into ===\n", n, n);
  const std::size_t before = global_thread_count();
  const Matrix a = fixture_matrix(n, n, 1);
  const Matrix b = fixture_matrix(n, n, 2);
  Matrix out(n, n);
  const std::size_t counts[] = {1, 2, 4, 8};
  double scaling[4] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    set_global_threads(counts[i]);
    scaling[i] = ops_per_sec([&] { multiply_into(a, b, out); }, budget);
    std::printf("  threads=%zu  %8.2f ops/s  (%.2fx vs 1 thread)\n", counts[i], scaling[i],
                scaling[i] / scaling[0]);
  }
  set_global_threads(before);

  // 2) copy-vs-view on the strided-view kernels.
  std::printf("=== copy vs view: strided column scan, gemm on a column range ===\n");
  const std::size_t rows = smoke_or<std::size_t>(96, 24);
  const std::size_t cols = smoke_or<std::size_t>(400, 40);
  const Matrix fp = fixture_matrix(rows, cols, 10);
  CopyVsView cases[2] = {{"column_scan"}, {"gemm_column_range"}};
  cases[0].copy_ops = ops_per_sec(
      [&] {
        double acc = 0.0;
        for (std::size_t j = 0; j < fp.cols(); ++j) {
          const Vector c = fp.col(j);
          for (double v : c) acc += v;
        }
        benchmark::DoNotOptimize(acc);
      },
      budget);
  cases[0].view_ops = ops_per_sec(
      [&] {
        double acc = 0.0;
        for (std::size_t j = 0; j < fp.cols(); ++j) {
          const ConstVectorView c = fp.col_view(j);
          for (std::size_t i = 0; i < c.size(); ++i) acc += c[i];
        }
        benchmark::DoNotOptimize(acc);
      },
      budget);
  const std::size_t g = smoke_or<std::size_t>(128, 24);
  const Matrix ga = fixture_matrix(g, 2 * g, 11);
  const Matrix gb = fixture_matrix(g, g, 12);
  Matrix gout(g, g);
  cases[1].copy_ops = ops_per_sec(
      [&] {
        const Matrix mid(ga.columns_view(g / 2, g));
        multiply_into(mid, gb, gout);
      },
      budget);
  cases[1].view_ops =
      ops_per_sec([&] { multiply_into(ga.columns_view(g / 2, g), gb.view(), gout.view()); },
                  budget);
  for (const CopyVsView& c : cases) {
    std::printf("  %-18s copy %10.2f ops/s   view %10.2f ops/s   (view/copy %.2fx)\n",
                c.name, c.copy_ops, c.view_ops, c.view_ops / c.copy_ops);
  }

  // 3) KNN per-query latency with telemetry absent / disabled / enabled.
  //    The acceptance bar is disabled-vs-none within noise (< 5%): a
  //    detached matcher and one attached to a disabled registry run the
  //    same null-pointer branch per query.
  std::printf("=== knn localize: telemetry absent / disabled / enabled ===\n");
  const Scenario scenario = Scenario::paper_room(42);
  Rng rng(99);
  const Matrix fingerprints = scenario.collector().survey_all(0.0, rng);
  const std::size_t n_queries = 16;
  std::vector<Vector> queries;
  queries.reserve(n_queries);
  for (std::size_t q = 0; q < n_queries; ++q) {
    queries.push_back(fingerprints.col((q * 37) % fingerprints.cols()));
  }
  KnnMatcher knn_none(fingerprints, scenario.deployment().grid(), 4);
  KnnMatcher knn_disabled(fingerprints, scenario.deployment().grid(), 4);
  TelemetryConfig disabled_config;
  disabled_config.enabled = false;
  MetricRegistry disabled_registry(disabled_config);
  knn_disabled.attach_telemetry(&disabled_registry);
  KnnMatcher knn_enabled(fingerprints, scenario.deployment().grid(), 4);
  MetricRegistry enabled_registry;
  knn_enabled.attach_telemetry(&enabled_registry);

  const auto localize_all = [&](const KnnMatcher& m) {
    for (const Vector& q : queries) benchmark::DoNotOptimize(m.localize(q));
  };
  const double reps_per_query = static_cast<double>(n_queries);
  const double ns_none =
      1e9 / (ops_per_sec([&] { localize_all(knn_none); }, budget) * reps_per_query);
  const double ns_disabled =
      1e9 / (ops_per_sec([&] { localize_all(knn_disabled); }, budget) * reps_per_query);
  const double ns_enabled =
      1e9 / (ops_per_sec([&] { localize_all(knn_enabled); }, budget) * reps_per_query);
  const double disabled_overhead = ns_disabled / ns_none - 1.0;
  const double enabled_overhead = ns_enabled / ns_none - 1.0;
  std::printf("  none %9.1f ns/query   disabled %9.1f ns/query (%+.1f%%)   enabled %9.1f "
              "ns/query (%+.1f%%)\n",
              ns_none, ns_disabled, 100.0 * disabled_overhead, ns_enabled,
              100.0 * enabled_overhead);

  // 4) the same KNN loop under request tracing.  "off" is an inactive
  //    tracer (no ring, no slow log, no sampler): the per-query cost is
  //    one branch in TraceScope plus a thread-local load per stage.
  //    1% / 100% sampling bound the real serving configurations.
  std::printf("=== knn localize under tracing: off / 1%% sampled / 100%% sampled ===\n");
  TracerConfig off_config;
  off_config.ring_capacity = 0;
  off_config.slow_log_capacity = 0;
  off_config.sample_every = 0;
  Tracer tracer_off(off_config);
  TracerConfig sampled_config;
  sampled_config.ring_capacity = 1024;
  sampled_config.sample_every = 100;
  Tracer tracer_1pct(sampled_config);
  sampled_config.sample_every = 1;
  Tracer tracer_100pct(sampled_config);

  const auto localize_traced = [&](Tracer& tracer) {
    for (const Vector& q : queries) {
      TraceScope scope(tracer, {}, 0);
      TraceStage stage("bench.knn");
      benchmark::DoNotOptimize(knn_none.localize(q));
    }
  };
  const double ns_trace_off =
      1e9 / (ops_per_sec([&] { localize_traced(tracer_off); }, budget) * reps_per_query);
  const double ns_trace_1pct =
      1e9 / (ops_per_sec([&] { localize_traced(tracer_1pct); }, budget) * reps_per_query);
  const double ns_trace_100pct =
      1e9 / (ops_per_sec([&] { localize_traced(tracer_100pct); }, budget) * reps_per_query);
  const double trace_off_overhead = ns_trace_off / ns_none - 1.0;
  const double trace_1pct_overhead = ns_trace_1pct / ns_none - 1.0;
  const double trace_100pct_overhead = ns_trace_100pct / ns_none - 1.0;
  std::printf("  off %9.1f ns/query (%+.1f%%)   1%% %9.1f ns/query (%+.1f%%)   100%% %9.1f "
              "ns/query (%+.1f%%)\n",
              ns_trace_off, 100.0 * trace_off_overhead, ns_trace_1pct,
              100.0 * trace_1pct_overhead, ns_trace_100pct, 100.0 * trace_100pct_overhead);

  std::ofstream json("BENCH_linalg.json");
  json << "{\n  \"unit\": \"ops_per_sec\",\n  \"smoke\": "
       << (tafloc::bench::smoke_mode() ? "true" : "false") << ",\n";
  json << "  \"thread_scaling\": {\n    \"benchmark\": \"multiply_into_" << n << "x" << n
       << "\",\n    \"results\": [\n";
  for (std::size_t i = 0; i < 4; ++i) {
    json << "      {\"threads\": " << counts[i] << ", \"ops_per_sec\": " << scaling[i]
         << ", \"speedup\": " << scaling[i] / scaling[0] << "}" << (i + 1 < 4 ? "," : "")
         << "\n";
  }
  json << "    ]\n  },\n  \"copy_vs_view\": [\n";
  for (std::size_t i = 0; i < 2; ++i) {
    json << "    {\"case\": \"" << cases[i].name
         << "\", \"copy_ops_per_sec\": " << cases[i].copy_ops
         << ", \"view_ops_per_sec\": " << cases[i].view_ops
         << ", \"view_over_copy\": " << cases[i].view_ops / cases[i].copy_ops << "}"
         << (i + 1 < 2 ? "," : "") << "\n";
  }
  json << "  ],\n  \"knn_telemetry\": {\n"
       << "    \"queries\": " << n_queries << ",\n"
       << "    \"per_query_ns\": {\"none\": " << ns_none << ", \"disabled\": " << ns_disabled
       << ", \"enabled\": " << ns_enabled << "},\n"
       << "    \"disabled_overhead\": " << disabled_overhead
       << ",\n    \"enabled_overhead\": " << enabled_overhead << "\n  },\n"
       << "  \"knn_tracing\": {\n"
       << "    \"queries\": " << n_queries << ",\n"
       << "    \"per_query_ns\": {\"baseline\": " << ns_none
       << ", \"off\": " << ns_trace_off << ", \"sample_1pct\": " << ns_trace_1pct
       << ", \"sample_100pct\": " << ns_trace_100pct << "},\n"
       << "    \"off_overhead\": " << trace_off_overhead
       << ",\n    \"sample_1pct_overhead\": " << trace_1pct_overhead
       << ",\n    \"sample_100pct_overhead\": " << trace_100pct_overhead << "\n  }";
  if (tafloc::bench::telemetry_mode()) {
    // The enabled run's registry, embedded so the artefact records the
    // query counters and latency histogram behind the timings above.
    json << ",\n  \"telemetry\": " << tafloc::bench::telemetry_json_array(enabled_registry);
  }
  json << "\n}\n";
  std::printf("wrote BENCH_linalg.json\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  run_json_experiments();
  return tafloc::bench::finish_benchmarks(argc, argv);
}
