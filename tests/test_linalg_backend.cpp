// Kernel backend dispatch (linalg/backend.h): resolution rules, and
// the bit-identity contract -- every backend must reproduce the scalar
// reference kernels' per-element results exactly, so backend selection
// can never change a served answer.
#include "tafloc/linalg/backend.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "tafloc/linalg/matrix.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

/// Restore the process-wide backend selection on scope exit, so these
/// tests cannot leak a forced backend into the rest of the suite.
struct BackendGuard {
  KernelBackend saved;
  BackendGuard() : saved(active_kernel_backend()) {}
  ~BackendGuard() { set_kernel_backend(saved); }
};

/// Restore (or clear) TAFLOC_KERNEL_BACKEND on scope exit.
struct EnvGuard {
  std::string saved;
  bool was_set;
  EnvGuard() {
    const char* v = std::getenv("TAFLOC_KERNEL_BACKEND");
    was_set = v != nullptr;
    if (was_set) saved = v;
  }
  ~EnvGuard() {
    if (was_set)
      ::setenv("TAFLOC_KERNEL_BACKEND", saved.c_str(), 1);
    else
      ::unsetenv("TAFLOC_KERNEL_BACKEND");
  }
};

TEST(KernelBackend, NamesAreStable) {
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kAuto), "auto");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kAvx2), "avx2");
}

TEST(KernelBackend, ExplicitResolution) {
  EXPECT_EQ(resolve_kernel_backend(KernelBackend::kScalar), KernelBackend::kScalar);
  if (cpu_supports_avx2()) {
    EXPECT_EQ(resolve_kernel_backend(KernelBackend::kAvx2), KernelBackend::kAvx2);
  } else {
    EXPECT_THROW(resolve_kernel_backend(KernelBackend::kAvx2), std::invalid_argument);
  }
}

TEST(KernelBackend, EnvironmentResolution) {
  EnvGuard env;
  ::setenv("TAFLOC_KERNEL_BACKEND", "scalar", 1);
  EXPECT_EQ(resolve_kernel_backend(), KernelBackend::kScalar);
  ::setenv("TAFLOC_KERNEL_BACKEND", "auto", 1);
  EXPECT_EQ(resolve_kernel_backend(),
            cpu_supports_avx2() ? KernelBackend::kAvx2 : KernelBackend::kScalar);
  ::setenv("TAFLOC_KERNEL_BACKEND", "sse9000", 1);
  EXPECT_THROW(resolve_kernel_backend(), std::invalid_argument);
  ::unsetenv("TAFLOC_KERNEL_BACKEND");
  EXPECT_EQ(resolve_kernel_backend(),
            cpu_supports_avx2() ? KernelBackend::kAvx2 : KernelBackend::kScalar);
}

TEST(KernelBackend, SetSelectsActiveTable) {
  BackendGuard guard;
  set_kernel_backend(KernelBackend::kScalar);
  EXPECT_EQ(active_kernel_backend(), KernelBackend::kScalar);
  EXPECT_EQ(kernel_ops().id, KernelBackend::kScalar);
  EXPECT_STREQ(kernel_ops().name, "scalar");
  if (cpu_supports_avx2()) {
    set_kernel_backend(KernelBackend::kAvx2);
    EXPECT_EQ(active_kernel_backend(), KernelBackend::kAvx2);
  }
}

TEST(KernelBackend, SpecificTableLookup) {
  EXPECT_EQ(kernel_ops(KernelBackend::kScalar).id, KernelBackend::kScalar);
  EXPECT_THROW(kernel_ops(KernelBackend::kAuto), std::invalid_argument);
  if (!cpu_supports_avx2()) {
    EXPECT_THROW(kernel_ops(KernelBackend::kAvx2), std::invalid_argument);
  }
}

// ---- bit-identity of the floating-point kernels ----

TEST(KernelBackend, AxpyBitIdenticalAcrossBackends) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "single backend on this CPU";
  const KernelOps& scalar = kernel_ops(KernelBackend::kScalar);
  const KernelOps& avx2 = kernel_ops(KernelBackend::kAvx2);
  Rng rng(7);
  // Sizes straddling the 4-lane vector width, including the pure-tail
  // cases, plus a denormal-scale multiplier and an exact-zero alpha.
  for (std::size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 31u, 64u, 100u, 257u}) {
    for (double a : {0.737, -1.5e-12, 3.0e17, 0.0}) {
      std::vector<double> x(n), y0(n), y1(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = rng.normal() * 1e3;
        y0[i] = y1[i] = rng.normal();
      }
      scalar.axpy(a, x.data(), y0.data(), n);
      avx2.axpy(a, x.data(), y1.data(), n);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y0[i], y1[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelBackend, HadamardBitIdenticalAcrossBackends) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "single backend on this CPU";
  const KernelOps& scalar = kernel_ops(KernelBackend::kScalar);
  const KernelOps& avx2 = kernel_ops(KernelBackend::kAvx2);
  Rng rng(8);
  for (std::size_t n : {1u, 4u, 5u, 63u, 64u, 65u}) {
    std::vector<double> a(n), b(n), out0(n), out1(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.normal() * 1e5;
      b[i] = rng.normal() * 1e-5;
    }
    scalar.hadamard(a.data(), b.data(), out0.data(), n);
    avx2.hadamard(a.data(), b.data(), out1.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out0[i], out1[i]);
  }
}

// ---- exactness of the integer distance kernels ----

std::uint64_t dist_sq_i8_reference(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t d = static_cast<std::int64_t>(a[i]) - static_cast<std::int64_t>(b[i]);
    total += static_cast<std::uint64_t>(d * d);
  }
  return total;
}

TEST(KernelBackend, Int8DistanceExactOnEveryBackend) {
  Rng rng(9);
  // Sizes crossing the 16-lane step, the 32-element pad granule, and
  // the int32 anti-overflow chunk boundary (2^14).
  const std::size_t sizes[] = {1, 15, 16, 17, 31, 32, 33, 96, 255, (1u << 14) - 1, (1u << 14),
                               (1u << 14) + 5};
  for (std::size_t n : sizes) {
    std::vector<std::int8_t> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
      b[i] = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
    }
    // Plant worst-case magnitude diffs so lane arithmetic is stressed.
    if (n >= 4) {
      a[0] = 127;
      b[0] = -127;
      a[n - 1] = -127;
      b[n - 1] = 127;
    }
    const std::uint64_t expected = dist_sq_i8_reference(a.data(), b.data(), n);
    EXPECT_EQ(kernel_ops(KernelBackend::kScalar).dist_sq_i8(a.data(), b.data(), n), expected);
    if (cpu_supports_avx2()) {
      EXPECT_EQ(kernel_ops(KernelBackend::kAvx2).dist_sq_i8(a.data(), b.data(), n), expected)
          << "n=" << n;
    }
  }
}

TEST(KernelBackend, Int8DistanceSurvivesWorstCaseAccumulation) {
  // 20 000 maximal diffs: 20 000 * 254^2 = 1.29e9 overflows int32 --
  // the chunked accumulation must not.
  const std::size_t n = 20000;
  std::vector<std::int8_t> a(n, 127), b(n, -127);
  const std::uint64_t expected = static_cast<std::uint64_t>(n) * 254u * 254u;
  EXPECT_EQ(kernel_ops(KernelBackend::kScalar).dist_sq_i8(a.data(), b.data(), n), expected);
  if (cpu_supports_avx2()) {
    EXPECT_EQ(kernel_ops(KernelBackend::kAvx2).dist_sq_i8(a.data(), b.data(), n), expected);
  }
}

TEST(KernelBackend, MaskedInt8DistanceExactOnEveryBackend) {
  Rng rng(10);
  for (std::size_t n : {1u, 16u, 33u, 96u, 257u}) {
    std::vector<std::int8_t> a(n), b(n);
    std::vector<std::uint8_t> usable(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
      b[i] = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
      usable[i] = rng.uniform01() < 0.7 ? 1 : 0;
    }
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (usable[i] == 0) continue;
      const std::int64_t d = static_cast<std::int64_t>(a[i]) - static_cast<std::int64_t>(b[i]);
      expected += static_cast<std::uint64_t>(d * d);
    }
    EXPECT_EQ(kernel_ops(KernelBackend::kScalar)
                  .dist_sq_i8_masked(a.data(), b.data(), usable.data(), n),
              expected);
    if (cpu_supports_avx2()) {
      EXPECT_EQ(kernel_ops(KernelBackend::kAvx2)
                    .dist_sq_i8_masked(a.data(), b.data(), usable.data(), n),
                expected)
          << "n=" << n;
    }
  }
}

// ---- bit-identity of the matrix kernels that dispatch through the table ----

Matrix random_with_zeros(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = random_gaussian(rows, cols, rng);
  // Sprinkle exact zeros: the gemm's aik == 0 skip is semantic and must
  // behave identically in every backend.
  for (double& v : m.data())
    if (rng.uniform01() < 0.1) v = 0.0;
  return m;
}

TEST(KernelBackend, MatrixKernelsBitIdenticalAcrossBackends) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "single backend on this CPU";
  BackendGuard guard;
  Rng rng(11);
  const Matrix a = random_with_zeros(17, 23, rng);  // M x K
  const Matrix b = random_with_zeros(23, 29, rng);  // K x N
  const Matrix c = random_with_zeros(17, 29, rng);  // M x N
  const Vector x = random_gaussian(17, 1, rng).col(0);

  set_kernel_backend(KernelBackend::kScalar);
  Matrix gemm_s(17, 29), gram_s(23, 29), had_s(23, 29), axpy_s;
  Vector mt_s(23);
  multiply_into(a, b, gemm_s);
  gram_product_into(a.view(), c.view(), gram_s.view());
  multiply_transposed_into(a.view(), x, mt_s);
  hadamard_into(b.view(), b.view(), had_s.view());
  axpy_s = c;
  add_scaled_into(gemm_s.view(), -0.737, axpy_s.view());

  set_kernel_backend(KernelBackend::kAvx2);
  Matrix gemm_v(17, 29), gram_v(23, 29), had_v(23, 29), axpy_v;
  Vector mt_v(23);
  multiply_into(a, b, gemm_v);
  gram_product_into(a.view(), c.view(), gram_v.view());
  multiply_transposed_into(a.view(), x, mt_v);
  hadamard_into(b.view(), b.view(), had_v.view());
  axpy_v = c;
  add_scaled_into(gemm_v.view(), -0.737, axpy_v.view());

  EXPECT_EQ(gemm_s, gemm_v);
  EXPECT_EQ(gram_s, gram_v);
  EXPECT_EQ(had_s, had_v);
  EXPECT_EQ(axpy_s, axpy_v);
  for (std::size_t i = 0; i < mt_s.size(); ++i) EXPECT_EQ(mt_s[i], mt_v[i]);
}

TEST(KernelBackend, BlockedGemmMatchesUnblockedReference) {
  // The cache-blocked multiply_into must keep the ascending-k
  // per-element accumulation order of the simple i-k-j loop: same
  // sums, same rounding, bit-identical output.
  BackendGuard guard;
  set_kernel_backend(KernelBackend::kScalar);
  Rng rng(12);
  // Sizes past the panel (8), k-block (256) and j-tile boundaries.
  struct Dim {
    std::size_t m, k, n;
  };
  for (const Dim d : {Dim{3, 5, 4}, Dim{9, 257, 17}, Dim{16, 300, 70}}) {
    const Matrix a = random_with_zeros(d.m, d.k, rng);
    const Matrix b = random_with_zeros(d.k, d.n, rng);
    Matrix blocked(d.m, d.n);
    multiply_into(a, b, blocked);
    Matrix reference(d.m, d.n, 0.0);
    for (std::size_t i = 0; i < d.m; ++i) {
      for (std::size_t kk = 0; kk < d.k; ++kk) {
        const double aik = a(i, kk);
        if (aik == 0.0) continue;
        for (std::size_t j = 0; j < d.n; ++j) reference(i, j) += aik * b(kk, j);
      }
    }
    EXPECT_EQ(blocked, reference) << d.m << "x" << d.k << "x" << d.n;
  }
}

}  // namespace
}  // namespace tafloc
