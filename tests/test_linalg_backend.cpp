// Kernel backend dispatch (linalg/backend.h): resolution rules, and
// the bit-identity contract -- every backend must reproduce the scalar
// reference kernels' per-element results exactly, so backend selection
// can never change a served answer.
#include "tafloc/linalg/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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

bool supported(KernelBackend backend) {
  const std::vector<KernelBackend> all = supported_kernel_backends();
  return std::find(all.begin(), all.end(), backend) != all.end();
}

/// What kAuto must pick on this CPU: the best table it supports.
KernelBackend expected_auto() {
  if (supported(KernelBackend::kAvx512Vnni)) return KernelBackend::kAvx512Vnni;
  return cpu_supports_avx2() ? KernelBackend::kAvx2 : KernelBackend::kScalar;
}

TEST(KernelBackend, NamesAreStable) {
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kAuto), "auto");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kAvx2), "avx2");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kAvx512Vnni), "avx512vnni");
}

TEST(KernelBackend, ExplicitResolution) {
  EXPECT_EQ(resolve_kernel_backend(KernelBackend::kScalar), KernelBackend::kScalar);
  if (cpu_supports_avx2()) {
    EXPECT_EQ(resolve_kernel_backend(KernelBackend::kAvx2), KernelBackend::kAvx2);
  } else {
    EXPECT_THROW(resolve_kernel_backend(KernelBackend::kAvx2), std::invalid_argument);
  }
  if (supported(KernelBackend::kAvx512Vnni)) {
    EXPECT_EQ(resolve_kernel_backend(KernelBackend::kAvx512Vnni), KernelBackend::kAvx512Vnni);
  } else {
    EXPECT_THROW(resolve_kernel_backend(KernelBackend::kAvx512Vnni), std::invalid_argument);
  }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The VNNI table is offered exactly where CPUID has its instructions.
  EXPECT_EQ(supported(KernelBackend::kAvx512Vnni),
            __builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx512vnni") &&
                __builtin_cpu_supports("avx512vl"));
#endif
  EXPECT_EQ(supported_kernel_backends().front(), KernelBackend::kScalar);
  EXPECT_EQ(supported(KernelBackend::kAvx2), cpu_supports_avx2());
}

TEST(KernelBackend, EnvironmentResolution) {
  EnvGuard env;
  ::setenv("TAFLOC_KERNEL_BACKEND", "scalar", 1);
  EXPECT_EQ(resolve_kernel_backend(), KernelBackend::kScalar);
  ::setenv("TAFLOC_KERNEL_BACKEND", "auto", 1);
  EXPECT_EQ(resolve_kernel_backend(), expected_auto());
  ::setenv("TAFLOC_KERNEL_BACKEND", "avx512vnni", 1);
  if (supported(KernelBackend::kAvx512Vnni))
    EXPECT_EQ(resolve_kernel_backend(), KernelBackend::kAvx512Vnni);
  else
    EXPECT_THROW(resolve_kernel_backend(), std::invalid_argument);
  ::setenv("TAFLOC_KERNEL_BACKEND", "sse9000", 1);
  EXPECT_THROW(resolve_kernel_backend(), std::invalid_argument);
  ::unsetenv("TAFLOC_KERNEL_BACKEND");
  EXPECT_EQ(resolve_kernel_backend(), expected_auto());
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
  if (supported(KernelBackend::kAvx512Vnni)) {
    set_kernel_backend(KernelBackend::kAvx512Vnni);
    EXPECT_EQ(active_kernel_backend(), KernelBackend::kAvx512Vnni);
    EXPECT_STREQ(kernel_ops().name, "avx512vnni");
  }
  EnvGuard env;
  ::unsetenv("TAFLOC_KERNEL_BACKEND");
  set_kernel_backend(KernelBackend::kAuto);
  EXPECT_EQ(active_kernel_backend(), expected_auto());
}

TEST(KernelBackend, SpecificTableLookup) {
  EXPECT_EQ(kernel_ops(KernelBackend::kScalar).id, KernelBackend::kScalar);
  EXPECT_THROW(kernel_ops(KernelBackend::kAuto), std::invalid_argument);
  if (!cpu_supports_avx2()) {
    EXPECT_THROW(kernel_ops(KernelBackend::kAvx2), std::invalid_argument);
  }
  if (supported(KernelBackend::kAvx512Vnni)) {
    EXPECT_EQ(kernel_ops(KernelBackend::kAvx512Vnni).id, KernelBackend::kAvx512Vnni);
  } else {
    EXPECT_THROW(kernel_ops(KernelBackend::kAvx512Vnni), std::invalid_argument);
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

// ---- exactness of the int8 pre-pass ----

std::uint64_t dist_sq_i8_reference(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t d = static_cast<std::int64_t>(a[i]) - static_cast<std::int64_t>(b[i]);
    total += static_cast<std::uint64_t>(d * d);
  }
  return total;
}

/// A query, `cells` grid-major cells of `padded` bytes, and an optional
/// usable mask (empty: every link usable), plus the oracle's keys.
struct PrepassCase {
  std::size_t padded = 0;
  std::size_t cells = 0;
  std::vector<std::int8_t> query, tier;
  std::vector<std::uint8_t> usable;
  std::vector<std::int64_t> terms;

  unsigned index_bits() const { return static_cast<unsigned>(std::bit_width(cells - 1)); }

  /// The kernel operands, with the cell terms built as QuantizedTier
  /// builds them.
  Int8Prepass pass() {
    terms.resize(cells);
    for (std::size_t j = 0; j < cells; ++j) terms[j] = int8_cell_term(&tier[j * padded], padded);
    Int8Prepass p{query.data(), usable.empty() ? nullptr : usable.data(), tier.data(), padded,
                  index_bits(), terms.data()};
    for (const std::int8_t v : query) p.query_norm_sq += v * v;
    return p;
  }

  /// dist_sq_i8_reference per cell, with dead links zeroed on both sides.
  std::vector<std::uint64_t> reference_keys() const {
    const unsigned bits = index_bits();
    std::vector<std::uint64_t> keys(cells);
    std::vector<std::int8_t> q = query, c(padded);
    for (std::size_t i = 0; i < padded; ++i)
      if (!usable.empty() && usable[i] == 0) q[i] = 0;
    for (std::size_t j = 0; j < cells; ++j) {
      for (std::size_t i = 0; i < padded; ++i)
        c[i] = !usable.empty() && usable[i] == 0 ? 0 : tier[j * padded + i];
      keys[j] = (dist_sq_i8_reference(q.data(), c.data(), padded) << bits) | j;
    }
    return keys;
  }
};

PrepassCase random_case(std::size_t padded, std::size_t cells, Rng& rng) {
  PrepassCase pc;
  pc.padded = padded;
  pc.cells = cells;
  pc.query.resize(padded);
  pc.tier.resize(padded * cells);
  for (std::int8_t& v : pc.query) v = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
  for (std::int8_t& v : pc.tier) v = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
  // Plant worst-case magnitude diffs so lane arithmetic is stressed.
  pc.query[0] = 127;
  pc.query[padded - 1] = -127;
  for (std::size_t j = 0; j < cells; ++j) {
    pc.tier[j * padded] = -127;
    pc.tier[j * padded + padded - 1] = 127;
  }
  return pc;
}

/// Keys of every cell from one backend, computed `grain` cells per call
/// the way the matcher's pool split hands out cell ranges.  A sentinel
/// past the last cell catches writes outside [j0, j1).
std::vector<std::uint64_t> prepass_keys(KernelBackend backend, PrepassCase& pc,
                                        std::size_t grain) {
  constexpr std::uint64_t kSentinel = 0xdeadbeefcafef00dULL;
  std::vector<std::uint64_t> keys(pc.cells + 1, kSentinel);
  const Int8Prepass pass = pc.pass();
  for (std::size_t j0 = 0; j0 < pc.cells; j0 += grain)
    kernel_ops(backend).int8_prepass(pass, j0, std::min(pc.cells, j0 + grain), keys.data());
  EXPECT_EQ(keys.back(), kSentinel) << "wrote past the last cell";
  keys.pop_back();
  return keys;
}

/// Every table this CPU runs, every split: the oracle's keys exactly.
void expect_prepass_exact(PrepassCase pc) {
  const std::vector<std::uint64_t> expected = pc.reference_keys();
  for (KernelBackend backend : supported_kernel_backends())
    for (std::size_t grain : {pc.cells, std::size_t{1}, std::size_t{3}, std::size_t{4}})
      EXPECT_EQ(prepass_keys(backend, pc, grain), expected)
          << kernel_backend_name(backend) << " padded=" << pc.padded << " cells=" << pc.cells
          << " grain=" << grain << (pc.usable.empty() ? "" : " masked");
}

TEST(KernelBackend, Int8DistanceExactOnEveryBackend) {
  Rng rng(9);
  // Widths crossing the 32-byte step and the int32 anti-overflow chunk
  // boundary (2^14); cell counts off the kernel's 4-cell block.
  const std::size_t widths[] = {32, 64, 96, 256, (1u << 14) - 32, (1u << 14), (1u << 14) + 32};
  for (std::size_t padded : widths)
    for (std::size_t cells : {1u, 3u, 5u, 97u})
      expect_prepass_exact(random_case(padded, cells, rng));
}

TEST(KernelBackend, Int8DistanceSurvivesWorstCaseAccumulation) {
  // 2^17 + 32 maximal bytes.  254^2 per byte overflows int32 after
  // 33 286 bytes, and the dot form's 255 * 127 per byte after 66 313 --
  // the 2^14-byte chunked accumulation must not.  Both signs, since the
  // dot form sums (q + 128) * c: q = 127 against c = -127 drives every
  // product to -255 * 127, and q = c = 127 (distance 0) to +255 * 127.
  struct Fill {
    std::int8_t q, c;
    std::uint64_t per_link;
  };
  for (const Fill f : {Fill{127, -127, 254u * 254u}, Fill{-127, 127, 254u * 254u},
                       Fill{127, 127, 0u}}) {
    PrepassCase pc;
    pc.padded = (std::size_t{1} << 17) + 32;
    pc.cells = 5;
    pc.query.assign(pc.padded, f.q);
    pc.tier.assign(pc.padded * pc.cells, f.c);
    const std::uint64_t expected = static_cast<std::uint64_t>(pc.padded) * f.per_link;
    const std::vector<std::uint64_t> keys = pc.reference_keys();
    for (std::size_t j = 0; j < pc.cells; ++j) EXPECT_EQ(keys[j] >> pc.index_bits(), expected);
    expect_prepass_exact(pc);
  }
}

TEST(KernelBackend, MaskedInt8DistanceExactOnEveryBackend) {
  Rng rng(10);
  for (std::size_t padded : {32u, 64u, 96u, 288u, (1u << 14) + 32}) {
    for (std::size_t cells : {1u, 3u, 5u, 97u}) {
      PrepassCase pc = random_case(padded, cells, rng);
      pc.usable.resize(padded);
      for (std::uint8_t& u : pc.usable) u = rng.uniform01() < 0.7 ? 1 : 0;
      expect_prepass_exact(pc);
      pc.usable.assign(padded, 0);  // all dead: every distance 0
      for (std::uint64_t key : pc.reference_keys()) EXPECT_EQ(key >> pc.index_bits(), 0u);
      expect_prepass_exact(pc);
    }
  }
}

TEST(KernelBackend, GatherPrepassMatchesContiguousKeys) {
  // The gather form scores listed cells with the same arithmetic:
  // position p gets exactly the key the contiguous pass gives cell
  // cell_index[p] -- lists off the 4-cell block, repeats, every table
  // and split, both sides of the 2^14-byte chunk.
  constexpr std::uint64_t kSentinel = 0xdeadbeefcafef00dULL;
  Rng rng(13);
  for (std::size_t padded : {32u, 96u, 512u, (1u << 14) + 32}) {
    PrepassCase pc = random_case(padded, 37, rng);
    const std::vector<std::uint64_t> all = pc.reference_keys();
    for (std::size_t count : {1u, 3u, 4u, 9u, 37u}) {
      std::vector<std::size_t> index(count);
      for (std::size_t& c : index) c = rng.index(pc.cells);
      index[0] = pc.cells - 1;
      if (count > 2) index[2] = index[1];  // a repeat
      std::vector<std::uint64_t> expected(count);
      for (std::size_t p = 0; p < count; ++p) expected[p] = all[index[p]];
      Int8Prepass pass = pc.pass();
      pass.cell_index = index.data();
      for (KernelBackend backend : supported_kernel_backends()) {
        for (std::size_t grain : {count, std::size_t{1}, std::size_t{3}}) {
          std::vector<std::uint64_t> keys(count + 1, kSentinel);
          for (std::size_t p0 = 0; p0 < count; p0 += grain)
            kernel_ops(backend).int8_prepass(pass, p0, std::min(count, p0 + grain), keys.data());
          EXPECT_EQ(keys.back(), kSentinel) << "wrote past the last position";
          keys.pop_back();
          EXPECT_EQ(keys, expected) << kernel_backend_name(backend) << " padded=" << padded
                                    << " count=" << count << " grain=" << grain;
        }
      }
    }
  }
}

// ---- the projection bound (Int8Bound) ----

/// sum_i basis[t * padded + i] * x[i] for every row t, in int64.
std::vector<std::int64_t> project_reference(const std::vector<std::int16_t>& basis,
                                            const std::int8_t* x, std::size_t padded) {
  std::vector<std::int64_t> out(kBoundRank, 0);
  for (std::size_t t = 0; t < kBoundRank; ++t)
    for (std::size_t i = 0; i < padded; ++i) out[t] += std::int64_t{basis[t * padded + i]} * x[i];
  return out;
}

/// max_t sum_u |(B B^T)_tu|, the Gershgorin bound QuantizedTier stores.
std::uint64_t gershgorin_kappa(const std::vector<std::int16_t>& basis, std::size_t padded) {
  std::uint64_t kappa = 0;
  for (std::size_t t = 0; t < kBoundRank; ++t) {
    std::uint64_t sum = 0;
    for (std::size_t u = 0; u < kBoundRank; ++u) {
      std::int64_t g = 0;
      for (std::size_t i = 0; i < padded; ++i)
        g += std::int64_t{basis[t * padded + i]} * basis[u * padded + i];
      sum += static_cast<std::uint64_t>(g < 0 ? -g : g);
    }
    kappa = std::max(kappa, sum);
  }
  return kappa;
}

TEST(KernelBackend, Int8BoundIsSoundOnEveryBackend) {
  // For ANY int16 basis B, N_j = ||B q - B c_j||^2 <= kappa * D_j with
  // kappa the Gershgorin bound of B B^T.  Checked against brute force on
  // random bases, cells and queries and on the extremes: q = 127 against
  // c = -127 under an all-4096 basis reaches the largest projected
  // difference (254 * 4096 * 1024 < 2^31) and meets the bound with
  // equality.  Every table's projections and bound keys must equal the
  // oracle's, for every split.
  constexpr std::uint64_t kSentinel = 0xdeadbeefcafef00dULL;
  Rng rng(14);
  for (std::size_t padded : {256u, 512u, 1024u}) {
    for (int trial = 0; trial < 3; ++trial) {
      PrepassCase pc = random_case(padded, 29, rng);
      std::vector<std::int16_t> basis(kBoundRank * padded);
      for (std::int16_t& b : basis) b = static_cast<std::int16_t>(rng.uniform(-4096.0, 4097.0));
      if (trial == 1) {  // the largest magnitudes
        pc.query.assign(padded, 127);
        pc.tier.assign(padded * pc.cells, -127);
        basis.assign(basis.size(), 4096);
      } else if (trial == 2) {  // sign-mixed extremes, every row a different pattern
        for (std::size_t i = 0; i < padded; ++i) pc.query[i] = (i % 3 == 0) ? -127 : 127;
        for (std::size_t t = 0; t < kBoundRank; ++t)
          for (std::size_t i = 0; i < padded; ++i)
            basis[t * padded + i] = ((i >> t) & 1) != 0 ? -4096 : 4096;
      }
      const std::uint64_t kappa = gershgorin_kappa(basis, padded);
      const std::uint64_t max_dist = static_cast<std::uint64_t>(padded) * 254u * 254u;
      ASSERT_LE(std::bit_width(kappa) + std::bit_width(max_dist), 64);
      const unsigned bits = pc.index_bits();
      const unsigned width = static_cast<unsigned>(std::bit_width(kappa * max_dist)) + bits;
      const unsigned shift = width > 64 ? width - 64 : 0;

      const std::vector<std::int64_t> qproj = project_reference(basis, pc.query.data(), padded);
      const std::vector<std::uint64_t> dist = pc.reference_keys();
      std::vector<std::uint64_t> expected(pc.cells);
      std::vector<std::int32_t> cell_proj(pc.cells * kBoundRank);
      for (std::size_t j = 0; j < pc.cells; ++j) {
        const std::vector<std::int64_t> p = project_reference(basis, &pc.tier[j * padded], padded);
        std::uint64_t n = 0;
        for (std::size_t t = 0; t < kBoundRank; ++t) {
          cell_proj[j * kBoundRank + t] = static_cast<std::int32_t>(p[t]);
          const std::int64_t d = qproj[t] - p[t];
          n += static_cast<std::uint64_t>(d * d);
        }
        const std::uint64_t d_j = dist[j] >> bits;
        EXPECT_LE(n, kappa * d_j) << "padded=" << padded << " trial=" << trial << " cell " << j;
        expected[j] = ((n >> shift) << bits) | j;
      }

      for (KernelBackend backend : supported_kernel_backends()) {
        const KernelOps& ops = kernel_ops(backend);
        SCOPED_TRACE(kernel_backend_name(backend));
        std::vector<std::int32_t> proj(pc.cells * kBoundRank);
        for (std::size_t j = 0; j < pc.cells; ++j)
          ops.int8_project(basis.data(), &pc.tier[j * padded], padded, &proj[j * kBoundRank]);
        EXPECT_EQ(proj, cell_proj) << "padded=" << padded << " trial=" << trial;
        std::vector<std::int32_t> query(kBoundRank);
        ops.int8_project(basis.data(), pc.query.data(), padded, query.data());
        for (std::size_t t = 0; t < kBoundRank; ++t) EXPECT_EQ(query[t], qproj[t]);
        const Int8Bound pass{query.data(), proj.data(), shift, bits};
        for (std::size_t grain : {pc.cells, std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
          std::vector<std::uint64_t> keys(pc.cells + 1, kSentinel);
          for (std::size_t j0 = 0; j0 < pc.cells; j0 += grain)
            ops.int8_bound(pass, j0, std::min(pc.cells, j0 + grain), keys.data());
          EXPECT_EQ(keys.back(), kSentinel) << "wrote past the last cell";
          keys.pop_back();
          EXPECT_EQ(keys, expected) << "padded=" << padded << " trial=" << trial
                                    << " grain=" << grain;
        }
      }
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
