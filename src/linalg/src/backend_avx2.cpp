// The AVX2 and AVX-512 VNNI kernel tables (see backend.h for the
// bit-identity contract).
//
// Compiled into every build via GCC/Clang function target attributes --
// no -mavx2 build flag, so the rest of the binary stays baseline
// x86-64 (or non-x86) and a table is only handed out after
// __builtin_cpu_supports says its instructions exist.
//
// Floating-point lanes use SEPARATE multiply and add instructions, not
// FMA: the scalar reference rounds after the multiply and again after
// the add, and a fused contraction would round once -- bit-identity
// with the scalar backend is the whole contract.  (The CPU may well
// have FMA; we detect it for telemetry honesty but deliberately never
// emit it in these kernels.)  The int8 pre-pass, the projection and
// the bound pass are exact integer arithmetic, so vectorizing them is
// unconditionally safe.

#include "tafloc/linalg/backend.h"

#include <algorithm>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TAFLOC_HAVE_AVX2_BACKEND 1
#include <immintrin.h>
#endif

namespace tafloc {

#ifdef TAFLOC_HAVE_AVX2_BACKEND

namespace {

__attribute__((target("avx2"))) void axpy_avx2(double a, const double* x, double* y,
                                               std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vx = _mm256_loadu_pd(x + j);
    __m256d vy = _mm256_loadu_pd(y + j);
    // mul then add, matching the scalar reference's two roundings.
    vy = _mm256_add_pd(vy, _mm256_mul_pd(va, vx));
    _mm256_storeu_pd(y + j, vy);
  }
  for (; j < n; ++j) y[j] += a * x[j];
}

__attribute__((target("avx2"))) void hadamard_avx2(const double* a, const double* b, double* out,
                                                   std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    _mm256_storeu_pd(out + j, _mm256_mul_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j)));
  for (; j < n; ++j) out[j] = a[j] * b[j];
}

/// Link bytes per int32 accumulation chunk.  A 32-byte step adds at
/// most 4 * 254^2 to each of a cell's 8 int32 lanes, and a whole 2^14
/// byte chunk sums to at most 2^14 * 254^2 < 2^31 -- so neither the
/// lanes nor their horizontal total can overflow before the chunk is
/// widened into the 64-bit total.  The dot form's bound is in
/// int8_prepass_dot.
constexpr std::size_t kI8Chunk = std::size_t{1} << 14;

/// An unaligned 32-byte load.
template <typename T>
__attribute__((target("avx2"))) inline __m256i load_si256(const T* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// Squared differences of one 32-byte step, as 8 int32 lane sums.
/// |a - b| <= 254 is formed in unsigned bytes as max - min, then
/// squared and pair-summed in 16-bit lanes by madd.
template <bool kMasked>
__attribute__((target("avx2"))) inline __m256i sq_diff_step(__m256i query, const std::int8_t* cell,
                                                            const std::uint8_t* usable) {
  const __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cell));
  __m256i d = _mm256_sub_epi8(_mm256_max_epi8(query, c), _mm256_min_epi8(query, c));
  if constexpr (kMasked) {
    const __m256i u = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(usable));
    d = _mm256_andnot_si256(_mm256_cmpeq_epi8(u, _mm256_setzero_si256()), d);
  }
  const __m256i lo = _mm256_unpacklo_epi8(d, _mm256_setzero_si256());
  const __m256i hi = _mm256_unpackhi_epi8(d, _mm256_setzero_si256());
  return _mm256_add_epi32(_mm256_madd_epi16(lo, lo), _mm256_madd_epi16(hi, hi));
}

/// The sum of v's eight int32 lanes (modulo 2^32; the chunking keeps it
/// exact).
__attribute__((target("avx2"))) inline std::int32_t hsum_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// Four cells' lane sums reduced to four int32 totals in two rounds of
/// horizontal adds: lane c of the result belongs to cell c.  Callers
/// widen them to 64 bits, unsigned or signed as their sums are.
__attribute__((target("avx2"))) inline __m128i hsum4_epi32(__m256i a, __m256i b, __m256i c,
                                                           __m256i d) {
  const __m256i s = _mm256_hadd_epi32(_mm256_hadd_epi32(a, b), _mm256_hadd_epi32(c, d));
  return _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
}

/// The cell a pass scores at list position p: cell_index[p] in the
/// gather form, p itself otherwise.
template <bool kGather>
inline std::size_t cell_at(const Int8Prepass& pass, std::size_t p) {
  if constexpr (kGather)
    return pass.cell_index[p];
  else
    return p;
}

/// The cells at positions p .. p + 3 as four int64 lanes, the index
/// bits of their keys.
template <bool kGather>
__attribute__((target("avx2"))) inline __m256i cells4(const Int8Prepass& pass, std::size_t p) {
  static_assert(sizeof(std::size_t) == sizeof(std::int64_t));
  if constexpr (kGather)
    return load_si256(pass.cell_index + p);
  else
    return _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(p)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

template <bool kMasked, bool kGather>
__attribute__((target("avx2"))) void int8_prepass_avx2_impl(const Int8Prepass& pass,
                                                            std::size_t j0, std::size_t j1,
                                                            std::uint64_t* keys) {
  const std::size_t padded = pass.padded;
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(pass.index_bits));
  std::size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    const std::int8_t* c0 = pass.cells + cell_at<kGather>(pass, j) * padded;
    const std::int8_t* c1 = pass.cells + cell_at<kGather>(pass, j + 1) * padded;
    const std::int8_t* c2 = pass.cells + cell_at<kGather>(pass, j + 2) * padded;
    const std::int8_t* c3 = pass.cells + cell_at<kGather>(pass, j + 3) * padded;
    __m256i total = _mm256_setzero_si256();
    for (std::size_t i0 = 0; i0 < padded; i0 += kI8Chunk) {
      const std::size_t i1 = std::min(padded, i0 + kI8Chunk);
      __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;
      for (std::size_t i = i0; i < i1; i += 32) {
        const __m256i q = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pass.query + i));
        const std::uint8_t* u = kMasked ? pass.usable + i : nullptr;
        a0 = _mm256_add_epi32(a0, sq_diff_step<kMasked>(q, c0 + i, u));
        a1 = _mm256_add_epi32(a1, sq_diff_step<kMasked>(q, c1 + i, u));
        a2 = _mm256_add_epi32(a2, sq_diff_step<kMasked>(q, c2 + i, u));
        a3 = _mm256_add_epi32(a3, sq_diff_step<kMasked>(q, c3 + i, u));
      }
      total = _mm256_add_epi64(total, _mm256_cvtepu32_epi64(hsum4_epi32(a0, a1, a2, a3)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + j),
                        _mm256_or_si256(_mm256_sll_epi64(total, shift), cells4<kGather>(pass, j)));
  }
  for (; j < j1; ++j) {  // the last (j1 - j0) mod 4 cells, one at a time
    const std::size_t c = cell_at<kGather>(pass, j);
    const std::int8_t* cell = pass.cells + c * padded;
    std::uint64_t total = 0;
    for (std::size_t i0 = 0; i0 < padded; i0 += kI8Chunk) {
      const std::size_t i1 = std::min(padded, i0 + kI8Chunk);
      __m256i acc = _mm256_setzero_si256();
      for (std::size_t i = i0; i < i1; i += 32) {
        const __m256i q = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pass.query + i));
        acc = _mm256_add_epi32(
            acc, sq_diff_step<kMasked>(q, cell + i, kMasked ? pass.usable + i : nullptr));
      }
      total += static_cast<std::uint32_t>(hsum_epi32(acc));
    }
    keys[j] = (total << pass.index_bits) | c;
  }
}

// Starts on a 64-byte boundary so its loops sit at fixed offsets from
// the CPU's 32-byte fetch blocks: on a 4-CPU Xeon the same machine code
// placed 16 bytes past a boundary scanned warehouse_scan's 10 MB tier
// about 6% slower.  Not inlined into the VNNI table's masked path, so
// both loops stay inlined here, under the pin, at -O2 too.
__attribute__((target("avx2"), aligned(64), noinline)) void int8_prepass_avx2(
    const Int8Prepass& pass, std::size_t j0, std::size_t j1, std::uint64_t* keys) {
  if (pass.usable != nullptr)
    int8_prepass_avx2_impl<true, false>(pass, j0, j1, keys);
  else if (pass.cell_index != nullptr)
    int8_prepass_avx2_impl<false, true>(pass, j0, j1, keys);
  else
    int8_prepass_avx2_impl<false, false>(pass, j0, j1, keys);
}

/// acc + the dot products of each group of four unsigned bytes of u
/// with the signed bytes of s, one per int32 lane: one vpdpbusd.  Inline
/// asm rather than _mm256_dpbusd_epi32, whose accumulators GCC 12
/// copies into other registers and back around the instructions (7
/// vmovdqa beside 4 vpdpbusd per 32-byte step of four cells, at -O2 and
/// -O3); the "+v" operand keeps each accumulator in one register.
__attribute__((target("avx2,avx512vnni,avx512vl"))) inline __m256i dpbusd(__m256i acc, __m256i u,
                                                                          __m256i s) {
  asm("vpdpbusd %2, %1, %0" : "+v"(acc) : "v"(u), "vm"(s));
  return acc;
}

/// The cell terms of the cells at positions p .. p + 3.
template <bool kGather>
__attribute__((target("avx2"))) inline __m256i terms4(const Int8Prepass& pass, std::size_t p) {
  if constexpr (kGather)
    return _mm256_i64gather_epi64(reinterpret_cast<const long long*>(pass.cell_terms),
                                  cells4<true>(pass, p), 8);
  else
    return load_si256(pass.cell_terms + p);
}

/// The unmasked pre-pass in dot form (see Int8Prepass): the query's
/// bytes become unsigned q + 128 by flipping their sign bit, once per
/// 32-byte step for four cells, and one vpdpbusd per cell and step adds
/// each group of four (q + 128) * c byte products into an int32 lane.
/// A product is at most 255 * 128 in magnitude, so a kI8Chunk-byte
/// chunk sums to less than 2^14 * 255 * 128 < 2^31 in every lane and in
/// its horizontal total.  Those totals are signed, so they widen with
/// sign extension.
template <bool kGather>
__attribute__((target("avx2,avx512vnni,avx512vl"))) inline void int8_prepass_dot(
    const Int8Prepass& pass, std::size_t j0, std::size_t j1, std::uint64_t* keys) {
  const std::size_t padded = pass.padded;
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(pass.index_bits));
  const __m256i sign = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i norm = _mm256_set1_epi64x(pass.query_norm_sq);
  std::size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    const std::int8_t* c0 = pass.cells + cell_at<kGather>(pass, j) * padded;
    const std::int8_t* c1 = pass.cells + cell_at<kGather>(pass, j + 1) * padded;
    const std::int8_t* c2 = pass.cells + cell_at<kGather>(pass, j + 2) * padded;
    const std::int8_t* c3 = pass.cells + cell_at<kGather>(pass, j + 3) * padded;
    __m256i dot = _mm256_setzero_si256();
    for (std::size_t i0 = 0; i0 < padded; i0 += kI8Chunk) {
      const std::size_t i1 = std::min(padded, i0 + kI8Chunk);
      __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;
      for (std::size_t i = i0; i < i1; i += 32) {
        const __m256i q = _mm256_xor_si256(load_si256(pass.query + i), sign);
        a0 = dpbusd(a0, q, load_si256(c0 + i));
        a1 = dpbusd(a1, q, load_si256(c1 + i));
        a2 = dpbusd(a2, q, load_si256(c2 + i));
        a3 = dpbusd(a3, q, load_si256(c3 + i));
      }
      dot = _mm256_add_epi64(dot, _mm256_cvtepi32_epi64(hsum4_epi32(a0, a1, a2, a3)));
    }
    const __m256i dist = _mm256_sub_epi64(_mm256_add_epi64(norm, terms4<kGather>(pass, j)),
                                          _mm256_add_epi64(dot, dot));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + j),
                        _mm256_or_si256(_mm256_sll_epi64(dist, shift), cells4<kGather>(pass, j)));
  }
  for (; j < j1; ++j) {  // the last (j1 - j0) mod 4 cells, one at a time
    const std::size_t c = cell_at<kGather>(pass, j);
    const std::int8_t* cell = pass.cells + c * padded;
    std::int64_t dot = 0;
    for (std::size_t i0 = 0; i0 < padded; i0 += kI8Chunk) {
      const std::size_t i1 = std::min(padded, i0 + kI8Chunk);
      __m256i acc = _mm256_setzero_si256();
      for (std::size_t i = i0; i < i1; i += 32) {
        const __m256i q = _mm256_xor_si256(load_si256(pass.query + i), sign);
        acc = dpbusd(acc, q, load_si256(cell + i));
      }
      dot += hsum_epi32(acc);
    }
    const std::int64_t dist = pass.query_norm_sq + pass.cell_terms[c] - 2 * dot;
    keys[j] = (static_cast<std::uint64_t>(dist) << pass.index_bits) | c;
  }
}

// Pinned to a 64-byte boundary for the same reason as int8_prepass_avx2.
__attribute__((target("avx2,avx512vnni,avx512vl"), aligned(64))) void int8_prepass_avx512vnni(
    const Int8Prepass& pass, std::size_t j0, std::size_t j1, std::uint64_t* keys) {
  if (pass.usable != nullptr)
    int8_prepass_avx2(pass, j0, j1, keys);  // masked: the difference kernel
  else if (pass.cell_index != nullptr)
    int8_prepass_dot<true>(pass, j0, j1, keys);
  else
    int8_prepass_dot<false>(pass, j0, j1, keys);
}

/// Each 32-byte step sign-extends 32 levels to int16 and adds, per
/// basis row, 16 pair products (madd) into its int32 lanes.  Every lane
/// holds a partial sum of the row's |b| * |x| terms, which the caller
/// keeps below 2^31.
__attribute__((target("avx2"))) void int8_project_avx2(const std::int16_t* basis,
                                                       const std::int8_t* x, std::size_t padded,
                                                       std::int32_t* out) {
  __m256i acc[kBoundRank];
  for (__m256i& a : acc) a = _mm256_setzero_si256();
  for (std::size_t i = 0; i < padded; i += 32) {
    const __m256i v = load_si256(x + i);
    const __m256i lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(v));
    const __m256i hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(v, 1));
#pragma GCC unroll 8
    for (std::size_t t = 0; t < kBoundRank; ++t) {
      const std::int16_t* row = basis + t * padded + i;
      acc[t] = _mm256_add_epi32(acc[t], _mm256_add_epi32(_mm256_madd_epi16(load_si256(row), lo),
                                                         _mm256_madd_epi16(load_si256(row + 16), hi)));
    }
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), hsum4_epi32(acc[0], acc[1], acc[2], acc[3]));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4),
                   hsum4_epi32(acc[4], acc[5], acc[6], acc[7]));
}

/// Four int64 partial sums of one cell's N_j: the squares of the eight
/// int32 differences, even lanes and odd lanes multiplied separately
/// (vpmuldq reads the low, signed half of each 64-bit lane).
__attribute__((target("avx2"))) inline __m256i bound_partials(__m256i query,
                                                              const std::int32_t* cell) {
  const __m256i d = _mm256_sub_epi32(query, load_si256(cell));
  const __m256i odd = _mm256_srli_epi64(d, 32);
  return _mm256_add_epi64(_mm256_mul_epi32(d, d), _mm256_mul_epi32(odd, odd));
}

/// Four cells per round: their partial sums are folded into one N per
/// lane by two unpack-and-add steps and a cross-lane add.
__attribute__((target("avx2"))) void int8_bound_avx2(const Int8Bound& pass, std::size_t j0,
                                                     std::size_t j1, std::uint64_t* keys) {
  static_assert(kBoundRank == 8, "one 256-bit register per projected cell");
  const __m256i query = load_si256(pass.query);
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(pass.shift));
  const __m128i bits = _mm_cvtsi32_si128(static_cast<int>(pass.index_bits));
  std::size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    const std::int32_t* cell = pass.cells + j * kBoundRank;
    const __m256i a = bound_partials(query, cell);
    const __m256i b = bound_partials(query, cell + kBoundRank);
    const __m256i c = bound_partials(query, cell + 2 * kBoundRank);
    const __m256i d = bound_partials(query, cell + 3 * kBoundRank);
    // [a0+a1, b0+b1, a2+a3, b2+b3] and the same for c, d.
    const __m256i ab = _mm256_add_epi64(_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b));
    const __m256i cd = _mm256_add_epi64(_mm256_unpacklo_epi64(c, d), _mm256_unpackhi_epi64(c, d));
    const __m256i n = _mm256_add_epi64(_mm256_permute2x128_si256(ab, cd, 0x20),
                                       _mm256_permute2x128_si256(ab, cd, 0x31));
    const __m256i index = _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(j)),
                                           _mm256_setr_epi64x(0, 1, 2, 3));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + j),
                        _mm256_or_si256(_mm256_sll_epi64(_mm256_srl_epi64(n, shift), bits), index));
  }
  for (; j < j1; ++j) {  // the last (j1 - j0) mod 4 cells, one at a time
    const std::int32_t* cell = pass.cells + j * kBoundRank;
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < kBoundRank; ++t) {
      const std::int64_t diff = std::int64_t{pass.query[t]} - cell[t];
      total += static_cast<std::uint64_t>(diff * diff);
    }
    keys[j] = ((total >> pass.shift) << pass.index_bits) | j;
  }
}

constexpr KernelOps kAvx2Ops{KernelBackend::kAvx2, "avx2",
                             axpy_avx2,            hadamard_avx2,
                             int8_prepass_avx2,    int8_project_avx2,
                             int8_bound_avx2};

constexpr KernelOps kAvx512VnniOps{KernelBackend::kAvx512Vnni, "avx512vnni",
                                   axpy_avx2,                  hadamard_avx2,
                                   int8_prepass_avx512vnni,    int8_project_avx2,
                                   int8_bound_avx2};

}  // namespace

const KernelOps* detail_avx2_kernel_table() noexcept {
  return __builtin_cpu_supports("avx2") ? &kAvx2Ops : nullptr;
}

const KernelOps* detail_avx512vnni_kernel_table() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx512vnni") &&
                 __builtin_cpu_supports("avx512vl")
             ? &kAvx512VnniOps
             : nullptr;
}

#else  // TAFLOC_HAVE_AVX2_BACKEND not defined

const KernelOps* detail_avx2_kernel_table() noexcept { return nullptr; }
const KernelOps* detail_avx512vnni_kernel_table() noexcept { return nullptr; }

#endif

}  // namespace tafloc
