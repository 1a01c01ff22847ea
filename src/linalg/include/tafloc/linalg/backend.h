// Pluggable kernel backends for the linalg hot paths.
//
// Every `*_into` kernel in matrix.cpp keeps its own loop structure (the
// blocking, the parallel partitioning, the zero-skips) and dispatches
// only its innermost row primitive through the process-wide KernelOps
// table below.  Three tables ship:
//
//   scalar     -- portable reference loops; runs on any CPU.
//   avx2       -- AVX2 vector loops, selected at runtime via
//                 __builtin_cpu_supports("avx2"); compiled with GCC/Clang
//                 function target attributes, so no special build flags
//                 are needed and non-x86 builds simply never offer it.
//   avx512vnni -- the avx2 table's axpy/hadamard, masked pre-pass,
//                 projection and bound pass, plus an unmasked pre-pass
//                 that scores cells as one vpdpbusd dot product per 32
//                 bytes; offered when the CPU reports avx512vnni and
//                 avx512vl.
//
// Bit-identity contract (the reason this file is small): a backend may
// only vectorize a primitive when every output element's floating-point
// operation sequence is EXACTLY the scalar reference's.
//
//   * axpy (y[j] += a * x[j]) and hadamard (out[j] = a[j] * b[j]) are
//     element-wise over the output index: lanes never share an
//     accumulator, and the AVX2 code uses separate multiply and add
//     instructions (never FMA -- a fused contraction rounds once where
//     mul+add rounds twice, which would break scalar/AVX2 identity).
//   * The int8 pre-pass, the projection and the bound pass are exact
//     integer arithmetic, so any summation order -- and any exact
//     identity for the same integer -- gives the same answer.
//   * Dot-product reductions (matrix-vector multiply, outer_product)
//     CANNOT be vectorized under this contract -- SIMD lane partial
//     sums reorder the accumulation -- so they stay scalar in every
//     backend and are not in this table.
//
// Selection: `TAFLOC_KERNEL_BACKEND` (scalar | avx2 | avx512vnni | auto)
// or set_kernel_backend(); kAuto picks the best supported table, in the
// order avx512vnni, avx2, scalar.  Forcing kScalar reproduces the
// pre-backend results bit-for-bit -- CI runs the whole test suite that
// way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tafloc/exec/exec_config.h"

namespace tafloc {

/// The operands of one query's int8 pre-pass over a grid-major tier.
///
/// An unmasked pass may score cell j in dot form,
///
///   d_j = query_norm_sq + cell_terms[j] - 2 * <query + 128, cell_j>,
///
/// which is sum_i (query[i] - cell_j[i])^2 exactly: expand the square,
/// and the 128 * sum_i cell_j[i] that the shifted query adds to the dot
/// product is folded into int8_cell_term.  The +128 makes every query
/// byte unsigned, the operand form of an unsigned-by-signed byte dot
/// instruction.
struct Int8Prepass {
  const std::int8_t* query = nullptr;    ///< `padded` bytes, pad bytes 0.
  const std::uint8_t* usable = nullptr;  ///< `padded` bytes (0 = dead), or nullptr: all usable.
  const std::int8_t* cells = nullptr;    ///< cell j at cells + j * padded.
  std::size_t padded = 0;                ///< bytes per cell, a multiple of 32.
  unsigned index_bits = 0;               ///< low key bits holding the cell index.
  /// int8_cell_term of cell j at cell_terms[j]; required when usable is
  /// nullptr (a table may score the unmasked pass in dot form).
  const std::int64_t* cell_terms = nullptr;
  std::int64_t query_norm_sq = 0;  ///< sum_i query[i]^2 over the padded bytes.
  /// The gather form, unmasked passes only: position p scores cell
  /// cell_index[p] and writes its key at keys[p].  nullptr: position p
  /// is cell p.
  const std::size_t* cell_index = nullptr;
};

/// Rank of the integer projection that bounds the int8 distance from
/// below (see Int8Bound): values per projected vector.
inline constexpr std::size_t kBoundRank = 8;

/// The operands of one query's bound pass over a projected tier.  With
/// B the tier's kBoundRank x padded int16 basis, query = B q and cell j's
/// projection at cells + j * kBoundRank is P_j = B c_j, so
///
///   N_j = || B q - P_j ||^2 = || B (q - c_j) ||^2 <= kappa * D_j,
///
/// where D_j is the pre-pass distance sum_i (q_i - c_ji)^2 and kappa
/// bounds the largest eigenvalue of B B^T (QuantizedTier checks that
/// every value involved fits its type).  The inequality holds for any
/// B; the basis only decides how tight it is.
struct Int8Bound {
  const std::int32_t* query = nullptr;  ///< kBoundRank values, B q.
  const std::int32_t* cells = nullptr;  ///< cell j at cells + j * kBoundRank.
  unsigned shift = 0;                   ///< low bits of N_j dropped from the key.
  unsigned index_bits = 0;              ///< low key bits holding the cell index.
};

/// The per-cell term of the dot-form pre-pass: sum_i c[i]^2 + 256 *
/// sum_i c[i] over one cell's `padded` bytes.  The quantized tier
/// stores one per cell; this is the only place the formula lives.
std::int64_t int8_cell_term(const std::int8_t* cell, std::size_t padded) noexcept;

/// The dispatch table: one row primitive per hot inner loop.
struct KernelOps {
  KernelBackend id = KernelBackend::kScalar;
  const char* name = "scalar";

  /// y[j] += a * x[j] for j in [0, n).  The gemm / gram / transposed
  /// matvec / add_scaled inner loop.  x and y must not alias.
  void (*axpy)(double a, const double* x, double* y, std::size_t n);

  /// out[j] = a[j] * b[j] for j in [0, n).
  void (*hadamard)(const double* a, const double* b, double* out, std::size_t n);

  /// The quantized fingerprint pre-pass over cells [j0, j1): for each
  /// cell j, keys[j] = (d_j << index_bits) | j, where d_j is the exact
  /// sum over links i of (query[i] - cell_j[i])^2, skipping links with
  /// usable[i] == 0.  The caller guarantees that j fits index_bits and
  /// that the shifted distance fits 64 bits (QuantizedTier checks both).
  /// scalar and avx2 score every pass as squared differences;
  /// avx512vnni scores unmasked passes in dot form (Int8Prepass) and
  /// masked ones as avx2 does.  Every table writes the same keys.
  /// In the gather form (pass.cell_index set) [j0, j1) are positions of
  /// the index list: keys[p] = (d_c << index_bits) | c, c = cell_index[p].
  void (*int8_prepass)(const Int8Prepass& pass, std::size_t j0, std::size_t j1,
                       std::uint64_t* keys);

  /// out[t] = sum_i basis[t * padded + i] * x[i] for t < kBoundRank: one
  /// int8 vector projected by a kBoundRank x padded int16 basis.  The
  /// caller guarantees 127 * (the largest row sum of |basis|) < 2^31,
  /// so no partial sum overflows.
  void (*int8_project)(const std::int16_t* basis, const std::int8_t* x, std::size_t padded,
                       std::int32_t* out);

  /// The bound pass over cells [j0, j1): keys[j] = ((N_j >> shift) <<
  /// index_bits) | j with N_j as in Int8Bound.  The caller guarantees
  /// that every difference B q - P_j fits int32 and every shifted key
  /// fits 64 bits.
  void (*int8_bound)(const Int8Bound& pass, std::size_t j0, std::size_t j1,
                     std::uint64_t* keys);
};

/// True when this CPU can run the AVX2 table (always false on non-x86
/// builds).
bool cpu_supports_avx2() noexcept;

/// Every backend this CPU can run, scalar first and the one kAuto picks
/// last: avx2 needs AVX2, avx512vnni needs AVX2, avx512vnni and
/// avx512vl (neither on non-x86 builds).
std::vector<KernelBackend> supported_kernel_backends();

/// Turn a backend request into a concrete choice: kAuto consults the
/// TAFLOC_KERNEL_BACKEND environment variable (scalar | avx2 |
/// avx512vnni | auto; unset or empty means auto) and falls back to the
/// best supported table.  Throws std::invalid_argument when the request
/// (explicit or from the environment) names an unsupported or unknown
/// backend.
KernelBackend resolve_kernel_backend(KernelBackend requested = KernelBackend::kAuto);

/// Install the process-wide dispatch table (kAuto re-runs the automatic
/// resolution).  Cheap atomic store; callers running concurrent kernels
/// may observe either table mid-switch -- both produce identical bits.
void set_kernel_backend(KernelBackend requested);

/// The backend currently installed (resolving lazily on first use).
KernelBackend active_kernel_backend() noexcept;

const char* kernel_backend_name(KernelBackend backend) noexcept;

/// The active dispatch table (resolving lazily on first use).
const KernelOps& kernel_ops() noexcept;

/// A specific table, for tests that compare backends side by side.
/// Throws std::invalid_argument for kAuto or an unsupported backend.
const KernelOps& kernel_ops(KernelBackend backend);

}  // namespace tafloc
