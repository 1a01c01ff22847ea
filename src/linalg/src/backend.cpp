#include "tafloc/linalg/backend.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "tafloc/util/check.h"

namespace tafloc {

/// The AVX2 and AVX-512 VNNI tables, or nullptr when this build/CPU
/// cannot run them (defined in backend_avx2.cpp so the vector
/// intrinsics live in one translation unit).
const KernelOps* detail_avx2_kernel_table() noexcept;
const KernelOps* detail_avx512vnni_kernel_table() noexcept;

namespace {

// ---------------- scalar reference kernels ----------------
//
// These loops ARE the semantics: every other backend must reproduce
// their per-element operation order bit-for-bit.

void axpy_scalar(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
}

void hadamard_scalar(const double* a, const double* b, double* out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = a[j] * b[j];
}

template <bool kMasked>
void int8_prepass_scalar_impl(const Int8Prepass& pass, std::size_t j0, std::size_t j1,
                              std::uint64_t* keys) {
  const std::int8_t* query = pass.query;
  const std::size_t padded = pass.padded;
  for (std::size_t p = j0; p < j1; ++p) {
    const std::size_t j = pass.cell_index != nullptr ? pass.cell_index[p] : p;
    const std::int8_t* cell = pass.cells + j * padded;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < padded; ++i) {
      if (kMasked && pass.usable[i] == 0) continue;
      const std::int32_t d = static_cast<std::int32_t>(query[i]) - cell[i];
      total += static_cast<std::uint64_t>(d * d);
    }
    keys[p] = (total << pass.index_bits) | j;
  }
}

/// The mask test is hoisted out of the loops so the unmasked loop
/// vectorizes.
void int8_prepass_scalar(const Int8Prepass& pass, std::size_t j0, std::size_t j1,
                         std::uint64_t* keys) {
  if (pass.usable == nullptr)
    int8_prepass_scalar_impl<false>(pass, j0, j1, keys);
  else
    int8_prepass_scalar_impl<true>(pass, j0, j1, keys);
}

void int8_project_scalar(const std::int16_t* basis, const std::int8_t* x, std::size_t padded,
                         std::int32_t* out) {
  for (std::size_t t = 0; t < kBoundRank; ++t) {
    const std::int16_t* row = basis + t * padded;
    std::int32_t total = 0;
    for (std::size_t i = 0; i < padded; ++i) total += std::int32_t{row[i]} * x[i];
    out[t] = total;
  }
}

void int8_bound_scalar(const Int8Bound& pass, std::size_t j0, std::size_t j1,
                       std::uint64_t* keys) {
  for (std::size_t j = j0; j < j1; ++j) {
    const std::int32_t* cell = pass.cells + j * kBoundRank;
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < kBoundRank; ++t) {
      const std::int64_t d = std::int64_t{pass.query[t]} - cell[t];
      total += static_cast<std::uint64_t>(d * d);
    }
    keys[j] = ((total >> pass.shift) << pass.index_bits) | j;
  }
}

constexpr KernelOps kScalarOps{KernelBackend::kScalar, "scalar",
                               axpy_scalar,            hadamard_scalar,
                               int8_prepass_scalar,    int8_project_scalar,
                               int8_bound_scalar};

const KernelOps* avx2_table() { return detail_avx2_kernel_table(); }
const KernelOps* avx512vnni_table() { return detail_avx512vnni_kernel_table(); }

/// The process-wide selection.  nullptr = not resolved yet; the first
/// kernel_ops() call resolves kAuto (environment + CPU detection) once
/// and caches the winner.
std::atomic<const KernelOps*> g_active{nullptr};

KernelBackend env_backend_request() {
  const char* env = std::getenv("TAFLOC_KERNEL_BACKEND");
  if (env == nullptr || *env == '\0') return KernelBackend::kAuto;
  const std::string value(env);
  if (value == "auto") return KernelBackend::kAuto;
  if (value == "scalar") return KernelBackend::kScalar;
  if (value == "avx2") return KernelBackend::kAvx2;
  if (value == "avx512vnni") return KernelBackend::kAvx512Vnni;
  throw std::invalid_argument("TAFLOC_KERNEL_BACKEND='" + value +
                              "' is not one of auto | scalar | avx2 | avx512vnni");
}

const KernelOps* table_for(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return &kScalarOps;
    case KernelBackend::kAvx2:
      return avx2_table();
    case KernelBackend::kAvx512Vnni:
      return avx512vnni_table();
    case KernelBackend::kAuto:
      break;
  }
  return nullptr;
}

}  // namespace

std::int64_t int8_cell_term(const std::int8_t* cell, std::size_t padded) noexcept {
  std::int64_t term = 0;
  for (std::size_t i = 0; i < padded; ++i) term += std::int64_t{cell[i]} * (cell[i] + 256);
  return term;
}

bool cpu_supports_avx2() noexcept { return avx2_table() != nullptr; }

std::vector<KernelBackend> supported_kernel_backends() {
  std::vector<KernelBackend> backends{KernelBackend::kScalar};
  if (cpu_supports_avx2()) backends.push_back(KernelBackend::kAvx2);
  if (avx512vnni_table() != nullptr) backends.push_back(KernelBackend::kAvx512Vnni);
  return backends;
}

KernelBackend resolve_kernel_backend(KernelBackend requested) {
  if (requested == KernelBackend::kAuto) {
    requested = env_backend_request();
    if (requested == KernelBackend::kAuto) return supported_kernel_backends().back();
  }
  if (table_for(requested) == nullptr)
    throw std::invalid_argument(std::string("kernel backend '") +
                                kernel_backend_name(requested) +
                                "' is not supported on this CPU/build");
  return requested;
}

void set_kernel_backend(KernelBackend requested) {
  const KernelOps* table = table_for(resolve_kernel_backend(requested));
  TAFLOC_CHECK_ARG(table != nullptr, "resolved kernel backend has no dispatch table");
  g_active.store(table, std::memory_order_release);
}

const KernelOps& kernel_ops() noexcept {
  const KernelOps* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // First use: resolve the automatic selection.  A malformed
    // TAFLOC_KERNEL_BACKEND value aborts via the argument check rather
    // than silently running a backend the operator did not ask for.
    try {
      table = table_for(resolve_kernel_backend(KernelBackend::kAuto));
    } catch (const std::invalid_argument&) {
      table = &kScalarOps;  // unreachable for env values naming real backends
    }
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

const KernelOps& kernel_ops(KernelBackend backend) {
  const KernelOps* table = table_for(backend);
  if (table == nullptr)
    throw std::invalid_argument(std::string("kernel backend '") + kernel_backend_name(backend) +
                                "' is not available");
  return *table;
}

KernelBackend active_kernel_backend() noexcept { return kernel_ops().id; }

const char* kernel_backend_name(KernelBackend backend) noexcept {
  switch (backend) {
    case KernelBackend::kAuto:
      return "auto";
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kAvx512Vnni:
      return "avx512vnni";
  }
  return "unknown";
}

}  // namespace tafloc
