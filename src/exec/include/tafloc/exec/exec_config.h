// Execution settings shared by every parallel kernel in the library: the
// worker thread count of the global ThreadPool that the linalg / recon /
// loc kernels draw from (set_global_threads, or the TAFLOC_THREADS
// environment variable), and the KernelBackend the linalg hot paths
// dispatch to (linalg/backend.h).
//
// Determinism contract: every parallel kernel in this library
// partitions work so that the floating-point operation order of each
// output element is independent of the thread count, so results are
// bit-identical at threads = 1, 4 or 64.  threads = 1 additionally runs
// the exact sequential code paths (no pool involvement at all).
#pragma once

#include <cstddef>
#include <cstdint>

namespace tafloc {

/// Which implementation table the linalg hot-path kernels dispatch to
/// (see linalg/backend.h for the table itself and the resolution
/// rules).  An execution knob, not a numerics knob: every backend is
/// bit-identical to the scalar reference on the same inputs.
enum class KernelBackend : std::uint8_t {
  kAuto = 0,        ///< TAFLOC_KERNEL_BACKEND env if set, else best supported.
  kScalar = 1,      ///< portable reference kernels (any CPU).
  kAvx2 = 2,        ///< AVX2 vector kernels (requires runtime CPU support).
  kAvx512Vnni = 3,  ///< AVX2 plus a VNNI int8 pre-pass (needs avx512vnni + avx512vl).
};

/// Turn a worker thread request into a concrete count >= 1.  0 means
/// automatic: the TAFLOC_THREADS environment variable if set, otherwise
/// std::thread::hardware_concurrency().  1 is the fully sequential
/// legacy behaviour (bit-identical to the pre-exec-layer code).
std::size_t resolve_thread_count(std::size_t requested = 0);

/// Resize the process-global pool (see ThreadPool::global()).  0 uses
/// the same automatic resolution as resolve_thread_count.  Not safe to
/// call while parallel kernels are running on other threads.
void set_global_threads(std::size_t threads);

/// Current size of the process-global pool.
std::size_t global_thread_count();

}  // namespace tafloc
