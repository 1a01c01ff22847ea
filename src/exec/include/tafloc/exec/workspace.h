// Workspace -- an arena of reusable Matrix / Vector buffers.
//
// Iterative solvers (LoLi-IR's CG matvecs and SVT's residual
// updates) need the same handful of temporaries on every
// iteration.  Allocating them fresh each time puts the allocator on the
// hot path and fragments the heap; a Workspace instead *leases* buffers
// out of a pool, shrinking each allocation profile to its first
// iteration.  Every lease is RAII: when the handle dies the buffer goes
// back to the pool (contents intact) and the next lease of a fitting
// size reuses it with zero heap traffic.
//
// The allocation counter is the verification hook: `allocations()`
// counts every time the pool had to create or grow a buffer, so a
// steady-state loop can assert that its per-iteration delta is zero
// (see LoliIrResult::workspace_allocations_steady).
//
// A Workspace is single-threaded by design: it belongs to the
// orchestrating thread of a solver; parallel kernels receive plain
// spans/matrices, never the workspace itself.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "tafloc/linalg/matrix.h"

namespace tafloc {

class Counter;
class Gauge;
class MetricRegistry;

class Workspace {
 public:
  /// With a non-null, enabled `telemetry`, the arena mirrors its
  /// activity into exec.workspace.* metrics (allocations and lease
  /// counters, pooled-bytes high-water gauge).  The registry handles
  /// are resolved once here, so instrumented leases cost one pointer
  /// test plus a relaxed add.
  explicit Workspace(MetricRegistry* telemetry = nullptr);
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// RAII handle to a leased buffer; releases it back to the pool on
  /// destruction.  Movable, not copyable.
  template <class T>
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : workspace_(other.workspace_), slot_(other.slot_), value_(other.value_) {
      other.workspace_ = nullptr;
      other.value_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (workspace_ != nullptr) workspace_->release(*this);
    }

    T& operator*() const noexcept { return *value_; }
    T* operator->() const noexcept { return value_; }
    T& get() const noexcept { return *value_; }

   private:
    friend class Workspace;
    Lease(Workspace* workspace, std::size_t slot, T* value) noexcept
        : workspace_(workspace), slot_(slot), value_(value) {}

    Workspace* workspace_;
    std::size_t slot_;
    T* value_;
  };

  using MatrixLease = Lease<Matrix>;
  using VectorLease = Lease<Vector>;

  /// Lease a rows x cols matrix, zero-filled (like a fresh
  /// Matrix(rows, cols)).  Reuses the best-fitting free buffer; only
  /// allocates when none has the capacity.
  MatrixLease matrix(std::size_t rows, std::size_t cols);

  /// Lease a length-n vector, zero-filled.
  VectorLease vector(std::size_t n);

  /// Number of times a lease had to allocate or grow heap storage.
  std::size_t allocations() const noexcept { return allocations_; }

  /// Number of currently outstanding leases.
  std::size_t outstanding() const noexcept { return outstanding_; }

  /// Buffers held in the pool (in use + free).
  std::size_t pooled_buffers() const noexcept {
    return matrix_slots_.size() + vector_slots_.size();
  }

  /// Heap bytes currently backing the pool's buffers (capacity, not
  /// live size) -- the value the bytes high-water gauge tracks.
  std::size_t pooled_bytes() const noexcept { return pooled_bytes_; }

 private:
  template <class T>
  struct Slot {
    T value;
    bool in_use = false;
  };

  void release(const MatrixLease& lease);
  void release(const VectorLease& lease);

  /// Account a capacity change of a pool buffer and refresh the gauge.
  void track_capacity(std::size_t before_elems, std::size_t after_elems);

  // unique_ptr slots keep leased addresses stable while the pool grows.
  std::vector<std::unique_ptr<Slot<Matrix>>> matrix_slots_;
  std::vector<std::unique_ptr<Slot<Vector>>> vector_slots_;
  std::size_t allocations_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t pooled_bytes_ = 0;

  // Telemetry mirrors (null when detached or disabled).
  Counter* allocations_counter_ = nullptr;
  Counter* leases_counter_ = nullptr;
  Gauge* bytes_gauge_ = nullptr;
};

}  // namespace tafloc
