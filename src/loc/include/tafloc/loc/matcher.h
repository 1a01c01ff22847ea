// Fingerprint matcher: estimate the target location by comparing a
// real-time RSS vector Y against the columns of the fingerprint matrix
// (paper section 2, last paragraph).
//
// KnnMatcher implements Localizer: the inverse-distance weighted
// centroid of the k nearest grids -- sub-grid ("fine-grained")
// estimates; with k = 1 it is a nearest-neighbour match.
//
// The matcher reads fingerprints through a ConstMatrixView, so it can
// either own its matrix (the Matrix constructor moves one in) or
// borrow the caller's storage zero-copy (the view constructor; the
// caller must keep that storage alive and unreallocated -- see view.h).
// Fault tolerance: the matcher optionally consults a LinkHealth mask
// (attach_link_health).  Dead links are excluded from the distance
// scan and the remaining sum is renormalized by the surviving link
// count, so distances stay on the full-deployment scale and the match
// degrades instead of aborting on a NaN from a dead link.  With no mask
// attached -- or a mask with every link usable -- the scan takes the
// exact pre-mask code path, so results are bit-identical to a maskless
// build.
//
// Two-tier scan: KnnMatcher can additionally attach a QuantizedTier
// (attach_quantized_tier).  Queries then rank every grid with an int8
// integer distance first and re-rank only a widened candidate prefix
// with the exact float distance; the quantization error bound drives the
// widening, so the served top-k (indices, distances, weights) is
// provably bit-identical to the full float scan -- the tier changes
// speed, never results.  See quantized.h and the proof sketch in
// matcher.cpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tafloc/fingerprint/link_health.h"
#include "tafloc/fingerprint/quantized.h"
#include "tafloc/linalg/matrix.h"
#include "tafloc/loc/localizer.h"
#include "tafloc/sim/grid.h"

namespace tafloc {

class Counter;
class Histogram;
class MetricRegistry;

/// Per-query diagnostics of one KNN match, filled by
/// KnnMatcher::localize(rss, &stats) for the degraded serving path.
struct MatchStats {
  std::size_t links_used = 0;    ///< links contributing to the distance scan.
  std::size_t gated_out = 0;     ///< neighbours dropped by the spatial gate.
  bool centroid_fallback = false;  ///< weight sum degenerated; anchor returned.
};

/// Owning-or-borrowed fingerprint matrix: adopts a Matrix, or borrows a
/// caller-owned view.  Copies re-point the view at the copied storage;
/// moves keep it valid because std::vector moves preserve the heap
/// pointer.
class FingerprintRef {
 public:
  FingerprintRef() = default;
  explicit FingerprintRef(Matrix owned) : storage_(std::move(owned)), view_(storage_.view()) {}
  explicit FingerprintRef(ConstMatrixView borrowed) noexcept : view_(borrowed) {}

  FingerprintRef(const FingerprintRef& other)
      : storage_(other.storage_), view_(other.owning() ? storage_.view() : other.view_) {}
  FingerprintRef& operator=(const FingerprintRef& other) {
    if (this != &other) {
      storage_ = other.storage_;
      view_ = other.owning() ? storage_.view() : other.view_;
    }
    return *this;
  }
  FingerprintRef(FingerprintRef&&) noexcept = default;
  FingerprintRef& operator=(FingerprintRef&&) noexcept = default;

  ConstMatrixView view() const noexcept { return view_; }
  bool owning() const noexcept { return !storage_.empty(); }

 private:
  Matrix storage_;
  ConstMatrixView view_;
};

/// k-nearest-neighbour matcher with inverse-distance weighting and a
/// spatial gate: fingerprint-space neighbours are only averaged into
/// the estimate if they are also spatially near the best match --
/// fingerprint collisions between far-apart cells would otherwise pull
/// the centroid to nowhere.
class KnnMatcher : public Localizer {
 public:
  /// k must be in [1, N].  With weighted == false the plain centroid of
  /// the surviving grid centres is returned.  spatial_gate_m <= 0
  /// disables the gate.
  KnnMatcher(Matrix fingerprints, GridMap grid, std::size_t k, bool weighted = true,
             double spatial_gate_m = 1.0);
  /// Borrowing variant: the viewed storage must outlive the matcher.
  KnnMatcher(ConstMatrixView fingerprints, GridMap grid, std::size_t k, bool weighted = true,
             double spatial_gate_m = 1.0);

  Point2 localize(std::span<const double> rss) const override;
  /// localize() that also reports per-query diagnostics (spatial-gate
  /// drops, link count, centroid fallback); stats may be nullptr.
  Point2 localize(std::span<const double> rss, MatchStats* stats) const;
  std::string name() const override;

  /// Consult `health` (not owned; must outlive the matcher) when
  /// scanning: dead links are skipped and the distance renormalized by
  /// the surviving link count.  nullptr detaches (strict contract).
  void attach_link_health(const LinkHealth* health) noexcept { health_ = health; }

  /// Use `tier` (not owned; must outlive the matcher) as the scan's
  /// first pass: an int8 integer distance ranks every grid, then the k
  /// nearest are re-ranked with the exact float distance over a widened
  /// candidate set.  The widening is driven by the tier's quantization
  /// error bound, so the returned top-k -- indices AND distances, hence
  /// the inverse-distance weights -- is PROVABLY identical to the full
  /// float scan (the re-rank keeps doubling the candidate set until the
  /// bound certifies it, degenerating to the full exact scan in the
  /// worst case).  A tier that is not ready() or whose shape disagrees
  /// with the fingerprint view is ignored for that query -- faults and
  /// mid-update windows fall back to the float path, never abort.
  /// nullptr detaches (pure float scan, the pre-refactor behaviour).
  void attach_quantized_tier(const QuantizedTier* tier) noexcept { quantized_ = tier; }

  /// True when the next query would take the quantized pre-pass.
  bool quantized_active() const noexcept {
    return quantized_ != nullptr && quantized_->ready() &&
           quantized_->num_links() == fingerprints_.view().rows() &&
           quantized_->num_grids() == fingerprints_.view().cols();
  }

  /// Initial re-rank candidate budget, as a multiple of k (candidates =
  /// max(k * alpha, k + 8), capped at N).  Larger alpha means fewer
  /// widening rounds on noisy data at the cost of more exact distance
  /// evaluations per query.  alpha must be >= 1; results never depend
  /// on it (the widening proof does not either), only the speed does.
  void set_rerank_multiplier(std::size_t alpha);

  /// One ranked grid: its exact squared distance (mask-scaled) and index.
  struct Neighbor {
    double dist;
    std::size_t index;
  };

  /// Indices of the k best-matching grids, best first (for tests).
  std::vector<std::size_t> nearest_grids(std::span<const double> rss) const;

  /// Process-wide count of per-query scratch (re)allocations: the
  /// distance/order buffers are thread_local and grow monotonically, so
  /// after a warm-up query this counter stays flat -- the Workspace-
  /// style proof that localize() performs zero heap allocations.
  static std::size_t scratch_allocations() noexcept;

  /// Point loc.knn.* metrics at `registry` (per-query latency
  /// histogram, query counters, scratch-allocation mirror).  The
  /// metric handles are resolved once here -- the per-query path does a
  /// clock read plus relaxed atomics, never a registry lookup.  nullptr
  /// or a disabled registry detaches (zero overhead, same results).
  void attach_telemetry(MetricRegistry* registry);

 private:
  /// Scan + partial sort into the thread-local scratch; returns the k
  /// best grids, best first (a span into that scratch, valid until the
  /// next call on this thread).
  std::span<const Neighbor> nearest_in_scratch(std::span<const double> rss) const;

  FingerprintRef fingerprints_;
  GridMap grid_;
  std::size_t k_;
  bool weighted_;
  double spatial_gate_m_;
  const LinkHealth* health_ = nullptr;
  const QuantizedTier* quantized_ = nullptr;
  std::size_t rerank_alpha_ = 4;

  // Telemetry handles (all null when detached; see attach_telemetry).
  MetricRegistry* telemetry_ = nullptr;
  Histogram* query_hist_ = nullptr;
  Counter* query_counter_ = nullptr;
  Counter* scratch_alloc_counter_ = nullptr;
  Counter* gated_counter_ = nullptr;
  Counter* fallback_counter_ = nullptr;
  Counter* prepass_counter_ = nullptr;
  Counter* widen_counter_ = nullptr;
  Counter* bound_cells_counter_ = nullptr;
  Counter* bound_raise_counter_ = nullptr;
  Counter* bound_fallback_counter_ = nullptr;
};

}  // namespace tafloc
