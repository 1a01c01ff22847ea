#include "tafloc/loc/matcher.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>

#include "tafloc/exec/thread_pool.h"
#include "tafloc/linalg/backend.h"
#include "tafloc/linalg/vector_ops.h"
#include "tafloc/telemetry/metrics.h"
#include "tafloc/telemetry/trace.h"
#include "tafloc/util/check.h"

namespace tafloc {

namespace {

void validate_shapes(ConstMatrixView fingerprints, const GridMap& grid) {
  TAFLOC_CHECK_ARG(!fingerprints.empty(), "fingerprint matrix must be non-empty");
  TAFLOC_CHECK_ARG(fingerprints.cols() == grid.num_cells(),
                   "fingerprint matrix must have one column per grid cell");
}

/// The links a scan reads: `usable` empty means every link, else only
/// links with usable[i] != 0 count and the partial sum is rescaled by
/// `scale` = total / usable, so distances stay on the same scale as a
/// full scan (the inverse-distance weights and the spatial gate then
/// behave consistently as links die).
struct ScanMask {
  std::span<const std::uint8_t> usable;
  double scale = 1.0;
};

/// The one exact-distance routine: the squared Euclidean distance from
/// the observation to fingerprint column col_of(c), for c in [0, count),
/// handed to emit(c, distance) in ascending c.
///
/// Row-ordered: each block of columns is swept one link row at a time
/// (rows are contiguous in memory, columns are strided), but every
/// column keeps its own accumulator.  Each distance is therefore still
/// 0.0 + d_0^2 + d_1^2 + ... over ascending links i, dead links skipped,
/// one rounding per multiply and one per add, the mask scale applied
/// last -- the same operations in the same order as walking the column
/// alone, so the same bits.  Vector lanes may run across columns, never
/// within one column's sum (and there is no FMA to fuse the two
/// roundings: the build targets baseline ISA in strict ISO mode).
template <class ColOf, class Emit>
void column_distances_sq(ConstMatrixView fp, std::span<const double> rss, const ScanMask& mask,
                         std::size_t count, ColOf col_of, Emit emit) {
  constexpr std::size_t kBlock = 128;
  double acc[kBlock];
  for (std::size_t c0 = 0; c0 < count; c0 += kBlock) {
    const std::size_t width = std::min(kBlock, count - c0);
    std::fill_n(acc, width, 0.0);
    for (std::size_t i = 0; i < fp.rows(); ++i) {
      if (!mask.usable.empty() && mask.usable[i] == 0) continue;
      const double y = rss[i];
      const double* row = fp.row_ptr(i);
      for (std::size_t c = 0; c < width; ++c) {
        const double d = y - row[col_of(c0 + c)];
        acc[c] += d * d;
      }
    }
    for (std::size_t c = 0; c < width; ++c)
      emit(c0 + c, mask.usable.empty() ? acc[c] : acc[c] * mask.scale);
  }
}

/// Column index functor for a contiguous range of columns.
struct ColumnRange {
  std::size_t first;
  std::size_t operator()(std::size_t c) const noexcept { return first + c; }
};

/// Resolve the mask for one query: nullptr when the scan can take the
/// exact unmasked code path (no health attached, or every link usable),
/// so the all-healthy case stays bit-identical to a maskless build.
const LinkHealth* active_mask(const LinkHealth* health, ConstMatrixView fp) {
  if (health == nullptr || health->all_usable()) return nullptr;
  TAFLOC_CHECK_ARG(health->num_links() == fp.rows(),
                   "link health mask must have one entry per link");
  TAFLOC_CHECK_ARG(health->usable_count() > 0, "no usable links left to match against");
  return health;
}

/// The ScanMask of a resolved mask (nullptr: every link, no rescale).
ScanMask scan_mask(const LinkHealth* mask, std::size_t links) {
  if (mask == nullptr) return {};
  return {mask->usable_bytes(),
          static_cast<double>(links) / static_cast<double>(mask->usable_count())};
}

/// Finite check restricted to usable links: a NaN parked on a dead link
/// is exactly the fault the mask exists for, not a contract violation.
bool usable_entries_finite(std::span<const double> rss, std::span<const std::uint8_t> usable) {
  for (std::size_t i = 0; i < rss.size(); ++i)
    if (usable[i] != 0 && !std::isfinite(rss[i])) return false;
  return true;
}

/// The observation contract of the scan under a resolved mask.
void check_observation(std::span<const double> rss, const LinkHealth* mask) {
  if (mask == nullptr) {
    TAFLOC_CHECK_ARG(all_finite(rss), "observation contains non-finite values");
  } else {
    TAFLOC_CHECK_ARG(usable_entries_finite(rss, mask->usable_bytes()),
                     "observation contains non-finite values on usable links");
  }
}

using Neighbor = KnnMatcher::Neighbor;

/// Per-thread KNN scratch: the ranked grids (every grid on the float
/// scan, the re-ranked candidates on the two-tier scan) plus the
/// quantized pre-pass buffers (query levels, padded mask, per-link
/// residuals, packed keys) and the bound search's (bound keys, the
/// cells whose exact keys it computes next).  thread_local so matchers
/// queried from several threads never contend; grows monotonically, so
/// queries after the first on a thread allocate nothing.
struct KnnScratch {
  std::vector<Neighbor> ranked;
  std::vector<std::int8_t> qvalues;
  std::vector<std::uint8_t> qmask;
  std::vector<double> qresidual;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> bound_keys;
  std::vector<std::size_t> bound_cells;
};

KnnScratch& knn_scratch() {
  thread_local KnnScratch s;
  return s;
}

/// Reserve room for `size` elements; true when that allocated.
template <class T>
bool reserve_scratch(std::vector<T>& v, std::size_t size) {
  if (v.capacity() >= size) return false;
  v.reserve(size);
  return true;
}

/// The (distance, index) order of both scans: index breaks exact ties,
/// since duplicate fingerprint columns produce exactly equal distances
/// and std::partial_sort is not stable.
bool closer(const Neighbor& a, const Neighbor& b) {
  return a.dist != b.dist ? a.dist < b.dist : a.index < b.index;
}

/// Process-wide scratch-allocation count.  A telemetry Counter rather
/// than a raw atomic: the static accessor stays a thin value() read,
/// and attached per-matcher registries mirror the same increments into
/// their own loc.knn.scratch_allocations series.
Counter& knn_scratch_allocation_counter() {
  static Counter counter;
  return counter;
}

/// Largest candidate block selected with a heap (see select_smallest):
/// at 1 600 cells partial_sort takes 3.8 us for 12 keys and 12.5 us
/// for 48, nth_element 10-11 us for either.
constexpr std::size_t kHeapSelectMax = 32;

/// Spare keys past n, so a key buffer can start on a 64-byte line.
constexpr std::size_t kKeySlack = 64 / sizeof(std::uint64_t) - 1;

/// n keys of `buffer` from its first 64-byte line: the kernels store
/// four keys (32 bytes) at a time, and no store then splits a line.
std::uint64_t* aligned_keys(std::vector<std::uint64_t>& buffer, std::size_t n) {
  buffer.resize(n + kKeySlack);
  void* line = buffer.data();
  std::size_t room = buffer.size() * sizeof(std::uint64_t);
  return static_cast<std::uint64_t*>(std::align(64, n * sizeof(std::uint64_t), line, room));
}

/// keys[done, m) <- the m - done smallest of keys[done, end), their
/// largest at m - 1; their order among themselves is irrelevant, the
/// exact re-rank orders them.  A heap selection (partial_sort) beats
/// nth_element's partitioning passes only while the block is small.
void select_smallest(std::uint64_t* keys, std::size_t done, std::size_t m, std::size_t end) {
  if (m - done <= kHeapSelectMax)
    std::partial_sort(keys + done, keys + m, keys + end);
  else
    std::nth_element(keys + done, keys + m - 1, keys + end);
}

/// The loc.knn.* counters a two-tier query adds to (each may be null).
struct ScanCounters {
  Counter* widenings = nullptr;
  Counter* cells = nullptr;
  Counter* raises = nullptr;
  Counter* fallbacks = nullptr;
};

/// The unmasked scan's survivor set under the tier's projection bound
/// (quantized.h): S(U) = {j : N_j <= kappa * U}, kept as its cells'
/// exact keys in keys[0, |S|).  N_j <= kappa * D_j for every cell, so
/// every cell outside S(U) has D_j > U -- its bytes are never read.
///
/// certify() hands the scan the same candidate prefix the full pre-pass
/// would: if the m smallest keys of S have largest distance d <= U,
/// every cell outside S lies beyond them, so they are the m smallest of
/// all cells.  If d > U it raises U to d and grows S, after which the
/// test holds (the old m keys are all still in S and at most d).
class BoundSearch {
 public:
  BoundSearch(const QuantizedTier& tier, const Int8Prepass& pass, std::uint64_t* keys,
              KnnScratch& s)
      : tier_(tier),
        pass_(pass),
        n_(tier.num_grids()),
        quarter_(n_ / 4),
        index_bits_(tier.key_index_bits()),
        index_mask_((std::uint64_t{1} << index_bits_) - 1),
        keys_(keys),
        bound_keys_(aligned_keys(s.bound_keys, n_)) {
    s.bound_cells.resize(quarter_ + 1);  // S never passes a quarter of the cells
    cells_ = s.bound_cells.data();
    pass_.cell_index = cells_;
  }

  /// The bound pass over every cell, then certify(0, m).  False when S
  /// would pass a quarter of the cells.
  bool start(std::size_t m) {
    if (m > quarter_) return false;
    const KernelOps& ops = kernel_ops();
    ops.int8_project(tier_.projection_basis().data(), pass_.query, pass_.padded, query_);
    const Int8Bound bound{query_, tier_.cell_projection(0), tier_.bound_shift(), index_bits_};
    const std::size_t grain = (std::size_t{1} << 15) / (kBoundRank * sizeof(std::int32_t));
    ThreadPool::global().parallel_for(0, n_, grain, [&](std::size_t j0, std::size_t j1) {
      ops.int8_bound(bound, j0, j1, bound_keys_);
    });
    return certify(0, m);
  }

  /// keys[done, m) <- the m - done smallest keys of all cells outside
  /// the prefix keys[0, done) (which holds the done smallest), their
  /// largest at m - 1.  False when S would pass a quarter of the cells.
  bool certify(std::size_t done, std::size_t m) {
    if (m > quarter_) return false;
    while (true) {
      if (size_ < m && !cover(m)) return false;
      select_smallest(keys_, done, m, size_);
      const std::uint64_t d = keys_[m - 1] >> index_bits_;
      if (d <= u_) return true;
      ++raises_;
      if (!grow(d)) return false;
    }
  }

  std::size_t computed() const noexcept { return computed_; }
  std::size_t raises() const noexcept { return raises_; }

 private:
  /// Grow S to at least m cells: U rises to the largest distance among
  /// the m cells of smallest bound, all of which S(U) then holds.  The
  /// keys of those S lacked join it as they are, so grow() skips them.
  bool cover(std::size_t m) {
    select_smallest(bound_keys_, 0, m, n_);
    for (std::size_t p = 0; p < m; ++p) cells_[p] = bound_keys_[p] & index_mask_;
    std::uint64_t* fresh = keys_ + size_;  // free: size_ < m <= n / 4
    exact_keys(m, fresh);
    std::uint64_t u = u_;
    std::size_t added = 0;
    for (std::size_t p = 0; p < m; ++p) {
      u = std::max(u, fresh[p] >> index_bits_);
      if (bound_keys_[p] >= limit_) fresh[added++] = fresh[p];
    }
    size_ += added;
    return size_ <= quarter_ && grow(u, m);
  }

  /// S(U) -> S(u) for u >= U: exact keys for the cells whose bound key
  /// lies in [limit_, limit), from bound_keys_[from, n) on, appended to
  /// S's.
  bool grow(std::uint64_t u, std::size_t from = 0) {
    const std::uint64_t bound = (tier_.projection_kappa() * u) >> tier_.bound_shift();
    const std::uint64_t limit = ((bound << index_bits_) | index_mask_) + 1;
    std::size_t count = 0;
    for (std::size_t j = from; j < n_; ++j) {
      const std::uint64_t key = bound_keys_[j];
      if (key < limit_ || key >= limit) continue;
      if (size_ + count == quarter_) return false;
      cells_[count++] = key & index_mask_;
    }
    exact_keys(count, keys_ + size_);
    size_ += count;
    limit_ = limit;
    u_ = u;
    return true;
  }

  /// The gather pre-pass: out[p] = the exact key of cells_[p], p < count.
  void exact_keys(std::size_t count, std::uint64_t* out) {
    const KernelOps& ops = kernel_ops();
    const std::size_t grain =
        std::max<std::size_t>(1, (std::size_t{1} << 15) / std::max<std::size_t>(pass_.padded, 1));
    ThreadPool::global().parallel_for(0, count, grain, [&](std::size_t p0, std::size_t p1) {
      ops.int8_prepass(pass_, p0, p1, out);
    });
    computed_ += count;
  }

  const QuantizedTier& tier_;
  Int8Prepass pass_;
  std::size_t n_;
  std::size_t quarter_;
  unsigned index_bits_;
  std::uint64_t index_mask_;
  std::uint64_t* keys_;
  std::uint64_t* bound_keys_;
  std::size_t* cells_ = nullptr;  ///< the cells exact_keys() scores next.
  alignas(32) std::int32_t query_[kBoundRank] = {};  ///< B q.
  std::size_t size_ = 0;      ///< |S|.
  std::uint64_t limit_ = 0;   ///< S = {j : bound key < limit_}.
  std::uint64_t u_ = 0;       ///< U.
  std::size_t computed_ = 0;  ///< exact keys computed.
  std::size_t raises_ = 0;
};

/// Two-tier scan: int8 integer pre-pass, exact float re-rank over a
/// provably sufficient candidate prefix.
///
/// Why the result equals the full float scan, bit for bit:
///   * Let s be the tier's scale.  For a usable link i the query's
///     dequantization error e_i = residual[i] + s/2 bounds
///     | |y_i - x_ij| - s*|q_i - c_ij| | for every column j (stored
///     levels are exact to s/2 by construction; the query residual
///     already includes any clamp excess).  Summing in quadrature,
///     every column obeys  | ||dy|| - s*sqrt(qdist_j) | <= E  with
///     E = sqrt(sum e_i^2)  over usable links.
///   * The candidate prefix holds the m smallest integer distances, so
///     every EXCLUDED column j has s*sqrt(qdist_j) >= s*sqrt(T) where T
///     is the prefix's largest integer distance, hence an exact root
///     distance >= sqrt(mask_scale) * (s*sqrt(T) - E).
///   * If the k-th best EXACT distance inside the prefix is strictly
///     below that floor, no excluded column can enter the top-k: the
///     exact re-rank of the prefix IS the full scan's top-k.  Exact
///     distances come from the very same column_distances_sq routine as
///     the float scan, and the sort uses the same (distance, index) tie
///     rule, so indices, distances, and therefore downstream weights
///     are bit-identical.
///   * Otherwise the prefix doubles and the test repeats; at m == n the
///     "prefix" is the whole grid set and re-ranking it is literally
///     the exact scan, so termination is unconditional.  E is inflated
///     by one ulp-scale epsilon before use so float rounding in the
///     bookkeeping (never in the served distances) can only widen.
///
/// How each step stays cheap without changing any of the above:
///   * Keys.  The pre-pass writes key_j = (qdist_j << b) | j, b =
///     tier.key_index_bits(), so plain integer order on keys IS the
///     (qdist, index) order; selection needs no indirection.
///   * Bound.  On a projected tier an unmasked query computes exact keys
///     only for the survivor set of BoundSearch, whose certify() yields
///     the same prefixes as the full pre-pass; a query whose survivors
///     pass a quarter of the cells finishes on the full pre-pass.
///   * Incremental widening.  keys[0, m) holds the prefix, its largest
///     key (T) at m - 1.  Widening to m' selects only keys[m, m') from
///     the unranked remainder (the m' smallest overall are the m already
///     ranked plus the m' - m smallest of the rest), computes exact
///     distances only for those, and merges them with the k best so far
///     -- a column outside the old top-k lost to k better ones and can
///     never re-enter it.  So every round sees the same prefix set, the
///     same T and the same k-th distance as a from-scratch round, and
///     widens exactly as often.
///
/// Returns the k winners, best first, in s.ranked[0, k).  Caller has
/// reserved the scratch and validated shapes, finiteness, and the tier.
std::span<const Neighbor> quantized_scan(ConstMatrixView fp, std::span<const double> rss,
                                         const ScanMask& mask, const QuantizedTier& tier,
                                         std::size_t k, std::size_t alpha, KnnScratch& s,
                                         const ScanCounters& counters) {
  const std::size_t n = fp.cols();
  const std::size_t padded = tier.padded_links();

  const std::uint8_t* mask_bytes = nullptr;
  if (!mask.usable.empty()) {
    // Padded copy of the mask: pad bytes 0, so the masked pre-pass
    // ignores the padding just like it ignores dead links.
    s.qmask.assign(padded, 0);
    std::copy(mask.usable.begin(), mask.usable.end(), s.qmask.begin());
    mask_bytes = s.qmask.data();
  }
  tier.quantize_observation(rss, mask.usable, s.qvalues, s.qresidual);

  const double scale = tier.scale();
  double err_sq = 0.0;
  for (std::size_t i = 0; i < fp.rows(); ++i) {
    if (!mask.usable.empty() && mask.usable[i] == 0) continue;
    const double e = s.qresidual[i] + 0.5 * scale;
    err_sq += e * e;
  }
  const double err = std::sqrt(err_sq) * (1.0 + 1e-9) + 1e-9;
  const double root_scale = std::sqrt(mask.scale);

  std::uint64_t* keys = aligned_keys(s.keys, n);
  Int8Prepass pass{s.qvalues.data(), mask_bytes, tier.cell_data(0), padded,
                   tier.key_index_bits(), tier.cell_terms().data()};
  for (const std::int8_t v : s.qvalues) pass.query_norm_sq += v * v;
  std::size_t streamed = 0;
  // The full pre-pass: every cell's exact key, one kernel call per cell
  // range; keys[0, done) then again holds the done smallest.  Each key
  // is an independent exact integer, so the parallel split cannot
  // perturb anything.
  const auto stream_all = [&](std::size_t done) {
    TraceStage prepass_stage("loc.prepass");
    const KernelOps& ops = kernel_ops();
    const std::size_t grain =
        std::max<std::size_t>(1, (std::size_t{1} << 15) / std::max<std::size_t>(padded, 1));
    ThreadPool::global().parallel_for(0, n, grain, [&](std::size_t j0, std::size_t j1) {
      ops.int8_prepass(pass, j0, j1, keys);
    });
    if (done > 0) std::nth_element(keys, keys + done - 1, keys + n);
    streamed += n;
  };

  std::size_t m = std::min(n, std::max(k * alpha, k + 8));
  std::optional<BoundSearch> search;
  bool bounded = false;
  if (mask.usable.empty() && tier.projected()) {
    TraceStage bound_stage("loc.bound");
    bounded = search.emplace(tier, pass, keys, s).start(m);
  }
  if (!bounded) {
    stream_all(0);
    select_smallest(keys, 0, m, n);
  }

  TraceStage rerank_stage("loc.rerank");
  const unsigned index_bits = tier.key_index_bits();
  const std::uint64_t index_mask = (std::uint64_t{1} << index_bits) - 1;
  s.ranked.resize(n);
  Neighbor* ranked = s.ranked.data();
  std::size_t done = 0;  // keys[0, done): selected and re-ranked
  std::size_t kept = 0;  // ranked[0, kept): the best re-ranked so far
  while (true) {
    // keys[done, m) holds the new candidates.  Exact distances of those
    // only, appended after the kept winners; then the k best of both.
    const auto grid_of = [&, fresh = keys + done](std::size_t c) {
      return static_cast<std::size_t>(fresh[c] & index_mask);
    };
    Neighbor* out = ranked + kept;
    ThreadPool::global().parallel_for(0, m - done, 64, [&](std::size_t c0, std::size_t c1) {
      column_distances_sq(
          fp, rss, mask, c1 - c0, [&](std::size_t c) { return grid_of(c0 + c); },
          [&](std::size_t c, double d) { out[c0 + c] = {d, grid_of(c0 + c)}; });
    });
    std::partial_sort(ranked, ranked + k, out + (m - done), closer);
    kept = k;
    done = m;
    if (m == n) break;  // re-ranked everything: this IS the exact scan
    const double threshold_root = scale * std::sqrt(static_cast<double>(keys[m - 1] >> index_bits));
    const double excluded_floor = root_scale * (threshold_root - err);
    const double kth_root = std::sqrt(ranked[k - 1].dist);
    if (kth_root < excluded_floor) break;  // proof holds; equality widens
    if (counters.widenings != nullptr) counters.widenings->add();
    m = std::min(n, m * 2);
    if (bounded && !search->certify(done, m)) {
      bounded = false;
      stream_all(done);
    }
    if (!bounded) select_smallest(keys, done, m, n);
  }
  if (counters.cells != nullptr) counters.cells->add(streamed + (search ? search->computed() : 0));
  if (search.has_value()) {
    if (counters.raises != nullptr && search->raises() > 0) counters.raises->add(search->raises());
    if (counters.fallbacks != nullptr && !bounded) counters.fallbacks->add();
  }
  return {ranked, k};
}

}  // namespace

KnnMatcher::KnnMatcher(Matrix fingerprints, GridMap grid, std::size_t k, bool weighted,
                       double spatial_gate_m)
    : fingerprints_(std::move(fingerprints)),
      grid_(std::move(grid)),
      k_(k),
      weighted_(weighted),
      spatial_gate_m_(spatial_gate_m) {
  validate_shapes(fingerprints_.view(), grid_);
  TAFLOC_CHECK_ARG(k_ >= 1 && k_ <= fingerprints_.view().cols(),
                   "k must be in [1, number of grids]");
}

KnnMatcher::KnnMatcher(ConstMatrixView fingerprints, GridMap grid, std::size_t k, bool weighted,
                       double spatial_gate_m)
    : fingerprints_(fingerprints),
      grid_(std::move(grid)),
      k_(k),
      weighted_(weighted),
      spatial_gate_m_(spatial_gate_m) {
  validate_shapes(fingerprints_.view(), grid_);
  TAFLOC_CHECK_ARG(k_ >= 1 && k_ <= fingerprints_.view().cols(),
                   "k must be in [1, number of grids]");
}

std::string KnnMatcher::name() const {
  return (weighted_ ? "WKNN-k" : "KNN-k") + std::to_string(k_);
}

std::size_t KnnMatcher::scratch_allocations() noexcept {
  return static_cast<std::size_t>(knn_scratch_allocation_counter().value());
}

void KnnMatcher::attach_telemetry(MetricRegistry* registry) {
  telemetry_ = (registry != nullptr && registry->enabled()) ? registry : nullptr;
  query_hist_ = registry_histogram(telemetry_, "loc.knn.query_seconds");
  query_counter_ = registry_counter(telemetry_, "loc.knn.queries");
  scratch_alloc_counter_ = registry_counter(telemetry_, "loc.knn.scratch_allocations");
  gated_counter_ = registry_counter(telemetry_, "loc.knn.gated_neighbors");
  fallback_counter_ = registry_counter(telemetry_, "loc.knn.centroid_fallbacks");
  prepass_counter_ = registry_counter(telemetry_, "loc.knn.prepass_queries");
  widen_counter_ = registry_counter(telemetry_, "loc.knn.rerank_widenings");
  bound_cells_counter_ = registry_counter(telemetry_, "loc.knn.bound_cells");
  bound_raise_counter_ = registry_counter(telemetry_, "loc.knn.bound_raises");
  bound_fallback_counter_ = registry_counter(telemetry_, "loc.knn.bound_fallbacks");
}

void KnnMatcher::set_rerank_multiplier(std::size_t alpha) {
  TAFLOC_CHECK_ARG(alpha >= 1, "re-rank multiplier must be at least 1");
  rerank_alpha_ = alpha;
}

std::span<const Neighbor> KnnMatcher::nearest_in_scratch(std::span<const double> rss) const {
  const ConstMatrixView fp = fingerprints_.view();
  TAFLOC_CHECK_ARG(rss.size() == fp.rows(), "observation length mismatch");
  const LinkHealth* mask = active_mask(health_, fp);
  check_observation(rss, mask);
  const ScanMask scan = scan_mask(mask, fp.rows());
  const std::size_t n = fp.cols();
  KnnScratch& s = knn_scratch();
  // The quantized tier is consulted per query: a tier that vanished
  // (detach), went not-ready (non-finite entries mid-fault), or changed
  // shape (borrowed view re-pointed before re-attach) silently falls
  // back to the float scan for this query.
  const QuantizedTier* tier = quantized_;
  if (tier != nullptr &&
      (!tier->ready() || tier->num_links() != fp.rows() || tier->num_grids() != n))
    tier = nullptr;
  // Count only real growth.  The two-tier path reserves all of its
  // buffers on first use -- keys and candidates for a widening to every
  // grid, the padded mask even on an unmasked query -- so no later
  // query on this thread, masked or widened, allocates.
  bool grown = reserve_scratch(s.ranked, n);
  if (tier != nullptr) {
    grown |= reserve_scratch(s.keys, n + kKeySlack);
    grown |= reserve_scratch(s.qvalues, tier->padded_links());
    grown |= reserve_scratch(s.qmask, tier->padded_links());
    grown |= reserve_scratch(s.qresidual, fp.rows());
    if (tier->projected()) {
      grown |= reserve_scratch(s.bound_keys, n + kKeySlack);
      grown |= reserve_scratch(s.bound_cells, n / 4 + 1);
    }
  }
  if (grown) {
    knn_scratch_allocation_counter().add();
    if (scratch_alloc_counter_ != nullptr) scratch_alloc_counter_->add();
  }
  if (tier != nullptr) {
    if (prepass_counter_ != nullptr) prepass_counter_->add();
    return quantized_scan(fp, rss, scan, *tier, k_, rerank_alpha_, s,
                          {widen_counter_, bound_cells_counter_, bound_raise_counter_,
                           bound_fallback_counter_});
  }
  TraceStage scan_stage("loc.scan");
  s.ranked.resize(n);
  Neighbor* ranked = s.ranked.data();
  // Each distance is an independent scalar: the scan parallelizes over
  // columns without changing any accumulation order.
  const std::size_t grain =
      std::max<std::size_t>(1, (std::size_t{1} << 14) / std::max<std::size_t>(fp.rows(), 1));
  ThreadPool::global().parallel_for(0, n, grain, [&](std::size_t j0, std::size_t j1) {
    column_distances_sq(fp, rss, scan, j1 - j0, ColumnRange{j0},
                        [&](std::size_t c, double d) { ranked[j0 + c] = {d, j0 + c}; });
  });
  std::partial_sort(ranked, ranked + k_, ranked + n, closer);
  return {ranked, k_};
}

std::vector<std::size_t> KnnMatcher::nearest_grids(std::span<const double> rss) const {
  const std::span<const Neighbor> nearest = nearest_in_scratch(rss);
  std::vector<std::size_t> indices(nearest.size());
  for (std::size_t c = 0; c < nearest.size(); ++c) indices[c] = nearest[c].index;
  return indices;
}

Point2 KnnMatcher::localize(std::span<const double> rss) const {
  return localize(rss, nullptr);
}

Point2 KnnMatcher::localize(std::span<const double> rss, MatchStats* stats) const {
  // Cached-handle timing, not a ScopedSpan: per-query overhead while
  // attached is two clock reads plus relaxed atomics, no registry
  // lookup; while detached, a single null test.
  const std::uint64_t t0 = telemetry_ != nullptr ? telemetry_->now_ns() : 0;
  const std::span<const Neighbor> nearest = nearest_in_scratch(rss);
  const Point2 anchor = grid_.center(nearest.front().index);
  double wx = 0.0, wy = 0.0, wsum = 0.0;
  std::size_t gated = 0;
  for (const Neighbor& nb : nearest) {
    const Point2 c = grid_.center(nb.index);
    // Gate out fingerprint collisions: neighbours in signal space that
    // are far from the best match in physical space.
    if (spatial_gate_m_ > 0.0 && distance(c, anchor) > spatial_gate_m_) {
      ++gated;
      continue;
    }
    double w = 1.0;
    if (weighted_) {
      // Reuse the scan's stored distance: sqrt of the same double is
      // bit-identical to recomputing the column scan.
      const double d = std::sqrt(nb.dist);
      w = 1.0 / (d + 1e-6);
    }
    wx += w * c.x;
    wy += w * c.y;
    wsum += w;
  }
  // wsum can degenerate even though the anchor always passes the gate:
  // a finite-but-huge observation overflows the squared distance to
  // +inf and every weight underflows to 0.  The weighted centroid would
  // then be NaN/NaN -- fall back to the anchor instead.
  const bool fallback = !(wsum > 0.0) || !std::isfinite(wsum);
  if (stats != nullptr) {
    const LinkHealth* mask = active_mask(health_, fingerprints_.view());
    stats->links_used = mask == nullptr ? fingerprints_.view().rows() : mask->usable_count();
    stats->gated_out = gated;
    stats->centroid_fallback = fallback;
  }
  if (telemetry_ != nullptr) {
    query_hist_->observe(static_cast<double>(telemetry_->now_ns() - t0) * 1e-9);
    query_counter_->add();
    if (gated > 0) gated_counter_->add(gated);
    if (fallback) fallback_counter_->add();
  }
  if (fallback) return anchor;
  return {wx / wsum, wy / wsum};
}

}  // namespace tafloc
