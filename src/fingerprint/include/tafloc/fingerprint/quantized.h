// QuantizedTier -- the int8 scan mirror of the fingerprint matrix.
//
// The serving hot loop is "distance from one observation to every
// fingerprint column".  At 10^4-10^5 grids x 10^2-10^3 links the float
// matrix no longer fits in cache and the scan is memory-bound; DorFin
// (PAPERS.md) shows RSS fingerprints carry roughly 0.5 dB of effective
// resolution, so an 8-bit representation loses nothing that the exact
// re-rank (matcher.cpp) cannot restore.  The tier stores, grid-major:
//
//   cell_data(j)[i] = clamp(round((X[i][j] - offset[i]) / scale), +-127)
//
// with links padded to a multiple of kPad (the AVX2 int8 vector width)
// and pad bytes fixed at 0, so a padded query vector (also 0-padded)
// contributes exactly nothing on the padding.
//
// Layout decisions that matter:
//   * per-link OFFSET, shared SCALE.  Each link gets its own offset
//     (links differ by tens of dB of path loss; per-link centering is
//     what makes 8 bits enough), but the scale is the maximum per-link
//     half-range over 127, shared by all links -- the pre-pass sums
//     squared level differences into ONE integer accumulator, which is
//     only meaningful when every link's level means the same number of
//     dB.
//   * offsets snap to the quantizer's own grid (round_ties_away of the
//     link's mid-range).  Costs at most half a level of headroom;
//     buys: integer-dBm surveys quantize with zero residual when the
//     scale resolves to 1 dB (see util/quantize.h, satellite test in
//     test_fingerprint_quantized).
//
// Beside the levels the tier stores one int64 per cell,
// int8_cell_term(cell_data(j)) (linalg/backend.h): the cell's share of
// the dot-form pre-pass, which scores an unmasked query as
// ||q||^2 + t_j - 2 <q + 128, c_j> -- the same exact integer as the
// squared-difference sum, for 8 more bytes per cell.
//
// Beside the levels the tier may also store a rank-kBoundRank integer
// projection (linalg/backend.h, Int8Bound): an int16 basis B
// (kBoundRank x padded, scale 2^12) spanning the centred levels' top
// singular directions, and P_j = B c_j as kBoundRank int32 per cell.
// For any query, N_j = ||B q - P_j||^2 <= kappa * D_j bounds every
// cell's exact int8 distance D_j from below at 32 bytes per cell, so the
// matcher can skip the cells the bound rules out without reading them.
// It is built only where a row is at least 8x the projection's 32 bytes
// (padded_links() >= 256): below that, reading 32 bytes per cell to skip
// rows of at most 224 bytes saves too little.
//
// Exactness bookkeeping: quantize_observation() reports each usable
// link's exact quantization residual |x_i - dequantized(x_i)| (clamp
// excess included).  Stored column entries are in-range by
// construction, so their residual is bounded by scale/2; together
// these bound the error of the integer distance, which is what lets
// the matcher's re-rank PROVE its top-k equals the exact float scan's
// (see matcher.cpp).
//
// The tier is derived state: FingerprintDatabase rebuilds it (levels,
// cell terms and projection together) on construction and on every
// update()/load(), never serializes it, and excludes it from
// operator==.  A matrix with non-finite entries
// (possible mid-fault before dead-row patching) leaves the tier
// not-ready and the matcher falls back to exact float scans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tafloc/linalg/backend.h"
#include "tafloc/linalg/view.h"
#include "tafloc/util/quantize.h"

namespace tafloc {

class QuantizedTier {
 public:
  /// Link-dimension padding granularity: one AVX2 register of int8.
  static constexpr std::size_t kPad = 32;
  /// Cell 0 starts on this boundary, so no 32-byte pre-pass load splits
  /// a cache line wherever the allocator placed the buffer.
  static constexpr std::size_t kAlign = 64;

  QuantizedTier() = default;

  /// Rebuild the mirror from the current float matrix (rows = links,
  /// cols = grids).  O(links * grids).  A matrix with any non-finite
  /// entry, or a shape whose pre-pass keys would not fit 64 bits (see
  /// key_index_bits), clears the tier instead (ready() == false).
  void rebuild(ConstMatrixView fingerprints);

  void clear();

  bool ready() const noexcept { return grids_ > 0; }
  std::size_t num_links() const noexcept { return links_; }
  std::size_t num_grids() const noexcept { return grids_; }
  std::size_t padded_links() const noexcept { return padded_; }
  /// Low bits of a pre-pass key that hold the grid index:
  /// bit_width(num_grids() - 1).  rebuild() checks that every integer
  /// distance, shifted left by this, still fits 64 bits.
  unsigned key_index_bits() const noexcept { return index_bits_; }

  /// dB per quantization level (shared by all links).
  double scale() const noexcept { return scale_; }
  /// Per-link centering, on the quantizer grid.
  double offset(std::size_t link) const { return offsets_[link]; }

  /// Quantized column of grid j: padded_links() contiguous bytes.
  const std::int8_t* cell_data(std::size_t grid) const {
    return cells_.data() + base_ + grid * padded_;
  }

  /// int8_cell_term(cell_data(j), padded_links()) for every grid j, the
  /// Int8Prepass::cell_terms of an unmasked scan; empty when not ready.
  std::span<const std::int64_t> cell_terms() const noexcept { return terms_; }

  /// Smallest padded_links() that gets a projection: a row at least 8x
  /// the kBoundRank int32 values the bound pass reads per cell.
  static constexpr std::size_t kProjectMinPadded = 8 * kBoundRank * sizeof(std::int32_t);

  /// True when the tier carries the projection (see the file comment).
  bool projected() const noexcept { return !projections_.empty(); }
  /// B: kBoundRank rows of padded_links() int16 (pad columns 0); empty
  /// when not projected().
  std::span<const std::int16_t> projection_basis() const noexcept { return basis_; }
  /// P_j = B c_j: kBoundRank int32 values, from a 32-byte boundary.
  const std::int32_t* cell_projection(std::size_t grid) const {
    return projections_.data() + proj_base_ + grid * kBoundRank;
  }
  /// kappa = max_t sum_s |(B B^T)_ts| >= the largest eigenvalue of B B^T,
  /// so N_j <= kappa * D_j for every query and cell.
  std::uint64_t projection_kappa() const noexcept { return kappa_; }
  /// Low bits of N_j a bound key drops (Int8Bound::shift), so every
  /// bound key, like kappa * D for any reachable D, stays below 2^63.
  unsigned bound_shift() const noexcept { return bound_shift_; }

  /// Build the projection from the current levels, or drop it where the
  /// shape rule or a range check rules it out.  rebuild() calls it; it
  /// is public so its cost can be measured apart.
  void rebuild_projection();

  /// Level for one value on one link's grid (exposed inline so the
  /// rounding-convention test can pin it against NoiseModel::quantize).
  static std::int8_t quantize_level(double value, double offset, double scale) noexcept {
    const double level = round_ties_away((value - offset) / scale);
    const double clamped = level < -127.0 ? -127.0 : (level > 127.0 ? 127.0 : level);
    return static_cast<std::int8_t>(clamped);
  }

  /// Quantize one observation against the tier: `values` gets
  /// padded_links() bytes (pad bytes 0), `residual` gets num_links()
  /// exact absolute dequantization errors |rss[i] - (offset + scale *
  /// q_i)| -- the matcher's error-bound input.  Both buffers are
  /// resized; reuse them across queries to amortize.  Entries of dead
  /// links (usable[i] == 0; pass an empty span for all-usable) may be
  /// non-finite -- they quantize to 0 with residual 0 and the masked
  /// pre-pass ignores them.
  void quantize_observation(std::span<const double> rss, std::span<const std::uint8_t> usable,
                            std::vector<std::int8_t>& values, std::vector<double>& residual) const;

 private:
  std::size_t links_ = 0;
  std::size_t grids_ = 0;
  std::size_t padded_ = 0;
  unsigned index_bits_ = 0;
  double scale_ = 1.0;
  std::vector<double> offsets_;
  /// grids_ * padded_ bytes from base_, grid-major.  base_ is where the
  /// buffer first meets a kAlign boundary; a copy keeps it (still
  /// correct, possibly unaligned).
  std::vector<std::int8_t> cells_;
  std::size_t base_ = 0;
  std::vector<std::int64_t> terms_;  ///< one per grid, see cell_terms().
  std::vector<std::int16_t> basis_;  ///< see projection_basis().
  /// grids_ * kBoundRank values from proj_base_, the buffer's first
  /// 32-byte boundary (kept by a copy like base_).
  std::vector<std::int32_t> projections_;
  std::size_t proj_base_ = 0;
  std::uint64_t kappa_ = 0;
  unsigned bound_shift_ = 0;
};

}  // namespace tafloc
