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
// Exactness bookkeeping: quantize_observation() reports each usable
// link's exact quantization residual |x_i - dequantized(x_i)| (clamp
// excess included).  Stored column entries are in-range by
// construction, so their residual is bounded by scale/2; together
// these bound the error of the integer distance, which is what lets
// the matcher's re-rank PROVE its top-k equals the exact float scan's
// (see matcher.cpp).
//
// The tier is derived state: FingerprintDatabase rebuilds it (levels
// and cell terms together) on construction and on every
// update()/load(), never serializes it, and excludes it from
// operator==.  A matrix with non-finite entries
// (possible mid-fault before dead-row patching) leaves the tier
// not-ready and the matcher falls back to exact float scans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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
};

}  // namespace tafloc
