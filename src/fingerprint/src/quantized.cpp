#include "tafloc/fingerprint/quantized.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "tafloc/linalg/backend.h"
#include "tafloc/util/check.h"

namespace tafloc {

void QuantizedTier::clear() {
  links_ = 0;
  grids_ = 0;
  padded_ = 0;
  index_bits_ = 0;
  scale_ = 1.0;
  offsets_.clear();
  cells_.clear();
  base_ = 0;
  terms_.clear();
}

void QuantizedTier::rebuild(ConstMatrixView fingerprints) {
  if (fingerprints.empty()) {
    clear();
    return;
  }
  const std::size_t m = fingerprints.rows();
  const std::size_t n = fingerprints.cols();
  // The pre-pass packs (distance, grid index) into one uint64 key: the
  // index in the low bit_width(n - 1) bits, the largest distance any
  // query can reach, m * 254^2, above them.  A shape that cannot pack
  // leaves the tier not-ready, like a non-finite entry does.
  const unsigned index_bits = static_cast<unsigned>(std::bit_width(n - 1));
  if (std::bit_width(static_cast<std::uint64_t>(m) * 254u * 254u) + index_bits > 64) {
    clear();
    return;
  }

  // Pass 1: per-link range.  Any non-finite entry (a faulted row not
  // yet patched) disables the tier -- the float path handles it.
  std::vector<double> lo(m, std::numeric_limits<double>::infinity());
  std::vector<double> hi(m, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = fingerprints.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) {
      const double v = row[j];
      if (!std::isfinite(v)) {
        clear();
        return;
      }
      lo[i] = std::min(lo[i], v);
      hi[i] = std::max(hi[i], v);
    }
  }

  links_ = m;
  grids_ = n;
  padded_ = (m + kPad - 1) / kPad * kPad;
  index_bits_ = index_bits;
  offsets_.resize(m);

  // Offsets on the integer grid of the quantizer (see header); the
  // shared scale then has to cover the worst per-link half-range
  // AROUND that snapped offset.
  double half_range = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    offsets_[i] = round_ties_away(0.5 * (lo[i] + hi[i]));
    half_range = std::max({half_range, hi[i] - offsets_[i], offsets_[i] - lo[i]});
  }
  scale_ = half_range > 0.0 ? half_range / 127.0 : 1.0;

  // Pass 2: quantize, grid-major with zeroed padding, from the
  // buffer's first kAlign boundary.
  cells_.assign(grids_ * padded_ + kAlign - 1, 0);
  base_ = (kAlign - reinterpret_cast<std::uintptr_t>(cells_.data()) % kAlign) % kAlign;
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = fingerprints.row_ptr(i);
    const double off = offsets_[i];
    for (std::size_t j = 0; j < n; ++j)
      cells_[base_ + j * padded_ + i] = quantize_level(row[j], off, scale_);
  }
  terms_.resize(n);
  for (std::size_t j = 0; j < n; ++j) terms_[j] = int8_cell_term(cell_data(j), padded_);
}

void QuantizedTier::quantize_observation(std::span<const double> rss,
                                         std::span<const std::uint8_t> usable,
                                         std::vector<std::int8_t>& values,
                                         std::vector<double>& residual) const {
  TAFLOC_CHECK_ARG(ready(), "quantize_observation on an empty tier");
  TAFLOC_CHECK_ARG(rss.size() == links_, "observation length must match the tier's link count");
  TAFLOC_CHECK_ARG(usable.empty() || usable.size() == links_,
                   "usable mask must be empty or one byte per link");
  values.assign(padded_, 0);
  residual.assign(links_, 0.0);
  for (std::size_t i = 0; i < links_; ++i) {
    if (!usable.empty() && usable[i] == 0) continue;  // the masked pre-pass ignores the entry
    const std::int8_t q = quantize_level(rss[i], offsets_[i], scale_);
    values[i] = q;
    // Exact dequantization error, clamp excess included: out-of-range
    // observations (a target can push RSS outside the surveyed range)
    // stay correct, they just widen the re-rank bound.
    residual[i] = std::abs(rss[i] - (offsets_[i] + scale_ * static_cast<double>(q)));
  }
}

}  // namespace tafloc
