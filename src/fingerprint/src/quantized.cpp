#include "tafloc/fingerprint/quantized.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "tafloc/linalg/backend.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/linalg/qr.h"
#include "tafloc/util/check.h"
#include "tafloc/util/rng.h"

namespace tafloc {

namespace {

/// Most cells the basis is fitted to (every stride-th cell).
constexpr std::size_t kBasisSamples = 1024;
/// The basis's int16 scale: an orthonormal row rounds to norm ~2^12,
/// so kappa ~ 2^24.
constexpr double kBasisScale = 4096.0;
/// The range finder's test matrix seed: the same levels always get the
/// same basis.
constexpr std::uint64_t kBasisSeed = 0x7af10c5eedULL;

}  // namespace

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
  rebuild_projection();  // not ready: drops it
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
  rebuild_projection();
}

void QuantizedTier::rebuild_projection() {
  basis_.clear();
  projections_.clear();
  proj_base_ = 0;
  kappa_ = 0;
  bound_shift_ = 0;
  if (!ready() || padded_ < kProjectMinPadded) return;

  // An orthonormal basis of the centred levels' top-kBoundRank subspace:
  // a randomized range finder (Halko, Martinsson & Tropp) with one power
  // iteration, Q = orth(A A^T orth(A Omega)), where A holds the centred
  // levels of every stride-th cell.  A is read straight from the levels,
  // never materialized, and every sum runs in a fixed order, so the same
  // levels always get the same basis.
  const std::size_t stride = (grids_ + kBasisSamples - 1) / kBasisSamples;
  const std::size_t samples = (grids_ + stride - 1) / stride;
  std::vector<double> mean(links_, 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::int8_t* cell = cell_data(s * stride);
    for (std::size_t i = 0; i < links_; ++i) mean[i] += cell[i];
  }
  for (double& v : mean) v /= static_cast<double>(samples);
  const auto a_times = [&](const Matrix& x) {  // A x: (samples x r) -> (links x r)
    Matrix y(links_, kBoundRank);
    for (std::size_t s = 0; s < samples; ++s) {
      const std::int8_t* cell = cell_data(s * stride);
      const std::span<const double> xs = x.row_span(s);
      for (std::size_t i = 0; i < links_; ++i) {
        const double a = cell[i] - mean[i];
        const std::span<double> yi = y.row_span(i);
        for (std::size_t t = 0; t < kBoundRank; ++t) yi[t] += a * xs[t];
      }
    }
    return y;
  };
  const auto at_times = [&](const Matrix& y) {  // A^T y: (links x r) -> (samples x r)
    Matrix x(samples, kBoundRank);
    for (std::size_t s = 0; s < samples; ++s) {
      const std::int8_t* cell = cell_data(s * stride);
      const std::span<double> xs = x.row_span(s);
      for (std::size_t i = 0; i < links_; ++i) {
        const double a = cell[i] - mean[i];
        const std::span<const double> yi = y.row_span(i);
        for (std::size_t t = 0; t < kBoundRank; ++t) xs[t] += a * yi[t];
      }
    }
    return x;
  };
  Rng rng(kBasisSeed);
  const Matrix omega = random_gaussian(samples, kBoundRank, rng);
  const Matrix q = qr_decompose(a_times(at_times(qr_decompose(a_times(omega)).q))).q;

  // B = round(2^12 Q^T), zero on the padding.  Its largest row sum of
  // |b| bounds every projected value: |B x| <= 127 * row_sum for a level
  // vector, and the bound pass subtracts two of them in int32.
  std::vector<std::int16_t> basis(kBoundRank * padded_, 0);
  std::int64_t row_sum = 0;
  for (std::size_t t = 0; t < kBoundRank; ++t) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < links_; ++i) {
      const std::int16_t b = static_cast<std::int16_t>(round_ties_away(kBasisScale * q(i, t)));
      basis[t * padded_ + i] = b;
      sum += std::abs(b);
    }
    row_sum = std::max(row_sum, sum);
  }
  if (254 * row_sum > std::numeric_limits<std::int32_t>::max()) return;

  // kappa: the largest absolute row sum of the exact B B^T (Gershgorin),
  // so N_j <= kappa * D_j whatever the rounding did to B.
  std::uint64_t kappa = 0;
  for (std::size_t t = 0; t < kBoundRank; ++t) {
    std::uint64_t sum = 0;
    for (std::size_t u = 0; u < kBoundRank; ++u) {
      std::int64_t g = 0;
      for (std::size_t i = 0; i < links_; ++i)
        g += std::int64_t{basis[t * padded_ + i]} * basis[u * padded_ + i];
      sum += static_cast<std::uint64_t>(g < 0 ? -g : g);
    }
    kappa = std::max(kappa, sum);
  }
  // kappa * D for the largest distance any query can reach must fit 64
  // bits, and a bound key (N >> shift, then the index bits) 63, so the
  // matcher can form an exclusive limit one past the largest key.
  const std::uint64_t max_dist = static_cast<std::uint64_t>(links_) * 254u * 254u;
  if (std::bit_width(kappa) + std::bit_width(max_dist) > 64) return;
  const unsigned key_width = static_cast<unsigned>(std::bit_width(kappa * max_dist)) + index_bits_;

  basis_ = std::move(basis);
  kappa_ = kappa;
  bound_shift_ = key_width > 63 ? key_width - 63 : 0;
  projections_.assign(grids_ * kBoundRank + kBoundRank - 1, 0);
  const std::size_t misalign = reinterpret_cast<std::uintptr_t>(projections_.data()) % 32;
  proj_base_ = (32 - misalign) % 32 / sizeof(std::int32_t);
  const KernelOps& ops = kernel_ops();
  for (std::size_t j = 0; j < grids_; ++j)
    ops.int8_project(basis_.data(), cell_data(j), padded_,
                     projections_.data() + proj_base_ + j * kBoundRank);
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
