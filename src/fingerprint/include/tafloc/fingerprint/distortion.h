// Distortion classification: which fingerprint entries are
// "largely-distorted" (target blocks / detours the link -> clear RSS
// decrease) and which are undistorted (entry ~= the link's ambient RSS,
// so its fresh value is KNOWN from a cheap ambient scan without any
// human walking the grid).
//
// The paper's B matrix has B(i, j) = 1 when the RSS of link i is
// undistorted by a target at grid j; the complement defines the
// largely-distorted matrix X_D.  The detector is data-driven: an entry
// is distorted when the surveyed RSS sits more than a threshold below
// the same link's ambient RSS (what the paper measures; works with no
// geometry knowledge).
#pragma once

#include <cstddef>
#include <span>

#include "tafloc/linalg/matrix.h"

namespace tafloc {

/// The classification result: the paper's B (1.0 / 0.0 entries).  Its
/// complement, the support of X_D, is not stored; distorted() reads it
/// off B.
struct DistortionMask {
  Matrix undistorted;

  /// True when a target at grid `grid` largely distorts link `link`
  /// (B == 0, the entry lies in the support of X_D).
  bool distorted(std::size_t link, std::size_t grid) const {
    return undistorted(link, grid) == 0.0;
  }
  std::size_t num_distorted() const noexcept;
  std::size_t num_undistorted() const noexcept;
  /// Fraction of entries classified as distorted, in [0, 1].
  double distorted_fraction() const noexcept;
};

/// Detector threshold.
struct DistortionConfig {
  /// RSS decrease below ambient that marks an entry largely-distorted
  /// (paper reports noise of 1-4 dBm, so default 2 dB keeps noise out
  /// while catching LoS blockage of ~6+ dB).
  double rss_drop_threshold_db = 2.0;
};

class DistortionDetector {
 public:
  explicit DistortionDetector(const DistortionConfig& config = {});

  /// Data-driven classification of a surveyed fingerprint matrix
  /// against the same-epoch ambient RSS vector (length == x.rows()).
  DistortionMask detect_from_data(const Matrix& x, std::span<const double> ambient) const;

  const DistortionConfig& config() const noexcept { return config_; }

 private:
  DistortionConfig config_;
};

/// The "known" matrix X_I of the reconstruction problem: undistorted
/// entries carry the link's current ambient RSS (mask.undistorted == 1),
/// distorted entries are zero (and excluded by the mask anyway).
Matrix known_entry_matrix(const DistortionMask& mask, std::span<const double> ambient);

}  // namespace tafloc
