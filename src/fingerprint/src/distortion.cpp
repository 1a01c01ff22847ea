#include "tafloc/fingerprint/distortion.h"

#include "tafloc/util/check.h"

namespace tafloc {

std::size_t DistortionMask::num_distorted() const noexcept {
  std::size_t n = 0;
  for (double v : undistorted.data())
    if (v == 0.0) ++n;
  return n;
}

std::size_t DistortionMask::num_undistorted() const noexcept {
  return undistorted.size() - num_distorted();
}

double DistortionMask::distorted_fraction() const noexcept {
  if (undistorted.size() == 0) return 0.0;
  return static_cast<double>(num_distorted()) / static_cast<double>(undistorted.size());
}

DistortionDetector::DistortionDetector(const DistortionConfig& config) : config_(config) {
  TAFLOC_CHECK_ARG(config.rss_drop_threshold_db > 0.0, "RSS drop threshold must be positive");
}

DistortionMask DistortionDetector::detect_from_data(const Matrix& x,
                                                    std::span<const double> ambient) const {
  TAFLOC_CHECK_ARG(!x.empty(), "fingerprint matrix must be non-empty");
  TAFLOC_CHECK_ARG(ambient.size() == x.rows(), "ambient vector must have one entry per link");
  DistortionMask mask{Matrix(x.rows(), x.cols())};
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const bool hits = (ambient[i] - x(i, j)) > config_.rss_drop_threshold_db;
      mask.undistorted(i, j) = hits ? 0.0 : 1.0;
    }
  }
  return mask;
}

Matrix known_entry_matrix(const DistortionMask& mask, std::span<const double> ambient) {
  const Matrix& b = mask.undistorted;
  TAFLOC_CHECK_ARG(ambient.size() == b.rows(), "ambient vector must have one entry per link");
  Matrix known(b.rows(), b.cols());
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) known(i, j) = b(i, j) != 0.0 ? ambient[i] : 0.0;
  return known;
}

}  // namespace tafloc
