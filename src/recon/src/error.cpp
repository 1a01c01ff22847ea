#include "tafloc/recon/error.h"

#include <cmath>

#include "tafloc/util/check.h"

namespace tafloc {

std::vector<double> entrywise_abs_errors(const Matrix& reconstructed, const Matrix& truth) {
  TAFLOC_CHECK_ARG(reconstructed.same_shape(truth), "matrices must have equal shapes");
  std::vector<double> out;
  out.reserve(reconstructed.size());
  for (std::size_t i = 0; i < reconstructed.data().size(); ++i)
    out.push_back(std::abs(reconstructed.data()[i] - truth.data()[i]));
  return out;
}

std::vector<double> entrywise_abs_errors_distorted(const Matrix& reconstructed,
                                                   const Matrix& truth,
                                                   const DistortionMask& mask) {
  TAFLOC_CHECK_ARG(reconstructed.same_shape(truth), "matrices must have equal shapes");
  TAFLOC_CHECK_ARG(mask.undistorted.same_shape(truth), "mask shape must match the matrices");
  std::vector<double> out;
  for (std::size_t i = 0; i < reconstructed.rows(); ++i)
    for (std::size_t j = 0; j < reconstructed.cols(); ++j)
      if (mask.distorted(i, j))
        out.push_back(std::abs(reconstructed(i, j) - truth(i, j)));
  return out;
}

double mean_abs_error(const Matrix& reconstructed, const Matrix& truth) {
  const std::vector<double> errs = entrywise_abs_errors(reconstructed, truth);
  double s = 0.0;
  for (double e : errs) s += e;
  return s / static_cast<double>(errs.size());
}

double rms_error(const Matrix& reconstructed, const Matrix& truth) {
  const std::vector<double> errs = entrywise_abs_errors(reconstructed, truth);
  double s = 0.0;
  for (double e : errs) s += e * e;
  return std::sqrt(s / static_cast<double>(errs.size()));
}

}  // namespace tafloc
