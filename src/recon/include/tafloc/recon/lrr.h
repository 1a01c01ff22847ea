// Low-Rank Representation model (fingerprint property ii):
//
//   X ~= X_R * Z
//
// Z (n x N) is the correlation between the n reference columns and all
// N columns of the fingerprint matrix.  Because the dominant temporal
// drift is (approximately) a per-link additive offset, the *linear
// relation between columns survives the drift*: Z is learned once from
// the initial full survey and reused at every update with only the
// reference columns re-measured.
//
// Z is the closed-form ridge solution
//
//   Z = argmin ||X0 - XR0 Z||_F^2 + rho ||Z||_F^2.
#pragma once

#include <cstddef>
#include <vector>

#include "tafloc/linalg/matrix.h"

namespace tafloc {

class MetricRegistry;

struct LrrOptions {
  double ridge = 1e-6;  ///< Tikhonov weight rho.
  /// Optional metrics sink (recon.lrr.* series: fit span, fit counter,
  /// training-residual gauge).  Not owned; nullptr or disabled = no
  /// overhead, identical results.
  MetricRegistry* telemetry = nullptr;
};

class LrrModel {
 public:
  /// Learn Z from the initial survey `x0` (M x N) and the chosen
  /// reference column indices (each < N).
  LrrModel(const Matrix& x0, std::vector<std::size_t> reference_indices, double ridge = 1e-6);

  /// Learn Z with explicit options.
  LrrModel(const Matrix& x0, std::vector<std::size_t> reference_indices,
           const LrrOptions& options);

  /// Rebuild a model from a previously learned correlation matrix (the
  /// deserialization path; no training data needed).  `z` must have one
  /// row per reference index.
  static LrrModel from_correlation(Matrix z, std::vector<std::size_t> reference_indices);

  /// Predict the full fingerprint matrix from freshly measured
  /// reference columns (M x n, same column order as reference_indices()).
  Matrix predict(const Matrix& fresh_reference_columns) const;

  /// Training residual ||X0 - XR0 * Z||_F / ||X0||_F.
  double training_residual() const noexcept { return training_residual_; }

  const Matrix& correlation() const noexcept { return z_; }
  const std::vector<std::size_t>& reference_indices() const noexcept {
    return reference_indices_;
  }
  std::size_t num_references() const noexcept { return reference_indices_.size(); }
  std::size_t num_grids() const noexcept { return z_.cols(); }

 private:
  LrrModel() = default;  // for from_correlation

  void fit(const Matrix& x0, const LrrOptions& options);

  std::vector<std::size_t> reference_indices_;
  Matrix z_;  ///< n x N.
  double training_residual_ = 0.0;
};

}  // namespace tafloc
