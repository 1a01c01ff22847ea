#include "tafloc/recon/lrr.h"

#include "tafloc/linalg/lsq.h"
#include "tafloc/telemetry/metrics.h"
#include "tafloc/telemetry/span.h"
#include "tafloc/util/check.h"

namespace tafloc {

LrrModel::LrrModel(const Matrix& x0, std::vector<std::size_t> reference_indices, double ridge)
    : LrrModel(x0, std::move(reference_indices), [&] {
        LrrOptions o;
        o.ridge = ridge;
        return o;
      }()) {}

LrrModel::LrrModel(const Matrix& x0, std::vector<std::size_t> reference_indices,
                   const LrrOptions& options)
    : reference_indices_(std::move(reference_indices)) {
  TAFLOC_CHECK_ARG(!x0.empty(), "initial fingerprint matrix must be non-empty");
  TAFLOC_CHECK_ARG(!reference_indices_.empty(), "LRR needs at least one reference column");
  for (std::size_t idx : reference_indices_)
    TAFLOC_CHECK_BOUNDS(idx, x0.cols(), "reference column index");
  fit(x0, options);
}

LrrModel LrrModel::from_correlation(Matrix z, std::vector<std::size_t> reference_indices) {
  TAFLOC_CHECK_ARG(!z.empty(), "correlation matrix must be non-empty");
  TAFLOC_CHECK_ARG(z.rows() == reference_indices.size(),
                   "correlation matrix must have one row per reference index");
  for (std::size_t idx : reference_indices)
    TAFLOC_CHECK_BOUNDS(idx, z.cols(), "reference column index");
  LrrModel model;
  model.z_ = std::move(z);
  model.reference_indices_ = std::move(reference_indices);
  model.training_residual_ = 0.0;  // unknown without the training data
  return model;
}

void LrrModel::fit(const Matrix& x0, const LrrOptions& options) {
  TAFLOC_CHECK_ARG(options.ridge > 0.0, "LRR ridge must be positive");
  ScopedSpan fit_span(options.telemetry, "recon.lrr.fit_seconds");
  Matrix xr0(x0.rows(), reference_indices_.size());
  gather_columns_into(x0.view(), reference_indices_, xr0.view());
  z_ = solve_ridge_matrix(xr0, x0, options.ridge);

  const Matrix fit_matrix = xr0 * z_;
  const double denom = x0.frobenius_norm();
  training_residual_ = denom > 0.0 ? (fit_matrix - x0).frobenius_norm() / denom : 0.0;
  if (options.telemetry != nullptr && options.telemetry->enabled()) {
    options.telemetry->counter("recon.lrr.fits").add();
    options.telemetry->gauge("recon.lrr.training_residual").set(training_residual_);
  }
}

Matrix LrrModel::predict(const Matrix& fresh_reference_columns) const {
  TAFLOC_CHECK_ARG(fresh_reference_columns.cols() == reference_indices_.size(),
                   "reference column count mismatch");
  return fresh_reference_columns * z_;
}

}  // namespace tafloc
