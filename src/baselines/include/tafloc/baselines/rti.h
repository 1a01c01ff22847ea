// RTI -- Radio Tomographic Imaging (Wilson & Patwari, IEEE TMC 2010),
// the model-based comparator in the paper's Fig. 5.
//
// RTI inverts the per-link RSS *change* y = ambient - current into an
// attenuation image x over the grid:
//
//   y = W x + n,   W(i, j) = 1 / sqrt(d_i)   if grid j lies inside
//                             link i's excess-path ellipse (width lambda),
//                             0 otherwise
//
// regularized least squares (Tikhonov with a spatial smoothness prior):
//
//   x^ = (W^T W + alpha (Dx^T Dx + Dy^T Dy) + eps I)^{-1} W^T y
//
// The target estimate is the attenuation-weighted centroid of the
// top-valued pixels.  RTI needs no fingerprint survey at all -- but its
// accuracy is bounded by the imaging resolution and by multipath model
// error, which is why the paper finds it coarser than fingerprinting.
//
// The N x N normal matrix is Cholesky-factored once at construction, so
// each image costs one sparse W^T y plus two triangular solves.
#pragma once

#include <cstddef>

#include "tafloc/linalg/matrix.h"
#include "tafloc/linalg/sparse.h"
#include "tafloc/loc/localizer.h"
#include "tafloc/sim/deployment.h"

namespace tafloc {

struct RtiConfig {
  double ellipse_width_m = 0.4;   ///< lambda: excess-path width of the weight ellipse.
  double regularization = 3.0;    ///< alpha: smoothness prior weight.
  double ridge = 1e-3;            ///< eps: keeps the normal matrix SPD.
  double top_fraction = 0.08;     ///< fraction of brightest pixels in the centroid.
};

class RtiLocalizer : public Localizer {
 public:
  /// `ambient` is the current target-free RSS per link (same order as
  /// deployment links).  The weight model and the factored regularized
  /// normal matrix are precomputed here.
  RtiLocalizer(const Deployment& deployment, Vector ambient, const RtiConfig& config = {});

  Point2 localize(std::span<const double> rss) const override;
  std::string name() const override { return "RTI"; }

  /// Reconstructed attenuation image for an observation (tests / demos).
  Vector image(std::span<const double> rss) const;

  /// Dense weight model (M x N).
  const Matrix& weight_model() const noexcept { return w_dense_; }

 private:
  GridMap grid_;
  Vector ambient_;
  RtiConfig config_;
  /// M x N ellipse weight model.  image() forms W^T y from the sparse
  /// form, so a NaN on one link reaches only the pixels in its ellipse.
  SparseMatrix w_sparse_;
  Matrix w_dense_;
  Matrix chol_;  ///< Cholesky factor of the regularized normal matrix.
};

}  // namespace tafloc
