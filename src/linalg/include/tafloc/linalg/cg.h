// Conjugate gradient for symmetric positive (semi-)definite operators
// given only as a matvec callback -- the inner solver of each LoLi-IR
// half-step, where forming the full normal-equation matrix over all of
// vec(L) or vec(R) would be wasteful.
#pragma once

#include <cstddef>
#include <functional>

#include "tafloc/linalg/matrix.h"

namespace tafloc {

/// Options controlling the iteration.
struct CgOptions {
  double relative_tolerance = 1e-10;  ///< stop when ||r|| <= tol * ||b||.
  std::size_t max_iterations = 0;     ///< 0 means "dimension of the system".
};

/// Apply-callback for the SPD operator A: write A x into `out`
/// (pre-sized); must not retain either span.
using LinearOperatorInto =
    std::function<void(std::span<const double> x, std::span<double> out)>;

/// Iteration outcome (the iterate itself lives in the caller's buffer).
struct CgSummary {
  std::size_t iterations = 0;
  bool converged = false;    ///< residual criterion met within the cap.
  double residual_norm = 0.0;
};

/// Reusable scratch for conjugate_gradient_in_place: three work vectors
/// the solver resizes as needed.  Hoist one instance outside an
/// iteration loop (or back it with Workspace leases) and the solver
/// performs no heap allocation after the first call.
struct CgScratch {
  Vector r, p, ap;
};

/// Solve A x = b with allocation-free CG: `x` holds the initial guess
/// on entry (all zeros when no better guess exists) and the final
/// iterate on exit; all temporaries come from `scratch`.  The operator
/// must be symmetric positive (semi-)definite; a breakdown
/// (p^T A p <= 0) stops the iteration with converged == false.
CgSummary conjugate_gradient_in_place(const LinearOperatorInto& apply, std::span<const double> b,
                                      std::span<double> x, CgScratch& scratch,
                                      const CgOptions& options = {});

}  // namespace tafloc
