#include "tafloc/linalg/cg.h"

#include <cmath>

#include "tafloc/linalg/vector_ops.h"
#include "tafloc/util/check.h"

namespace tafloc {

CgSummary conjugate_gradient_in_place(const LinearOperatorInto& apply, std::span<const double> b,
                                      std::span<double> x, CgScratch& scratch,
                                      const CgOptions& options) {
  TAFLOC_CHECK_ARG(static_cast<bool>(apply), "CG needs a non-empty operator");
  TAFLOC_CHECK_ARG(b.size() == x.size(), "initial guess length mismatch");
  TAFLOC_CHECK_ARG(!b.empty(), "CG system must be non-empty");
  TAFLOC_CHECK_ARG(options.relative_tolerance > 0.0, "CG tolerance must be positive");

  const std::size_t n = b.size();
  const std::size_t max_iter = options.max_iterations == 0 ? n : options.max_iterations;

  Vector& r = scratch.r;
  Vector& p = scratch.p;
  Vector& ap = scratch.ap;
  r.resize(n);
  p.resize(n);
  ap.resize(n);

  CgSummary out;

  apply(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

  const double b_norm = norm2(b);
  const double threshold = options.relative_tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  double r_dot = dot(r, r);
  out.residual_norm = std::sqrt(r_dot);
  if (out.residual_norm <= threshold) {
    out.converged = true;
    return out;
  }

  std::copy(r.begin(), r.end(), p.begin());
  for (std::size_t it = 0; it < max_iter; ++it) {
    apply(p, ap);
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) break;  // operator not SPD on this subspace
    const double alpha = r_dot / p_ap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const double r_dot_new = dot(r, r);
    ++out.iterations;
    out.residual_norm = std::sqrt(r_dot_new);
    if (out.residual_norm <= threshold) {
      out.converged = true;
      return out;
    }
    const double beta = r_dot_new / r_dot;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    r_dot = r_dot_new;
  }
  return out;
}

}  // namespace tafloc