#include "tafloc/linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "tafloc/util/check.h"

namespace tafloc {

namespace {

/// One-sided Jacobi on a tall (m >= n) matrix `a`, returning U (m x n),
/// sigma (n) and V (n x n) with a = U diag(sigma) V^T, unsorted.
struct JacobiOut {
  Matrix u;
  Vector sigma;
  Matrix v;
};

JacobiOut one_sided_jacobi(Matrix a, const SvdOptions& options) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix v = Matrix::identity(n);

  // Column dot products are recomputed per pair; columns are accessed
  // strided, so cache a column-major copy for locality.
  Matrix at = a.transposed();  // n x m, row j = column j of a

  bool converged = false;
  for (std::size_t sweep = 0; sweep < options.max_sweeps && !converged; ++sweep) {
    converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          const double ap = at(p, i);
          const double aq = at(q, i);
          alpha += ap * ap;
          beta += aq * aq;
          gamma += ap * aq;
        }
        if (std::abs(gamma) <= options.tolerance * std::sqrt(alpha * beta)) continue;
        converged = false;

        // Jacobi rotation that zeroes the (p, q) Gram entry.
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;

        for (std::size_t i = 0; i < m; ++i) {
          const double ap = at(p, i);
          const double aq = at(q, i);
          at(p, i) = c * ap - s * aq;
          at(q, i) = s * ap + c * aq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p);
          const double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
  }
  if (!converged) {
    // One extra check: treat as converged if the worst pair is tiny in
    // absolute terms (handles denormal-scale matrices); otherwise fail.
    double worst = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) {
        double gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) gamma += at(p, i) * at(q, i);
        worst = std::max(worst, std::abs(gamma));
      }
    if (worst > 1e-8) throw std::runtime_error("svd_decompose: Jacobi sweeps did not converge");
  }

  JacobiOut out;
  out.sigma.assign(n, 0.0);
  out.u = Matrix(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm_sq += at(j, i) * at(j, i);
    const double sigma = std::sqrt(norm_sq);
    out.sigma[j] = sigma;
    if (sigma > 0.0) {
      for (std::size_t i = 0; i < m; ++i) out.u(i, j) = at(j, i) / sigma;
    }
  }
  out.v = std::move(v);
  return out;
}

/// Replace any zero columns of u (from zero singular values) with unit
/// vectors orthogonal to the non-zero columns, so U always has
/// orthonormal columns.
void complete_orthonormal_columns(Matrix& u) {
  const std::size_t m = u.rows();
  const std::size_t k = u.cols();
  for (std::size_t j = 0; j < k; ++j) {
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm_sq += u(i, j) * u(i, j);
    if (norm_sq > 0.5) continue;  // already a unit column
    // Try canonical basis vectors, Gram-Schmidt against all other columns.
    for (std::size_t cand = 0; cand < m; ++cand) {
      Vector e(m, 0.0);
      e[cand] = 1.0;
      for (std::size_t c = 0; c < k; ++c) {
        if (c == j) continue;
        double proj = 0.0;
        for (std::size_t i = 0; i < m; ++i) proj += e[i] * u(i, c);
        for (std::size_t i = 0; i < m; ++i) e[i] -= proj * u(i, c);
      }
      double n2 = 0.0;
      for (double x : e) n2 += x * x;
      if (n2 > 1e-6) {
        const double inv = 1.0 / std::sqrt(n2);
        for (std::size_t i = 0; i < m; ++i) u(i, j) = e[i] * inv;
        break;
      }
    }
  }
}

}  // namespace

SvdResult svd_decompose(const Matrix& a, const SvdOptions& options) {
  TAFLOC_CHECK_ARG(!a.empty(), "cannot decompose an empty matrix");
  for (double v : a.data())
    TAFLOC_CHECK_ARG(std::isfinite(v), "matrix contains non-finite values");
  TAFLOC_CHECK_ARG(options.tolerance > 0.0, "SVD tolerance must be positive");
  TAFLOC_CHECK_ARG(options.max_sweeps > 0, "SVD sweep cap must be positive");

  const bool transpose = a.rows() < a.cols();
  JacobiOut jac = one_sided_jacobi(transpose ? a.transposed() : a, options);

  // Sort singular triplets descending.
  const std::size_t k = jac.sigma.size();
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return jac.sigma[x] > jac.sigma[y]; });

  SvdResult out;
  out.sigma.assign(k, 0.0);
  Matrix u_sorted(jac.u.rows(), k);
  Matrix v_sorted(jac.v.rows(), k);
  for (std::size_t j = 0; j < k; ++j) {
    out.sigma[j] = jac.sigma[order[j]];
    for (std::size_t i = 0; i < jac.u.rows(); ++i) u_sorted(i, j) = jac.u(i, order[j]);
    for (std::size_t i = 0; i < jac.v.rows(); ++i) v_sorted(i, j) = jac.v(i, order[j]);
  }
  complete_orthonormal_columns(u_sorted);

  if (transpose) {
    out.u = std::move(v_sorted);
    out.v = std::move(u_sorted);
  } else {
    out.u = std::move(u_sorted);
    out.v = std::move(v_sorted);
  }
  return out;
}

Matrix SvdResult::reconstruct(std::size_t rank) const {
  Matrix out;
  reconstruct_into(out, rank);
  return out;
}

void SvdResult::reconstruct_into(Matrix& out, std::size_t rank) const {
  const std::size_t k = sigma.size();
  const std::size_t use = (rank == 0 || rank > k) ? k : rank;
  out.resize(u.rows(), v.rows());
  out.fill(0.0);
  for (std::size_t t = 0; t < use; ++t) {
    const double s = sigma[t];
    if (s == 0.0) continue;
    for (std::size_t i = 0; i < u.rows(); ++i) {
      const double uis = u(i, t) * s;
      if (uis == 0.0) continue;
      for (std::size_t j = 0; j < v.rows(); ++j) out(i, j) += uis * v(j, t);
    }
  }
}

std::size_t SvdResult::numeric_rank(double rel_tol) const {
  TAFLOC_CHECK_ARG(rel_tol >= 0.0, "rank tolerance must be non-negative");
  if (sigma.empty() || sigma[0] == 0.0) return 0;
  std::size_t rank = 0;
  for (double s : sigma)
    if (s > rel_tol * sigma[0]) ++rank;
  return rank;
}

double SvdResult::nuclear_norm() const noexcept {
  double s = 0.0;
  for (double x : sigma) s += x;
  return s;
}

}  // namespace tafloc
