#include "tafloc/linalg/qr.h"

#include <algorithm>
#include <cmath>

#include "tafloc/util/check.h"

namespace tafloc {

namespace {

/// One Householder reflector for column j of `a`, eliminating entries
/// below the diagonal.  Returns (v, beta) with H = I - beta v v^T; v is
/// zero above row j and v[j] = 1.
struct Reflector {
  Vector v;
  double beta = 0.0;
};

Reflector make_reflector(const Matrix& a, std::size_t j) {
  const std::size_t m = a.rows();
  Reflector h;
  h.v.assign(m, 0.0);
  double norm_sq = 0.0;
  for (std::size_t i = j; i < m; ++i) {
    h.v[i] = a(i, j);
    norm_sq += h.v[i] * h.v[i];
  }
  const double alpha = std::sqrt(norm_sq);
  if (alpha == 0.0) {
    h.beta = 0.0;
    return h;
  }
  // Choose the sign that avoids cancellation.
  const double pivot = h.v[j];
  const double sign = pivot >= 0.0 ? 1.0 : -1.0;
  h.v[j] = pivot + sign * alpha;
  double v_norm_sq = norm_sq - pivot * pivot + h.v[j] * h.v[j];
  if (v_norm_sq == 0.0) {
    h.beta = 0.0;
    return h;
  }
  h.beta = 2.0 / v_norm_sq;
  return h;
}

/// Apply H = I - beta v v^T to columns [c0, a.cols()) of `a`.
void apply_reflector(Matrix& a, const Reflector& h, std::size_t c0) {
  if (h.beta == 0.0) return;
  const std::size_t m = a.rows();
  for (std::size_t c = c0; c < a.cols(); ++c) {
    double s = 0.0;
    for (std::size_t i = 0; i < m; ++i) s += h.v[i] * a(i, c);
    s *= h.beta;
    if (s == 0.0) continue;
    for (std::size_t i = 0; i < m; ++i) a(i, c) -= s * h.v[i];
  }
}

/// Accumulate Q (thin, m x k) from the stored reflectors by applying
/// them in reverse to the first k identity columns.
Matrix accumulate_q(const std::vector<Reflector>& reflectors, std::size_t m, std::size_t k) {
  Matrix q(m, k);
  for (std::size_t c = 0; c < k; ++c) q(c, c) = 1.0;
  for (std::size_t step = reflectors.size(); step > 0; --step) {
    apply_reflector(q, reflectors[step - 1], 0);
  }
  return q;
}

Matrix extract_r(const Matrix& a, std::size_t k) {
  Matrix r(k, a.cols());
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i; j < a.cols(); ++j) r(i, j) = a(i, j);
  return r;
}

}  // namespace

QrDecomposition qr_decompose(const Matrix& a) {
  TAFLOC_CHECK_ARG(!a.empty(), "cannot factor an empty matrix");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t k = std::min(m, n);
  Matrix work = a;
  std::vector<Reflector> reflectors;
  reflectors.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    Reflector h = make_reflector(work, j);
    apply_reflector(work, h, j);
    reflectors.push_back(std::move(h));
  }
  return QrDecomposition{accumulate_q(reflectors, m, k), extract_r(work, k)};
}

PivotedQr qr_decompose_pivoted(const Matrix& a) {
  TAFLOC_CHECK_ARG(!a.empty(), "cannot factor an empty matrix");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t k = std::min(m, n);
  Matrix work = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t j = 0; j < n; ++j) perm[j] = j;

  // Squared norms of the trailing (below-step) part of each column,
  // downdated as the factorization proceeds.
  Vector col_norm_sq(n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) col_norm_sq[j] += work(i, j) * work(i, j);

  std::vector<Reflector> reflectors;
  reflectors.reserve(k);

  auto swap_columns = [&](std::size_t c1, std::size_t c2) {
    if (c1 == c2) return;
    for (std::size_t i = 0; i < m; ++i) std::swap(work(i, c1), work(i, c2));
    std::swap(col_norm_sq[c1], col_norm_sq[c2]);
    std::swap(perm[c1], perm[c2]);
  };

  for (std::size_t j = 0; j < k; ++j) {
    // Pivot: bring the column with the largest remaining norm to front.
    std::size_t best = j;
    for (std::size_t c = j + 1; c < n; ++c)
      if (col_norm_sq[c] > col_norm_sq[best]) best = c;
    swap_columns(j, best);

    Reflector h = make_reflector(work, j);
    apply_reflector(work, h, j);
    reflectors.push_back(std::move(h));

    // Downdate trailing column norms; recompute when cancellation makes
    // the running value unreliable.
    for (std::size_t c = j + 1; c < n; ++c) {
      const double rjc = work(j, c);
      col_norm_sq[c] -= rjc * rjc;
      if (col_norm_sq[c] < 1e-12 * std::abs(rjc * rjc) || col_norm_sq[c] < 0.0) {
        double fresh = 0.0;
        for (std::size_t i = j + 1; i < m; ++i) fresh += work(i, c) * work(i, c);
        col_norm_sq[c] = fresh;
      }
    }
  }

  PivotedQr out;
  out.q = accumulate_q(reflectors, m, k);
  out.r = extract_r(work, k);
  out.permutation = std::move(perm);
  return out;
}

std::size_t PivotedQr::rank(double rel_tol) const {
  TAFLOC_CHECK_ARG(rel_tol >= 0.0, "rank tolerance must be non-negative");
  const std::size_t k = std::min(r.rows(), r.cols());
  if (k == 0) return 0;
  const double head = std::abs(r(0, 0));
  if (head == 0.0) return 0;
  std::size_t rank = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (std::abs(r(i, i)) > rel_tol * head) ++rank;
  }
  return rank;
}

}  // namespace tafloc
