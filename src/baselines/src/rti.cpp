#include "tafloc/baselines/rti.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tafloc/linalg/cholesky.h"
#include "tafloc/util/check.h"

namespace tafloc {

RtiLocalizer::RtiLocalizer(const Deployment& deployment, Vector ambient, const RtiConfig& config)
    : grid_(deployment.grid()), ambient_(std::move(ambient)), config_(config) {
  TAFLOC_CHECK_ARG(ambient_.size() == deployment.num_links(),
                   "ambient vector must have one entry per link");
  TAFLOC_CHECK_ARG(config.ellipse_width_m > 0.0, "ellipse width must be positive");
  TAFLOC_CHECK_ARG(config.regularization >= 0.0, "regularization must be non-negative");
  TAFLOC_CHECK_ARG(config.ridge > 0.0, "ridge must be positive");
  TAFLOC_CHECK_ARG(config.top_fraction > 0.0 && config.top_fraction <= 1.0,
                   "top fraction must be in (0, 1]");

  const std::size_t m = deployment.num_links();
  const std::size_t n = grid_.num_cells();

  // Ellipse weight model, assembled sparse (each link covers a band).
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < m; ++i) {
    const Segment& link = deployment.links()[i];
    const double inv_sqrt_d = 1.0 / std::sqrt(std::max(link.length(), 1e-6));
    for (std::size_t j = 0; j < n; ++j) {
      if (within_link_ellipse(grid_.center(j), link, config.ellipse_width_m))
        triplets.push_back({i, j, inv_sqrt_d});
    }
  }
  w_sparse_ = SparseMatrix(m, n, std::move(triplets));

  w_dense_ = w_sparse_.to_dense();
  // Regularized normal matrix Q = W^T W + alpha * Laplacian + eps I,
  // where the Laplacian sums (e_a - e_b)(e_a - e_b)^T over 4-neighbour
  // grid pairs (the Dx^T Dx + Dy^T Dy 'difference image' prior).
  Matrix q(n, n);
  gram_product_into(w_dense_.view(), w_dense_.view(), q.view());
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t nb : grid_.neighbors4(j)) {
      if (nb < j) continue;  // count each pair once
      q(j, j) += config.regularization;
      q(nb, nb) += config.regularization;
      q(j, nb) -= config.regularization;
      q(nb, j) -= config.regularization;
    }
    q(j, j) += config.ridge;
  }
  chol_ = cholesky_factor(q);
}

Vector RtiLocalizer::image(std::span<const double> rss) const {
  TAFLOC_CHECK_ARG(rss.size() == ambient_.size(), "observation length mismatch");
  // y = RSS change attributable to the target (positive = attenuation).
  Vector y(rss.size());
  for (std::size_t i = 0; i < rss.size(); ++i) y[i] = ambient_[i] - rss[i];
  return cholesky_solve(chol_, w_sparse_.multiply_transposed(y));
}

Point2 RtiLocalizer::localize(std::span<const double> rss) const {
  const Vector img = image(rss);
  const std::size_t n = img.size();
  const auto top =
      std::max<std::size_t>(1, static_cast<std::size_t>(config_.top_fraction *
                                                        static_cast<double>(n)));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(top), order.end(),
                    [&](std::size_t a, std::size_t b) { return img[a] > img[b]; });

  double wx = 0.0, wy = 0.0, wsum = 0.0;
  for (std::size_t k = 0; k < top; ++k) {
    const std::size_t j = order[k];
    const double weight = std::max(img[j], 0.0);
    const Point2 c = grid_.center(j);
    wx += weight * c.x;
    wy += weight * c.y;
    wsum += weight;
  }
  if (wsum <= 0.0) return grid_.center(order[0]);  // flat image: fall back to the brightest pixel
  return {wx / wsum, wy / wsum};
}

}  // namespace tafloc
