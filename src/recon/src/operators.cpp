#include "tafloc/recon/operators.h"

#include "tafloc/util/check.h"

namespace tafloc {

namespace {

void check_mask(const Matrix* b, std::size_t num_links, std::size_t num_grids) {
  if (b == nullptr) return;
  TAFLOC_CHECK_ARG(b->rows() == num_links && b->cols() == num_grids,
                   "mask shape must be links x grids");
}

bool pair_distorted(const Matrix* b, std::size_t link, std::size_t j1, std::size_t j2) {
  return b == nullptr || ((*b)(link, j1) == 0.0 && (*b)(link, j2) == 0.0);
}

}  // namespace

std::vector<PairwiseTerm> continuity_pairs(const Deployment& deployment,
                                           const Matrix* undistorted) {
  const GridMap& grid = deployment.grid();
  const std::size_t m = deployment.num_links();
  check_mask(undistorted, m, grid.num_cells());

  std::vector<PairwiseTerm> pairs;
  for (std::size_t i = 0; i < m; ++i) {
    if (deployment.link_is_horizontal(i)) {
      for (std::size_t iy = 0; iy < grid.ny(); ++iy) {
        for (std::size_t ix = 0; ix + 1 < grid.nx(); ++ix) {
          const std::size_t j1 = grid.index(ix, iy);
          const std::size_t j2 = grid.index(ix + 1, iy);
          if (pair_distorted(undistorted, i, j1, j2)) pairs.push_back(PairwiseTerm{i, j1, i, j2});
        }
      }
    } else {
      for (std::size_t ix = 0; ix < grid.nx(); ++ix) {
        for (std::size_t iy = 0; iy + 1 < grid.ny(); ++iy) {
          const std::size_t j1 = grid.index(ix, iy);
          const std::size_t j2 = grid.index(ix, iy + 1);
          if (pair_distorted(undistorted, i, j1, j2)) pairs.push_back(PairwiseTerm{i, j1, i, j2});
        }
      }
    }
  }
  return pairs;
}

std::vector<PairwiseTerm> similarity_pairs(const Deployment& deployment,
                                           const Matrix* undistorted) {
  const std::size_t n = deployment.num_grids();
  check_mask(undistorted, deployment.num_links(), n);

  std::vector<PairwiseTerm> pairs;
  for (const auto& [i1, i2] : deployment.adjacent_link_pairs()) {
    for (std::size_t j = 0; j < n; ++j) {
      if (undistorted != nullptr &&
          ((*undistorted)(i1, j) != 0.0 || (*undistorted)(i2, j) != 0.0))
        continue;
      pairs.push_back(PairwiseTerm{i1, j, i2, j});
    }
  }
  return pairs;
}

Matrix continuity_operator(const GridMap& grid) {
  const std::size_t n = grid.num_cells();
  const std::size_t pairs_per_row = grid.nx() - 1;
  TAFLOC_CHECK_ARG(pairs_per_row >= 1, "grid needs at least two cells per row");
  const std::size_t p = pairs_per_row * grid.ny();
  Matrix g(n, p);
  std::size_t col = 0;
  for (std::size_t iy = 0; iy < grid.ny(); ++iy) {
    for (std::size_t ix = 0; ix + 1 < grid.nx(); ++ix) {
      g(grid.index(ix, iy), col) = 1.0;
      g(grid.index(ix + 1, iy), col) = -1.0;
      ++col;
    }
  }
  return g;
}

Matrix similarity_operator(std::size_t num_links) {
  TAFLOC_CHECK_ARG(num_links >= 2, "similarity operator needs at least two links");
  Matrix h(num_links - 1, num_links);
  for (std::size_t i = 0; i + 1 < num_links; ++i) {
    h(i, i) = 1.0;
    h(i, i + 1) = -1.0;
  }
  return h;
}

double pairwise_energy(const Matrix& x, const std::vector<PairwiseTerm>& pairs) {
  double s = 0.0;
  for (const PairwiseTerm& p : pairs) {
    const double d = x(p.row1, p.col1) - x(p.row2, p.col2);
    s += d * d;
  }
  return s;
}

double pairwise_energy_relative(const Matrix& x, const Matrix& anchor,
                                const std::vector<PairwiseTerm>& pairs) {
  TAFLOC_CHECK_ARG(anchor.same_shape(x), "anchor shape must match x");
  double s = 0.0;
  for (const PairwiseTerm& p : pairs) {
    const double d = (x(p.row1, p.col1) - x(p.row2, p.col2)) -
                     (anchor(p.row1, p.col1) - anchor(p.row2, p.col2));
    s += d * d;
  }
  return s;
}

}  // namespace tafloc
