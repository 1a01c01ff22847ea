// Continuity and similarity structure (fingerprint property iii).
//
// The paper encodes them as matrix operators: ||X_D G||_F^2 penalizes
// differences between a link's RSS at *neighbouring locations along the
// link* (G acts on columns), and ||H X_D||_F^2 penalizes differences
// between *adjacent links* at the same location (H acts on rows).
// Because X_D is only the largely-distorted part, the operators are
// really sets of entry pairs restricted to the distorted support;
// LoLi-IR consumes them in that pairwise form:
//
//  - continuity: for each link, grid-neighbour pairs along the link's
//    dominant axis (west-east pairs for horizontal links, south-north
//    pairs for vertical ones);
//  - similarity: for each spatially adjacent parallel link pair, the
//    same-grid entry pair.
//
// Dense unmasked G and H builders matching the paper's notation are
// exposed too (tests + ablations; they assume horizontal links).
#pragma once

#include <cstddef>
#include <vector>

#include "tafloc/linalg/matrix.h"
#include "tafloc/sim/deployment.h"
#include "tafloc/sim/grid.h"

namespace tafloc {

/// One quadratic penalty (X(row1, col1) - X(row2, col2))^2.
struct PairwiseTerm {
  std::size_t row1, col1;
  std::size_t row2, col2;
};

/// Continuity pairs for a deployment: per link, neighbouring-grid pairs
/// along the link's dominant axis.  When `undistorted` (the 0/1 mask B,
/// links x grids) is non-null, only pairs with BOTH entries in the
/// distorted support (B == 0) are emitted (the paper's X_D restriction).
std::vector<PairwiseTerm> continuity_pairs(const Deployment& deployment,
                                           const Matrix* undistorted = nullptr);

/// Similarity pairs for a deployment: per adjacent parallel link pair
/// (Deployment::adjacent_link_pairs), the same-grid entry pairs;
/// optionally restricted to the distorted support of B.
std::vector<PairwiseTerm> similarity_pairs(const Deployment& deployment,
                                           const Matrix* undistorted = nullptr);

/// Dense continuity operator G (N x P, one column per east-west
/// neighbour pair): column p has +1 at the pair's first grid and -1 at
/// the second, so ||X G||_F^2 sums squared differences along rows.
Matrix continuity_operator(const GridMap& grid);

/// Dense similarity operator H (Q x M, one row per consecutive link
/// pair): ||H X||_F^2 sums squared differences across adjacent rows.
Matrix similarity_operator(std::size_t num_links);

/// Sum of squared pairwise differences of `x` over `pairs` (the value
/// the operators above measure; used by tests and the objective).
double pairwise_energy(const Matrix& x, const std::vector<PairwiseTerm>& pairs);

/// Pairwise energy of the *correction field* x - anchor: sum over pairs
/// of ((x_a - x_b) - (anchor_a - anchor_b))^2.  LoLi-IR penalizes this
/// rather than the raw differences: the LRR prediction (anchor) carries
/// the systematic spatial gradient of the attenuation, and property iii
/// says the *remaining deviation* varies smoothly.
double pairwise_energy_relative(const Matrix& x, const Matrix& anchor,
                                const std::vector<PairwiseTerm>& pairs);

}  // namespace tafloc
