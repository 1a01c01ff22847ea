#include "tafloc/recon/operators.h"

#include <gtest/gtest.h>

#include "tafloc/linalg/ops.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

/// All-horizontal deployment (two_sided): continuity reduces to
/// east-west pairs for every link, similarity to consecutive links.
Deployment horizontal_deployment(std::size_t num_links = 4) {
  return Deployment::two_sided(1.8, 1.2, 0.6, num_links);
}

TEST(ContinuityPairs, CountForHorizontalLinks) {
  // 3x2 grid: 2 east-west pairs per cell row * 2 rows; per link.
  const Deployment d = horizontal_deployment(5);
  const auto pairs = continuity_pairs(d);
  EXPECT_EQ(pairs.size(), 2u * 2u * 5u);
}

TEST(ContinuityPairs, HorizontalPairsAreEastWestNeighbours) {
  const Deployment d = horizontal_deployment(2);
  const auto pairs = continuity_pairs(d);
  const GridMap& grid = d.grid();
  for (const PairwiseTerm& p : pairs) {
    EXPECT_EQ(p.row1, p.row2);                          // same link
    EXPECT_EQ(p.col2, p.col1 + 1);                      // east neighbour
    EXPECT_EQ(grid.iy_of(p.col1), grid.iy_of(p.col2));  // same cell row
  }
}

TEST(ContinuityPairs, VerticalLinksGetNorthSouthPairs) {
  const Deployment d = Deployment::perimeter(1.8, 1.2, 0.6, 4);
  const GridMap& grid = d.grid();
  const auto pairs = continuity_pairs(d);
  bool saw_vertical_pair = false;
  for (const PairwiseTerm& p : pairs) {
    EXPECT_EQ(p.row1, p.row2);
    if (!d.link_is_horizontal(p.row1)) {
      saw_vertical_pair = true;
      EXPECT_EQ(grid.ix_of(p.col1), grid.ix_of(p.col2));      // same column
      EXPECT_EQ(grid.iy_of(p.col2), grid.iy_of(p.col1) + 1);  // north neighbour
    }
  }
  EXPECT_TRUE(saw_vertical_pair);
}

TEST(ContinuityPairs, MaskRestrictsToDistortedSupport) {
  const Deployment d = Deployment::two_sided(1.8, 0.6, 0.6, 2);  // 3x1 grid
  Matrix b(2, 3, 1.0);
  b(0, 0) = 0.0;
  b(0, 1) = 0.0;  // only link 0's pair (0,1) fully distorted
  const auto pairs = continuity_pairs(d, &b);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].row1, 0u);
  EXPECT_EQ(pairs[0].col1, 0u);
  EXPECT_EQ(pairs[0].col2, 1u);
}

TEST(ContinuityPairs, MaskShapeValidated) {
  const Deployment d = horizontal_deployment(2);
  const Matrix b(3, 3, 1.0);
  EXPECT_THROW(continuity_pairs(d, &b), std::invalid_argument);
}

TEST(SimilarityPairs, UsesAdjacentParallelLinks) {
  const Deployment d = horizontal_deployment(4);  // 4 parallel links
  const auto pairs = similarity_pairs(d);
  // adjacent pairs: (0,1), (1,2), (2,3); 6 grids each.
  EXPECT_EQ(pairs.size(), 3u * d.num_grids());
  for (const PairwiseTerm& p : pairs) {
    EXPECT_EQ(p.col1, p.col2);
    EXPECT_EQ(p.row2, p.row1 + 1);
  }
}

TEST(SimilarityPairs, NeverMixesOrientations) {
  const Deployment d = Deployment::perimeter(2.4, 2.4, 0.6, 6);
  for (const PairwiseTerm& p : similarity_pairs(d)) {
    EXPECT_EQ(d.link_is_horizontal(p.row1), d.link_is_horizontal(p.row2));
  }
}

TEST(SimilarityPairs, MaskRestricts) {
  const Deployment d = horizontal_deployment(3);
  const std::size_t n = d.num_grids();
  Matrix b(3, n, 1.0);
  b(0, 0) = 0.0;
  b(1, 0) = 0.0;
  const auto pairs = similarity_pairs(d, &b);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].row1, 0u);
  EXPECT_EQ(pairs[0].row2, 1u);
  EXPECT_EQ(pairs[0].col1, 0u);
}

TEST(AdjacentLinkPairs, TwoSidedChain) {
  const Deployment d = horizontal_deployment(4);
  const auto pairs = d.adjacent_link_pairs();
  // Links evenly spaced: nearest parallel neighbour chains them.
  ASSERT_EQ(pairs.size(), 3u);
  for (const auto& [a, b] : pairs) EXPECT_EQ(b, a + 1);
}

TEST(AdjacentLinkPairs, PerimeterSeparatesGroups) {
  const Deployment d = Deployment::perimeter(2.4, 2.4, 0.6, 8);  // 4 h + 4 v
  for (const auto& [a, b] : d.adjacent_link_pairs()) {
    EXPECT_EQ(d.link_is_horizontal(a), d.link_is_horizontal(b));
  }
}

TEST(ContinuityOperator, EnergyMatchesPairwiseSumForHorizontalLinks) {
  const Deployment d = horizontal_deployment(4);
  Rng rng(1);
  const Matrix x = random_gaussian(4, d.num_grids(), rng);
  const Matrix g = continuity_operator(d.grid());
  const Matrix xg = x * g;
  const double op_energy = xg.frobenius_norm() * xg.frobenius_norm();
  const double pair_energy = pairwise_energy(x, continuity_pairs(d));
  EXPECT_NEAR(op_energy, pair_energy, 1e-9);
}

TEST(SimilarityOperator, EnergyMatchesPairwiseSumForParallelLinks) {
  const Deployment d = horizontal_deployment(5);
  Rng rng(2);
  const Matrix x = random_gaussian(5, d.num_grids(), rng);
  const Matrix h = similarity_operator(5);
  const Matrix hx = h * x;
  const double op_energy = hx.frobenius_norm() * hx.frobenius_norm();
  const double pair_energy = pairwise_energy(x, similarity_pairs(d));
  EXPECT_NEAR(op_energy, pair_energy, 1e-9);
}

TEST(ContinuityOperator, AnnihilatesRowConstantMatrices) {
  const GridMap grid(2.4, 1.2, 0.6);
  Matrix x(3, grid.num_cells());
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < grid.num_cells(); ++j) x(i, j) = static_cast<double>(i);
  const Matrix xg = x * continuity_operator(grid);
  EXPECT_LT(xg.max_abs(), 1e-12);
}

TEST(SimilarityOperator, AnnihilatesColumnConstantMatrices) {
  Matrix x(4, 5);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 5; ++j) x(i, j) = static_cast<double>(j);
  const Matrix hx = similarity_operator(4) * x;
  EXPECT_LT(hx.max_abs(), 1e-12);
}

TEST(PairwiseEnergy, KnownValue) {
  const Matrix x = Matrix::from_rows({{1.0, 4.0}});
  const std::vector<PairwiseTerm> pairs{{0, 0, 0, 1}};
  EXPECT_DOUBLE_EQ(pairwise_energy(x, pairs), 9.0);
}

TEST(PairwiseEnergy, EmptyPairsIsZero) {
  const Matrix x(2, 2, 1.0);
  EXPECT_DOUBLE_EQ(pairwise_energy(x, {}), 0.0);
}

TEST(Operators, SimilarityOperatorRejectsSingleLink) {
  EXPECT_THROW(similarity_operator(1), std::invalid_argument);
}

}  // namespace
}  // namespace tafloc
