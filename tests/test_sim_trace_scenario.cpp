#include <gtest/gtest.h>

#include <set>

#include "tafloc/sim/scenario.h"
#include "tafloc/sim/trace.h"

namespace tafloc {
namespace {

TEST(Trace, RandomPositionsInsideArea) {
  const GridMap g(7.2, 4.8, 0.6);
  Rng rng(1);
  const auto pts = random_positions(g, 200, rng);
  ASSERT_EQ(pts.size(), 200u);
  for (const Point2& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 7.2);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 4.8);
  }
}

TEST(Trace, RandomPositionsAreContinuous) {
  // Fine-grained evaluation: positions should generally NOT coincide
  // with grid centres.
  const GridMap g(6.0, 6.0, 0.6);
  Rng rng(2);
  const auto pts = random_positions(g, 50, rng);
  int on_center = 0;
  for (const Point2& p : pts) {
    const auto cell = g.cell_of(p);
    ASSERT_TRUE(cell.has_value());
    if (distance(p, g.center(*cell)) < 1e-9) ++on_center;
  }
  EXPECT_EQ(on_center, 0);
}

TEST(Trace, RandomPositionsRejectsZeroCount) {
  const GridMap g(6.0, 6.0, 0.6);
  Rng rng(1);
  EXPECT_THROW(random_positions(g, 0, rng), std::invalid_argument);
}

TEST(Trace, RandomGridSequenceDistinctAndInRange) {
  const GridMap g(6.0, 6.0, 0.6);
  Rng rng(3);
  const auto seq = random_grid_sequence(g, 30, rng);
  ASSERT_EQ(seq.size(), 30u);
  std::set<std::size_t> unique(seq.begin(), seq.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t j : seq) EXPECT_LT(j, g.num_cells());
}

TEST(Trace, WaypointWalkStaysInsideAndMovesSmoothly) {
  const GridMap g(7.2, 4.8, 0.6);
  Rng rng(4);
  const double speed = 1.0, dt = 0.5;
  const auto walk = waypoint_walk(g, 100, speed, dt, rng);
  ASSERT_EQ(walk.size(), 100u);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    EXPECT_GE(walk[i].x, 0.0);
    EXPECT_LE(walk[i].x, 7.2);
    EXPECT_GE(walk[i].y, 0.0);
    EXPECT_LE(walk[i].y, 4.8);
    if (i > 0) {
      EXPECT_LE(distance(walk[i], walk[i - 1]), speed * dt + 1e-9);
    }
  }
}

TEST(Trace, WaypointWalkRejectsBadParameters) {
  const GridMap g(6.0, 6.0, 0.6);
  Rng rng(5);
  EXPECT_THROW(waypoint_walk(g, 0, 1.0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(waypoint_walk(g, 10, 0.0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(waypoint_walk(g, 10, 1.0, 0.0, rng), std::invalid_argument);
}

TEST(Scenario, PaperRoomBundleIsConsistent) {
  const Scenario s = Scenario::paper_room(7);
  EXPECT_EQ(s.deployment().num_links(), 10u);
  EXPECT_EQ(s.channel().num_links(), 10u);
  EXPECT_EQ(&s.collector().deployment(), &s.deployment());
  EXPECT_EQ(&s.collector().channel(), &s.channel());
}

TEST(Scenario, SquareAreaBundle) {
  const Scenario s = Scenario::square_area(12.0, 7);
  EXPECT_EQ(s.deployment().num_links(), 20u);
  EXPECT_EQ(s.deployment().num_grids(), 400u);
}

TEST(Scenario, SameSeedSameChannel) {
  const Scenario a = Scenario::paper_room(5);
  const Scenario b = Scenario::paper_room(5);
  EXPECT_DOUBLE_EQ(a.channel().expected_rss(3, Point2{1.0, 1.0}, 20.0),
                   b.channel().expected_rss(3, Point2{1.0, 1.0}, 20.0));
}

TEST(Scenario, DifferentSeedDifferentDrift) {
  const Scenario a = Scenario::paper_room(5);
  const Scenario b = Scenario::paper_room(6);
  EXPECT_NE(a.channel().expected_rss(3, std::nullopt, 45.0),
            b.channel().expected_rss(3, std::nullopt, 45.0));
}

}  // namespace
}  // namespace tafloc
