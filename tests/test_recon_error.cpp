#include "tafloc/recon/error.h"

#include <gtest/gtest.h>

#include <cmath>

namespace tafloc {
namespace {

TEST(ReconError, EntrywiseAbsErrors) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix b = Matrix::from_rows({{1.5, 2.0}, {2.0, 6.0}});
  const auto errs = entrywise_abs_errors(a, b);
  ASSERT_EQ(errs.size(), 4u);
  EXPECT_DOUBLE_EQ(errs[0], 0.5);
  EXPECT_DOUBLE_EQ(errs[1], 0.0);
  EXPECT_DOUBLE_EQ(errs[2], 1.0);
  EXPECT_DOUBLE_EQ(errs[3], 2.0);
}

TEST(ReconError, MeanAbsError) {
  const Matrix a = Matrix::from_rows({{0.0, 0.0}});
  const Matrix b = Matrix::from_rows({{3.0, 1.0}});
  EXPECT_DOUBLE_EQ(mean_abs_error(a, b), 2.0);
}

TEST(ReconError, RmsError) {
  const Matrix a = Matrix::from_rows({{0.0, 0.0}});
  const Matrix b = Matrix::from_rows({{3.0, 4.0}});
  EXPECT_NEAR(rms_error(a, b), std::sqrt(12.5), 1e-12);
}

TEST(ReconError, IdenticalMatricesZeroError) {
  const Matrix a(3, 4, 2.5);
  EXPECT_DOUBLE_EQ(mean_abs_error(a, a), 0.0);
  EXPECT_DOUBLE_EQ(rms_error(a, a), 0.0);
}

TEST(ReconError, DistortedSubsetOnly) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix b = Matrix::from_rows({{2.0, 2.0}, {3.0, 9.0}});
  DistortionMask mask{Matrix::from_rows({{0.0, 1.0}, {1.0, 0.0}})};
  const auto errs = entrywise_abs_errors_distorted(a, b, mask);
  ASSERT_EQ(errs.size(), 2u);
  EXPECT_DOUBLE_EQ(errs[0], 1.0);  // entry (0,0)
  EXPECT_DOUBLE_EQ(errs[1], 5.0);  // entry (1,1)
}

TEST(ReconError, RejectsShapeMismatch) {
  const Matrix a(2, 2, 0.0);
  const Matrix b(2, 3, 0.0);
  EXPECT_THROW(entrywise_abs_errors(a, b), std::invalid_argument);
  DistortionMask mask{Matrix(3, 3, 1.0)};
  EXPECT_THROW(entrywise_abs_errors_distorted(a, a, mask), std::invalid_argument);
}

TEST(ReconError, RmsAtLeastMean) {
  const Matrix a = Matrix::from_rows({{0.0, 0.0, 0.0}});
  const Matrix b = Matrix::from_rows({{1.0, 5.0, 2.0}});
  EXPECT_GE(rms_error(a, b), mean_abs_error(a, b));
}

}  // namespace
}  // namespace tafloc
