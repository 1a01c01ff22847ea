#include "tafloc/linalg/io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "tafloc/linalg/ops.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

TEST(LinalgIo, BinaryMatrixRoundTripBitExact) {
  Rng rng(6);
  Matrix m = random_gaussian(4, 6, rng);
  m(1, 2) = std::numeric_limits<double>::quiet_NaN();
  m(2, 0) = -0.0;
  m(3, 5) = std::numeric_limits<double>::infinity();
  storage::ByteWriter w;
  save_matrix_binary(m, w);
  storage::ByteReader r(w.bytes());
  const Matrix back = load_matrix_binary(r);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  // operator== is exact; NaN != NaN, so compare bit patterns instead.
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const double want = m(i, j);
      const double got = back(i, j);
      std::uint64_t a, b;
      std::memcpy(&a, &want, 8);
      std::memcpy(&b, &got, 8);
      EXPECT_EQ(a, b) << "(" << i << "," << j << ")";
    }
  EXPECT_TRUE(r.exhausted());
}

TEST(LinalgIo, BinaryVectorRoundTripBitExact) {
  const Vector v{1.5, -0.0, std::numeric_limits<double>::quiet_NaN()};
  storage::ByteWriter w;
  save_vector_binary(v, w);
  storage::ByteReader r(w.bytes());
  const Vector back = load_vector_binary(r);
  ASSERT_EQ(back.size(), 3u);
  std::uint64_t a, b;
  std::memcpy(&a, &v[2], 8);
  std::memcpy(&b, &back[2], 8);
  EXPECT_EQ(a, b);
}

TEST(LinalgIo, BinaryLoadRejectsAbsurdOrTruncatedInput) {
  // Claimed dimensions far beyond the payload must throw, not allocate.
  storage::ByteWriter w;
  w.put_u64(1ULL << 40);
  w.put_u64(1ULL << 40);
  storage::ByteReader r(w.bytes());
  EXPECT_THROW(load_matrix_binary(r), std::runtime_error);

  storage::ByteWriter w2;
  save_matrix_binary(Matrix(2, 2, 1.0), w2);
  const std::string bytes = w2.take();
  storage::ByteReader r2(std::string_view(bytes).substr(0, bytes.size() - 8));
  EXPECT_THROW(load_matrix_binary(r2), std::runtime_error);

  // A half-empty shape (0 x n, n > 0) is inconsistent.
  storage::ByteWriter w3;
  w3.put_u64(0);
  w3.put_u64(5);
  storage::ByteReader r3(w3.bytes());
  EXPECT_THROW(load_matrix_binary(r3), std::runtime_error);
}

}  // namespace
}  // namespace tafloc
