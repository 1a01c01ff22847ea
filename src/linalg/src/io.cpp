#include "tafloc/linalg/io.h"

#include <stdexcept>
#include <string>

namespace tafloc {

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("linalg load: malformed input: " + what);
}

}  // namespace

void save_matrix_binary(const Matrix& m, storage::ByteWriter& out) {
  out.put_u64(m.rows());
  out.put_u64(m.cols());
  for (const double x : m.data()) out.put_f64(x);
}

Matrix load_matrix_binary(storage::ByteReader& in) {
  const std::uint64_t rows = in.get_u64();
  const std::uint64_t cols = in.get_u64();
  if (rows > kMaxLoadElements || cols > kMaxLoadElements ||
      (cols != 0 && rows > kMaxLoadElements / cols))
    malformed("absurd binary matrix dimensions");
  if ((rows == 0) != (cols == 0)) malformed("half-empty binary matrix shape");
  in.require_elements(rows * cols, 8, "binary matrix values");
  if (rows == 0) return Matrix();
  Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (double& x : m.data()) x = in.get_f64();
  return m;
}

void save_vector_binary(std::span<const double> v, storage::ByteWriter& out) {
  out.put_f64_span(v);
}

Vector load_vector_binary(storage::ByteReader& in) { return in.get_f64_vector(); }

}  // namespace tafloc
