#include "tafloc/storage/codec.h"

#include <stdexcept>

namespace tafloc::storage {

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("storage payload: malformed input: " + what);
}

}  // namespace

void ByteWriter::put_u32(std::uint32_t v) {
  char bytes[4] = {};
  store_le(bytes, v);
  buf_.append(bytes, sizeof bytes);
}

void ByteWriter::put_u64(std::uint64_t v) {
  char bytes[8] = {};
  store_le(bytes, v);
  buf_.append(bytes, sizeof bytes);
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  buf_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

void ByteWriter::put_f64_span(std::span<const double> values) {
  put_u64(values.size());
  for (const double v : values) put_f64(v);
}

void ByteWriter::put_size_span(std::span<const std::size_t> values) {
  put_u64(values.size());
  for (const std::size_t v : values) put_u64(v);
}

void ByteWriter::put_u8_span(std::span<const std::uint8_t> values) {
  put_u64(values.size());
  put_bytes(values);
}

void ByteReader::need(std::size_t n, const char* what) const {
  if (data_.size() - pos_ < n) malformed(std::string(what) + " (truncated payload)");
}

std::uint8_t ByteReader::get_u8() {
  need(1, "u8");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::get_u32() {
  need(4, "u32");
  const auto v = load_le<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::get_u64() {
  need(8, "u64");
  const auto v = load_le<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

void ByteReader::require_elements(std::uint64_t count, std::size_t elem_size,
                                  const char* what) const {
  if (count > kMaxElements) malformed(std::string(what) + " (absurd element count)");
  if (count * elem_size > data_.size() - pos_)
    malformed(std::string(what) + " (declared size exceeds payload)");
}

std::vector<double> ByteReader::get_f64_vector() {
  const std::uint64_t n = get_u64();
  require_elements(n, 8, "f64 vector");
  std::vector<double> out(static_cast<std::size_t>(n));
  for (double& v : out) v = get_f64();
  return out;
}

std::vector<std::size_t> ByteReader::get_size_vector() {
  const std::uint64_t n = get_u64();
  require_elements(n, 8, "size vector");
  std::vector<std::size_t> out(static_cast<std::size_t>(n));
  for (std::size_t& v : out) v = static_cast<std::size_t>(get_u64());
  return out;
}

std::vector<std::uint8_t> ByteReader::get_u8_vector() {
  const std::string_view bytes = get_u8_view();
  return {bytes.begin(), bytes.end()};
}

std::string_view ByteReader::get_u8_view() {
  const std::uint64_t n = get_u64();
  require_elements(n, 1, "u8 vector");
  const std::string_view bytes = data_.substr(pos_, static_cast<std::size_t>(n));
  pos_ += bytes.size();
  return bytes;
}

void ByteReader::expect_exhausted(const char* what) const {
  if (pos_ != data_.size())
    malformed(std::string(what) + " (trailing bytes after payload)");
}

}  // namespace tafloc::storage
