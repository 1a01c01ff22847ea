// Bounds-checked binary codec for persisted payloads.
//
// ByteWriter builds a payload byte string; ByteReader walks one and
// throws std::runtime_error the moment a read would run past the end
// or a declared size is absurd -- a truncated or garbage payload can
// never turn into a silent bad_alloc or out-of-bounds read.  Integers
// are little-endian fixed width (store_le/load_le, which the frame
// header in record.h uses too); doubles travel as their IEEE-754 bit
// pattern, so a round trip is bit-exact (NaN payloads included).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tafloc::storage {

/// Upper bound on any single element count declared inside a payload
/// (vector lengths, matrix dims).  Far above anything TafLoc stores,
/// far below what would make a hostile header allocate the machine.
inline constexpr std::uint64_t kMaxElements = 1ull << 28;  // 268M

/// Writes `v` as sizeof(T) little-endian bytes at `out`.  The compiler
/// merges the byte stores into one store (plus a byte swap on a
/// big-endian host).
template <class T>
void store_le(char* out, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) out[i] = static_cast<char>(v >> (8 * i));
}

/// Reads sizeof(T) little-endian bytes at `in`; the inverse of store_le.
template <class T>
T load_le(const char* in) noexcept {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(static_cast<std::uint8_t>(in[i])) << (8 * i);
  return v;
}

class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_bytes(std::span<const std::uint8_t> bytes);

  /// Length-prefixed (u64) sequence of doubles / sizes / bytes.
  void put_f64_span(std::span<const double> values);
  void put_size_span(std::span<const std::size_t> values);
  void put_u8_span(std::span<const std::uint8_t> values);

  const std::string& bytes() const noexcept { return buf_; }
  std::string take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }
  /// Pre-sizes the buffer for `bytes` bytes of output in total.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view payload) : data_(payload) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  double get_f64() { return std::bit_cast<double>(get_u64()); }

  /// Length-prefixed counterparts of the writer's span forms; the
  /// declared length is validated against kMaxElements AND the bytes
  /// actually remaining before anything is allocated.
  std::vector<double> get_f64_vector();
  std::vector<std::size_t> get_size_vector();
  std::vector<std::uint8_t> get_u8_vector();
  /// get_u8_vector() without the copy: the bytes as a view into the
  /// payload, valid for as long as the payload is.
  std::string_view get_u8_view();

  /// Declared-count guard for callers that encode their own shapes:
  /// throws unless `count` elements of `elem_size` bytes are sane and
  /// actually present in the remaining payload.
  void require_elements(std::uint64_t count, std::size_t elem_size, const char* what) const;

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ == data_.size(); }
  /// Throws unless the payload was consumed exactly (trailing garbage
  /// is as suspicious as truncation).
  void expect_exhausted(const char* what) const;

 private:
  void need(std::size_t n, const char* what) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace tafloc::storage
