#include "tafloc/util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TAFLOC_HAVE_SSE42_CRC32C 1
#include <immintrin.h>
#endif

namespace tafloc {

namespace {

// Castagnoli polynomial, reflected form.
constexpr std::uint32_t kPoly = 0x82f63b78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

using Crc32cFn = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t) noexcept;

#ifdef TAFLOC_HAVE_SSE42_CRC32C

// The SSE4.2 crc32 instruction computes this same reflected Castagnoli
// CRC, 8 bytes per instruction.  Compiled via a target attribute (no
// -msse4.2 build flag) and only selected after the CPU reports SSE4.2.
// Its 64-bit operand consumes bytes lowest first, so a little-endian
// word read equals the bytewise stream order.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t seed) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

#endif

Crc32cFn select_crc32c() noexcept {
#ifdef TAFLOC_HAVE_SSE42_CRC32C
  __builtin_cpu_init();  // the first checksum may run before constructors.
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_table;
}

Crc32cFn active_crc32c() noexcept {
  static const Crc32cFn fn = select_crc32c();
  return fn;
}

}  // namespace

std::uint32_t crc32c_table(std::span<const std::uint8_t> data, std::uint32_t seed) noexcept {
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xffu];
  return ~crc;
}

bool crc32c_hardware() noexcept { return active_crc32c() != crc32c_table; }

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) noexcept {
  return active_crc32c()(data, seed);
}

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) noexcept {
  return crc32c({static_cast<const std::uint8_t*>(data), size}, seed);
}

}  // namespace tafloc
