// CRC32C (Castagnoli) -- the checksum of every frame: wire packets,
// WAL entries and snapshot records.
//
// Every frame carries a CRC32C over its body so torn writes,
// truncation and bit flips are *detected* on read instead of silently
// corrupting a recovered zone or a served request.  CRC32C is chosen
// over plain CRC32 for its better error-detection properties on short
// records and because it matches what storage systems (ext4 metadata,
// iSCSI, LevelDB) use.
//
// Two paths compute the same checksum, chosen once on first use:
//   - x86-64 CPUs with SSE4.2 run the `crc32` instruction, 8 bytes per
//     instruction (about 0.1 ns/byte; a 129-byte request body in
//     11-15 ns);
//   - everything else runs the bytewise table (about 3 ns/byte, which
//     made it a quarter of a small daemon frame's cost).
// Both use the one polynomial, so the choice never changes a stored or
// transmitted byte; there is nothing to configure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace tafloc {

/// CRC32C of `data`, continuing from `seed` (pass a previous crc32c()
/// result to checksum split buffers as one stream; 0 starts fresh).
std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed = 0) noexcept;

/// Convenience over raw memory.
std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed = 0) noexcept;

/// The bytewise table path: what crc32c() runs without SSE4.2, and the
/// reference the tests compare the hardware path against.
std::uint32_t crc32c_table(std::span<const std::uint8_t> data, std::uint32_t seed = 0) noexcept;

/// True when crc32c() runs the SSE4.2 instruction path on this CPU.
bool crc32c_hardware() noexcept;

}  // namespace tafloc
