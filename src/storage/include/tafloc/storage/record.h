// Checksummed record framing -- the one wire format under snapshots
// and the write-ahead log.
//
// Frame layout (all integers little-endian):
//
//   [u32 len ][u32 crc32c][u32 type][u64 seq][payload ...]
//              \_________ crc covers these `len` bytes _________/
//
// `len` counts everything after the crc (type + seq + payload, so
// len >= 12).  Decoding distinguishes three failure shapes because
// recovery treats them differently:
//
//   kTorn    -- the buffer ends mid-frame (a crash between write()s or
//               a truncated file).  Expected at the tail of a WAL that
//               died mid-append; everything before it is good.
//   kCorrupt -- the frame is structurally complete but lies: checksum
//               mismatch (bit flip), or an absurd/garbage length
//               (zero-page over the header).  Nothing at or past this
//               point can be trusted -- framing itself may be lost.
//   kEof     -- clean end exactly on a frame boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tafloc::storage {

/// Hard upper bound on one frame's `len`; a declared length beyond it
/// is treated as corruption, never allocated.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;  // 1 GiB

/// Bytes of frame header before the payload (len + crc + type + seq).
inline constexpr std::size_t kFrameHeaderBytes = 20;

struct Frame {
  std::uint32_t type = 0;
  std::uint64_t seq = 0;
  std::string payload;
};

enum class FrameStatus { kOk, kEof, kTorn, kCorrupt };

/// Name for logs ("ok" / "eof" / "torn" / "corrupt").
const char* frame_status_name(FrameStatus status);

/// Encode one frame as bytes ready to append to a file.
std::string encode_frame(std::uint32_t type, std::uint64_t seq, std::string_view payload);

/// encode_frame() for a payload written in place: `frame` is
/// kFrameHeaderBytes of reserved header followed by the payload.
/// Fills in the header (the CRC last) and returns the frame, so a
/// writer that reserves the header up front builds a frame in one
/// buffer with no payload copy.
std::string seal_frame(std::string frame, std::uint32_t type, std::uint64_t seq);

/// Decode the frame starting at `pos`.  On kOk fills `out` and
/// advances `pos` past the frame; otherwise `pos` is left at the bad
/// frame and `error` (optional) says why.  Never throws, never
/// allocates from untrusted lengths.
FrameStatus decode_frame(std::string_view buf, std::size_t& pos, Frame& out,
                         std::string* error = nullptr);

// -- small file helpers shared by the snapshot store and the WAL --

/// Entire file as bytes; std::nullopt-like contract via bool: returns
/// false when the file cannot be opened (missing counts), throws
/// std::runtime_error on a read error of an open file.
bool read_file_bytes(const std::string& path, std::string& out);

/// Crash-safe whole-file replace: write `bytes` to `path.tmp`, fsync,
/// rename over `path`, fsync the parent directory.  A kill at any of
/// the instrumented points leaves either the complete old file or the
/// complete new one.  Throws std::runtime_error on I/O failure.
void atomic_write_file(const std::string& path, std::string_view bytes);

}  // namespace tafloc::storage
