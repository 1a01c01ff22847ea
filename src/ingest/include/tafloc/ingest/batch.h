// Node batch format -- the compact binary unit cheap sensor nodes ship
// to taflocd (kBatchIngest) or park in store-and-forward files.
//
// One batch is everything a single node has to say since its last
// flush: a versioned header (format version + node id), then a run of
// readings, each carrying the link index the node measured, the RSS in
// dBm (NaN = the node saw the link dead), a per-node monotonic
// sequence number (the dedup key: node id + sequence identifies one
// physical measurement forever, however many times the batch is
// retransmitted), and the node-local scan timestamp t_days (the merge
// key: readings sharing a timestamp belong to one scan round).
//
// The payload rides the storage codec (bounds-checked, little-endian,
// bit-exact doubles); on disk it is CRC-framed as one storage::Frame
// of type kBatchRecordType, on the wire it nests inside the daemon's
// own frame -- either way a torn or bit-flipped batch is rejected
// before a single field is trusted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tafloc/storage/codec.h"
#include "tafloc/storage/record.h"

namespace tafloc::ingest {

/// Bumped on any incompatible layout change; a batch carrying another
/// version is rejected at decode.
inline constexpr std::uint32_t kBatchFormatVersion = 1;

/// Frame `type` for a standalone CRC-framed batch record ("NB").
inline constexpr std::uint32_t kBatchRecordType = 0x4e42;

struct NodeReading {
  std::uint32_t link = 0;      ///< link index within the zone's deployment.
  double rss = 0.0;            ///< mean burst RSS in dBm (NaN = dead link).
  std::uint64_t sequence = 0;  ///< per-node monotonic measurement counter.
  double t_days = 0.0;         ///< node-local scan timestamp (round key).
};

/// Bit-exact equality (rss compares by IEEE bit pattern, so NaN
/// payloads round-trip as equal) -- codec and dedup tests.
bool operator==(const NodeReading& a, const NodeReading& b) noexcept;

struct NodeBatch {
  std::uint32_t node_id = 0;
  std::vector<NodeReading> readings;

  /// Append the versioned payload (header + readings) to `out`.
  void encode(storage::ByteWriter& out) const;
  /// Bytes encode() appends.
  std::size_t encoded_size() const noexcept;
  /// Decode one batch payload; throws std::runtime_error on a version
  /// mismatch, truncation, or an absurd declared count.
  static NodeBatch decode(storage::ByteReader& in);

  /// One standalone CRC-framed record ready to append to a
  /// store-and-forward file (frame type kBatchRecordType).
  std::string to_frame(std::uint64_t seq) const;
  /// Decode from a frame produced by to_frame(); throws on a wrong
  /// frame type or malformed payload.
  static NodeBatch from_frame(const storage::Frame& frame);
};

bool operator==(const NodeBatch& a, const NodeBatch& b) noexcept;

}  // namespace tafloc::ingest
