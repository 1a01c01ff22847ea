#include "tafloc/ingest/batch.h"

#include <bit>
#include <stdexcept>

namespace tafloc::ingest {

namespace {

/// Encoded bytes of the header (u32 version + u32 node id + u64 count)
/// and of one reading (u32 link + f64 rss + u64 sequence + f64 t_days).
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kReadingBytes = 4 + 8 + 8 + 8;

}  // namespace

bool operator==(const NodeReading& a, const NodeReading& b) noexcept {
  return a.link == b.link && a.sequence == b.sequence &&
         std::bit_cast<std::uint64_t>(a.rss) == std::bit_cast<std::uint64_t>(b.rss) &&
         std::bit_cast<std::uint64_t>(a.t_days) == std::bit_cast<std::uint64_t>(b.t_days);
}

bool operator==(const NodeBatch& a, const NodeBatch& b) noexcept {
  return a.node_id == b.node_id && a.readings == b.readings;
}

void NodeBatch::encode(storage::ByteWriter& out) const {
  out.put_u32(kBatchFormatVersion);
  out.put_u32(node_id);
  out.put_u64(readings.size());
  for (const NodeReading& r : readings) {
    out.put_u32(r.link);
    out.put_f64(r.rss);
    out.put_u64(r.sequence);
    out.put_f64(r.t_days);
  }
}

std::size_t NodeBatch::encoded_size() const noexcept {
  return kHeaderBytes + readings.size() * kReadingBytes;
}

NodeBatch NodeBatch::decode(storage::ByteReader& in) {
  const std::uint32_t version = in.get_u32();
  if (version != kBatchFormatVersion) {
    throw std::runtime_error("node batch: format version " + std::to_string(version) +
                             " not supported (expected " +
                             std::to_string(kBatchFormatVersion) + ")");
  }
  NodeBatch batch;
  batch.node_id = in.get_u32();
  const std::uint64_t count = in.get_u64();
  in.require_elements(count, kReadingBytes, "node batch readings");
  batch.readings.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    NodeReading r;
    r.link = in.get_u32();
    r.rss = in.get_f64();
    r.sequence = in.get_u64();
    r.t_days = in.get_f64();
    batch.readings.push_back(r);
  }
  return batch;
}

std::string NodeBatch::to_frame(std::uint64_t seq) const {
  storage::ByteWriter out;
  encode(out);
  return storage::encode_frame(kBatchRecordType, seq, out.bytes());
}

NodeBatch NodeBatch::from_frame(const storage::Frame& frame) {
  if (frame.type != kBatchRecordType) {
    throw std::runtime_error("node batch: unexpected frame type " + std::to_string(frame.type));
  }
  storage::ByteReader in(frame.payload);
  NodeBatch batch = decode(in);
  in.expect_exhausted("node batch record");
  return batch;
}

}  // namespace tafloc::ingest
