// Storage layer: codec bounds, frame checksums, snapshot generations
// with fallback, WAL append/replay with torn tails, kill points.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "tafloc/storage/codec.h"
#include "tafloc/storage/kill_point.h"
#include "tafloc/storage/record.h"
#include "tafloc/storage/snapshot.h"
#include "tafloc/storage/wal.h"
#include "tafloc/util/crc32c.h"

namespace tafloc::storage {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("tafloc_storage_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// -- CRC32C --

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32c, MatchesKnownVectors) {
  // RFC 3720 B.4 vectors plus the common "123456789" check value, run
  // through crc32c() (the hardware path where the CPU has SSE4.2) and
  // through the bytewise table.
  std::string increasing(32, '\0');
  for (std::size_t i = 0; i < increasing.size(); ++i) increasing[i] = static_cast<char>(i);
  const std::string decreasing(increasing.rbegin(), increasing.rend());
  const std::pair<std::string, std::uint32_t> vectors[] = {
      {std::string(32, '\x00'), 0x8a9136aaU},
      {std::string(32, '\xff'), 0x62a8ab43U},
      {increasing, 0x46dd794eU},
      {decreasing, 0x113fdb5cU},
      {"123456789", 0xe3069283U},
  };
  for (const auto& [bytes, expected] : vectors) {
    EXPECT_EQ(crc32c(bytes.data(), bytes.size()), expected);
    EXPECT_EQ(crc32c_table(as_bytes(bytes)), expected);
  }
}

TEST(Crc32c, SeedChainsIncrementally) {
  const std::string all = "hello, world";
  const std::uint32_t whole = crc32c(all.data(), all.size());
  const std::uint32_t part = crc32c(all.data() + 5, all.size() - 5, crc32c(all.data(), 5));
  EXPECT_EQ(whole, part);
}

TEST(Crc32c, HardwarePathMatchesTable) {
  if (!crc32c_hardware()) GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  std::string bytes(300 + 8, '\0');
  std::uint32_t state = 0x9e3779b9U;
  for (char& c : bytes) {
    state = state * 1664525U + 1013904223U;
    c = static_cast<char>(state >> 24);
  }
  // Every length 0-300 at every start offset 0-7 (word reads straddle
  // the tail differently at each), from a fresh and a chained seed.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> data = as_bytes(bytes).subspan(offset, len);
      ASSERT_EQ(crc32c(data), crc32c_table(data)) << "offset " << offset << " len " << len;
      ASSERT_EQ(crc32c(data, 0xdeadbeefU), crc32c_table(data, 0xdeadbeefU))
          << "offset " << offset << " len " << len;
    }
  }
  // Split streams chain to the whole-buffer checksum on both paths.
  const std::span<const std::uint8_t> all = as_bytes(bytes);
  for (std::size_t split = 0; split <= all.size(); split += 13) {
    const std::uint32_t head = crc32c(all.first(split));
    EXPECT_EQ(crc32c(all.subspan(split), head), crc32c_table(all));
    EXPECT_EQ(crc32c_table(all.subspan(split), crc32c_table(all.first(split))),
              crc32c_table(all));
  }
}

// -- codec --

TEST(Codec, RoundTripsScalarsAndSpans) {
  ByteWriter w;
  w.put_u8(7);
  w.put_u32(0xdeadbeefU);
  w.put_u64(1ULL << 40);
  w.put_f64(-0.0);
  const double doubles[] = {1.5, std::nan("7"), -2.0};
  w.put_f64_span(doubles);
  const std::size_t sizes[] = {0, 9, 1u << 20};
  w.put_size_span(sizes);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefU);
  EXPECT_EQ(r.get_u64(), 1ULL << 40);
  EXPECT_EQ(std::signbit(r.get_f64()), true);
  const auto back = r.get_f64_vector();
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], 1.5);
  EXPECT_TRUE(std::isnan(back[1]));  // NaN payload bits survive bit-exact.
  const auto sizes_back = r.get_size_vector();
  EXPECT_EQ(sizes_back[2], 1u << 20);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, TruncatedReadThrowsNotCrashes) {
  ByteWriter w;
  w.put_u64(123);
  const std::string bytes = w.take();
  ByteReader r(std::string_view(bytes).substr(0, 3));
  EXPECT_THROW(r.get_u64(), std::runtime_error);
}

TEST(Codec, AbsurdElementCountRejectedBeforeAllocation) {
  // A length prefix claiming 2^60 doubles must throw std::runtime_error
  // up front, never reach the allocator (bad_alloc / OOM-kill).
  ByteWriter w;
  w.put_u64(1ULL << 60);
  const std::string bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW(r.get_f64_vector(), std::runtime_error);
}

TEST(Codec, ExpectExhaustedFlagsTrailingGarbage) {
  ByteWriter w;
  w.put_u32(1);
  w.put_u8(0);
  ByteReader r(w.bytes());
  r.get_u32();
  EXPECT_THROW(r.expect_exhausted("test payload"), std::runtime_error);
}

// -- frames --

TEST(Record, FrameRoundTrip) {
  const std::string bytes = encode_frame(42, 7, "payload bytes");
  std::size_t pos = 0;
  Frame frame;
  std::string error;
  EXPECT_EQ(decode_frame(bytes, pos, frame, &error), FrameStatus::kOk);
  EXPECT_EQ(frame.type, 42u);
  EXPECT_EQ(frame.seq, 7u);
  EXPECT_EQ(frame.payload, "payload bytes");
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(decode_frame(bytes, pos, frame, &error), FrameStatus::kEof);

  // Built in place behind a reserved header: the same bytes.
  EXPECT_EQ(seal_frame(std::string(kFrameHeaderBytes, '\0') + "payload bytes", 42, 7), bytes);
  EXPECT_THROW((void)seal_frame(std::string(kFrameHeaderBytes - 1, '\0'), 42, 7),
               std::invalid_argument);
}

TEST(Record, TruncatedFrameIsTornNotCorrupt) {
  const std::string bytes = encode_frame(1, 1, "0123456789");
  for (std::size_t keep : {1ul, 7ul, bytes.size() - 1}) {
    std::size_t pos = 0;
    Frame frame;
    EXPECT_EQ(decode_frame(bytes.substr(0, keep), pos, frame, nullptr), FrameStatus::kTorn)
        << "keep=" << keep;
  }
}

TEST(Record, EveryFlippedBitIsDetected) {
  const std::string bytes = encode_frame(3, 99, "checksum me");
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    std::string bad = bytes;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x01);
    std::size_t pos = 0;
    Frame frame;
    const FrameStatus status = decode_frame(bad, pos, frame, nullptr);
    EXPECT_NE(status, FrameStatus::kOk) << "flip at byte " << byte;
  }
}

TEST(Record, AbsurdLengthIsCorrupt) {
  std::string bytes(24, '\0');
  const std::uint32_t len = 0x7fffffffU;  // within buffer claim impossible.
  std::memcpy(bytes.data(), &len, 4);
  std::size_t pos = 0;
  Frame frame;
  EXPECT_EQ(decode_frame(bytes, pos, frame, nullptr), FrameStatus::kCorrupt);
}

TEST(Record, AtomicWriteFileRoundTrips) {
  TempDir dir("atomic");
  const std::string path = dir.str() + "/file.bin";
  atomic_write_file(path, "first");
  EXPECT_EQ(read_all(path), "first");
  atomic_write_file(path, "second generation");  // replace, no partial state.
  EXPECT_EQ(read_all(path), "second generation");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// -- snapshots --

TEST(Snapshot, CommitLoadRoundTrip) {
  TempDir dir("snap_rt");
  SnapshotStore store(dir.str());
  store.commit({1, 10, "gen one"});
  auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.snapshot.has_value());
  EXPECT_EQ(loaded.snapshot->generation, 1u);
  EXPECT_EQ(loaded.snapshot->sequence, 10u);
  EXPECT_EQ(loaded.snapshot->payload, "gen one");
  EXPECT_FALSE(loaded.fell_back);

  store.commit({2, 25, "gen two"});
  loaded = store.load_latest();
  ASSERT_TRUE(loaded.snapshot.has_value());
  EXPECT_EQ(loaded.snapshot->generation, 2u);
  EXPECT_EQ(loaded.snapshot->payload, "gen two");
  // Both slots live: generation 1 survives as the fallback.
  EXPECT_TRUE(fs::exists(store.slot_path(0)));
  EXPECT_TRUE(fs::exists(store.slot_path(1)));
}

TEST(Snapshot, CorruptNewestFallsBackOneGeneration) {
  TempDir dir("snap_fb");
  SnapshotStore store(dir.str());
  store.commit({1, 10, "good old"});
  store.commit({2, 20, "bad new"});
  std::string bytes = read_all(store.slot_path(0));  // gen 2 lives in slot 0.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  write_all(store.slot_path(0), bytes);

  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.snapshot.has_value());
  EXPECT_EQ(loaded.snapshot->generation, 1u);
  EXPECT_EQ(loaded.snapshot->payload, "good old");
  EXPECT_TRUE(loaded.fell_back);
  EXPECT_EQ(loaded.slots_rejected, 1u);
  ASSERT_EQ(loaded.errors.size(), 1u);
}

TEST(Snapshot, AllSlotsCorruptMeansNoSnapshotNeverGarbage) {
  TempDir dir("snap_dead");
  SnapshotStore store(dir.str());
  store.commit({1, 1, "a"});
  store.commit({2, 2, "b"});
  for (unsigned slot = 0; slot < 2; ++slot)
    write_all(store.slot_path(slot), std::string(64, '\0'));  // zero-page both.
  const auto loaded = store.load_latest();
  EXPECT_FALSE(loaded.snapshot.has_value());
  EXPECT_TRUE(loaded.fell_back);
  EXPECT_EQ(loaded.slots_rejected, 2u);
}

TEST(Snapshot, TruncatedSlotRejected) {
  TempDir dir("snap_trunc");
  SnapshotStore store(dir.str());
  store.commit({1, 1, std::string(256, 'x')});
  const std::string path = store.slot_path(1);
  const std::string bytes = read_all(path);
  write_all(path, bytes.substr(0, bytes.size() / 3));
  EXPECT_FALSE(store.load_latest().snapshot.has_value());
}

TEST(Snapshot, MissingDirectoryLoadsEmpty) {
  SnapshotStore store("/nonexistent/tafloc/zone");
  const auto loaded = store.load_latest();
  EXPECT_FALSE(loaded.snapshot.has_value());
  EXPECT_FALSE(loaded.fell_back);
  EXPECT_EQ(loaded.slots_rejected, 0u);
}

// -- WAL --

TEST(Wal, AppendReadRoundTripAcrossReopen) {
  TempDir dir("wal_rt");
  const std::string path = dir.str() + "/wal-1.log";
  {
    WalWriter wal(path, 1, /*fsync_every=*/2);
    EXPECT_EQ(wal.append(7, "one"), 1u);
    EXPECT_EQ(wal.append(8, "two"), 2u);
    EXPECT_GE(wal.fsyncs(), 1u);  // batched: every 2 appends.
  }
  {
    WalWriter wal(path, 3);  // reopen appends, never rewrites.
    EXPECT_EQ(wal.append(9, "three"), 3u);
  }
  const WalReadResult result = read_wal(path);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_FALSE(result.corrupt);
  EXPECT_FALSE(result.missing);
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[0].payload, "one");
  EXPECT_EQ(result.records[2].seq, 3u);
  EXPECT_EQ(result.records[2].type, 9u);
}

TEST(Wal, MissingFileIsCleanEmptyLog) {
  const WalReadResult result = read_wal("/nonexistent/wal-1.log");
  EXPECT_TRUE(result.missing);
  EXPECT_TRUE(result.records.empty());
  EXPECT_FALSE(result.corrupt);
}

TEST(Wal, TornTailDroppedAndFlagged) {
  TempDir dir("wal_torn");
  const std::string path = dir.str() + "/wal-1.log";
  {
    WalWriter wal(path, 1, 1);
    wal.append(1, "intact record");
    wal.append(1, "doomed record");
  }
  const std::string bytes = read_all(path);
  write_all(path, bytes.substr(0, bytes.size() - 5));
  const WalReadResult result = read_wal(path);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_FALSE(result.corrupt);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].payload, "intact record");
}

TEST(Wal, MidFileCorruptionStopsReplayAtLastGoodRecord) {
  TempDir dir("wal_corrupt");
  const std::string path = dir.str() + "/wal-1.log";
  {
    WalWriter wal(path, 1, 1);
    wal.append(1, std::string(64, 'a'));
    wal.append(1, std::string(64, 'b'));
    wal.append(1, std::string(64, 'c'));
  }
  std::string bytes = read_all(path);
  const std::size_t mid = bytes.size() / 2;  // inside record two.
  bytes[mid] = static_cast<char>(bytes[mid] ^ 0x08);
  write_all(path, bytes);
  const WalReadResult result = read_wal(path);
  EXPECT_TRUE(result.corrupt);
  ASSERT_EQ(result.records.size(), 1u);  // only the record before the damage.
  EXPECT_EQ(result.records[0].payload, std::string(64, 'a'));
}

TEST(Wal, BadMagicIsCorrupt) {
  TempDir dir("wal_magic");
  const std::string path = dir.str() + "/wal-1.log";
  write_all(path, "NOTAWAL!" + encode_frame(1, 1, "x"));
  const WalReadResult result = read_wal(path);
  EXPECT_TRUE(result.corrupt);
  EXPECT_TRUE(result.records.empty());
}

// -- kill points --

TEST(KillPoint, NamesRoundTrip) {
  for (KillPoint p : {KillPoint::kSnapshotTempWritten, KillPoint::kSnapshotBeforeRename,
                      KillPoint::kSnapshotAfterRename, KillPoint::kWalMidAppend,
                      KillPoint::kWalAfterAppend}) {
    EXPECT_EQ(kill_point_from_name(kill_point_name(p)), p);
  }
  EXPECT_THROW(kill_point_from_name("no-such-point"), std::invalid_argument);
}

TEST(KillPointDeathTest, ArmedPointExitsWithKillCode) {
  EXPECT_EXIT(
      {
        arm_kill_point(KillPoint::kWalAfterAppend, 1);
        maybe_kill(KillPoint::kWalAfterAppend);
      },
      ::testing::ExitedWithCode(kKillExitCode), "");
}

TEST(KillPointDeathTest, HitCountDelaysTheKill) {
  EXPECT_EXIT(
      {
        arm_kill_point(KillPoint::kWalMidAppend, 3);
        maybe_kill(KillPoint::kWalMidAppend);
        maybe_kill(KillPoint::kWalAfterAppend);  // other points never count.
        maybe_kill(KillPoint::kWalMidAppend);
        std::fprintf(stderr, "still alive\n");
        maybe_kill(KillPoint::kWalMidAppend);
      },
      ::testing::ExitedWithCode(kKillExitCode), "still alive");
}

TEST(KillPoint, DisarmedIsANoOp) {
  disarm_kill_point();
  maybe_kill(KillPoint::kSnapshotBeforeRename);  // must not exit.
  arm_kill_point(KillPoint::kSnapshotBeforeRename, 5);
  disarm_kill_point();
  maybe_kill(KillPoint::kSnapshotBeforeRename);
  SUCCEED();
}

}  // namespace
}  // namespace tafloc::storage
