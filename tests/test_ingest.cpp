// Ingest: the node batch codec (versioned, CRC-framed, bit-exact) and
// the per-zone BatchAssembler (dedup / staleness / out-of-order merge
// with exact accounting), plus the NodeNetwork traffic simulator that
// feeds them in the torture tests and the load harness.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "tafloc/ingest/assembler.h"
#include "tafloc/ingest/batch.h"
#include "tafloc/sim/node_net.h"
#include "tafloc/storage/record.h"
#include "tafloc/util/rng.h"

namespace tafloc::ingest {
namespace {

NodeBatch make_batch(std::uint32_t node_id,
                     std::initializer_list<NodeReading> readings) {
  NodeBatch batch;
  batch.node_id = node_id;
  batch.readings.assign(readings);
  return batch;
}

// ---- codec ----

TEST(NodeBatchCodec, RoundTripsIncludingNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const NodeBatch batch = make_batch(7, {{0, -41.25, 1, 2.5},
                                         {3, nan, 2, 2.5},  // dead-link report.
                                         {1, -60.0, 3, 3.0}});
  storage::ByteWriter w;
  batch.encode(w);
  EXPECT_EQ(w.size(), batch.encoded_size());
  storage::ByteReader r(w.bytes());
  const NodeBatch decoded = NodeBatch::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(decoded == batch);  // bit-exact, NaN included.
}

TEST(NodeBatchCodec, EmptyBatchRoundTrips) {
  const NodeBatch batch = make_batch(0, {});
  storage::ByteWriter w;
  batch.encode(w);
  EXPECT_EQ(w.size(), batch.encoded_size());
  storage::ByteReader r(w.bytes());
  EXPECT_TRUE(NodeBatch::decode(r) == batch);
}

TEST(NodeBatchCodec, RejectsWrongVersion) {
  storage::ByteWriter w;
  w.put_u32(kBatchFormatVersion + 1);
  w.put_u32(7);   // node id
  w.put_u64(0);   // reading count
  storage::ByteReader r(w.bytes());
  EXPECT_THROW((void)NodeBatch::decode(r), std::runtime_error);
}

TEST(NodeBatchCodec, RejectsTruncation) {
  const NodeBatch batch = make_batch(7, {{0, -41.0, 1, 1.0}, {1, -42.0, 2, 1.0}});
  storage::ByteWriter w;
  batch.encode(w);
  const std::string bytes = w.take();
  for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2, std::size_t{3}}) {
    storage::ByteReader r(std::string_view(bytes).substr(0, keep));
    EXPECT_THROW((void)NodeBatch::decode(r), std::runtime_error) << "kept " << keep;
  }
}

TEST(NodeBatchCodec, RejectsAbsurdDeclaredCount) {
  storage::ByteWriter w;
  w.put_u32(kBatchFormatVersion);
  w.put_u32(7);
  w.put_u64(0x7fffffff);  // declared readings far beyond the payload.
  storage::ByteReader r(w.bytes());
  EXPECT_THROW((void)NodeBatch::decode(r), std::runtime_error);
}

TEST(NodeBatchCodec, FrameRoundTripAndTypeCheck) {
  const NodeBatch batch = make_batch(3, {{2, -55.5, 9, 4.0}});
  const std::string framed = batch.to_frame(17);

  std::size_t pos = 0;
  storage::Frame frame;
  ASSERT_EQ(storage::decode_frame(framed, pos, frame), storage::FrameStatus::kOk);
  EXPECT_EQ(frame.type, kBatchRecordType);
  EXPECT_EQ(frame.seq, 17u);
  EXPECT_TRUE(NodeBatch::from_frame(frame) == batch);

  // A frame of another type must be refused, not misparsed.
  storage::Frame wrong = frame;
  wrong.type = kBatchRecordType + 1;
  EXPECT_THROW((void)NodeBatch::from_frame(wrong), std::runtime_error);

  // A flipped payload bit is caught by the CRC before decode runs.
  std::string flipped = framed;
  flipped[flipped.size() - 1] ^= 0x01;
  pos = 0;
  EXPECT_EQ(storage::decode_frame(flipped, pos, frame), storage::FrameStatus::kCorrupt);
}

// ---- assembler ----

AssemblerConfig small_config(std::size_t num_links = 3, std::size_t window = 8,
                             std::size_t max_pending = 4) {
  AssemblerConfig config;
  config.num_links = num_links;
  config.dedup_window = window;
  config.max_pending_rounds = max_pending;
  return config;
}

TEST(BatchAssembler, RejectsDegenerateConfig) {
  EXPECT_THROW(BatchAssembler(small_config(0)), std::invalid_argument);
  EXPECT_THROW(BatchAssembler(small_config(3, 0)), std::invalid_argument);
  EXPECT_THROW(BatchAssembler(small_config(3, 8, 0)), std::invalid_argument);
}

TEST(BatchAssembler, MergesNodeBatchesIntoACompleteRound) {
  BatchAssembler asm_(small_config());
  // Two nodes cover links {0, 2} and {1} of one t=1.0 round.
  EXPECT_TRUE(asm_.ingest(make_batch(0, {{0, -40.0, 1, 1.0}, {2, -42.0, 2, 1.0}})).empty());
  EXPECT_EQ(asm_.pending_rounds(), 1u);
  const auto rounds = asm_.ingest(make_batch(1, {{1, -41.0, 1, 1.0}}));
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].t_days, 1.0);
  EXPECT_EQ(rounds[0].readings, 3u);
  EXPECT_EQ(rounds[0].y, (Vector{-40.0, -41.0, -42.0}));
  EXPECT_EQ(asm_.pending_rounds(), 0u);
  EXPECT_EQ(asm_.counters().readings, 3u);
  EXPECT_EQ(asm_.counters().rounds_completed, 1u);
}

TEST(BatchAssembler, NaNReadingStillCoversItsLink) {
  BatchAssembler asm_(small_config());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rounds = asm_.ingest(
      make_batch(0, {{0, -40.0, 1, 1.0}, {1, nan, 2, 1.0}, {2, -42.0, 3, 1.0}}));
  ASSERT_EQ(rounds.size(), 1u);  // the dead-link report completes the round.
  EXPECT_TRUE(std::isnan(rounds[0].y[1]));
}

TEST(BatchAssembler, RetransmittedBatchChangesNothing) {
  BatchAssembler asm_(small_config());
  const NodeBatch batch = make_batch(0, {{0, -40.0, 1, 1.0}, {1, -41.0, 2, 1.0}});
  EXPECT_TRUE(asm_.ingest(batch).empty());
  EXPECT_TRUE(asm_.ingest(batch).empty());  // verbatim retransmit.
  EXPECT_EQ(asm_.counters().readings, 2u);
  EXPECT_EQ(asm_.counters().dups_dropped, 2u);
  // The round still completes exactly once, from the remaining link.
  const auto rounds = asm_.ingest(make_batch(1, {{2, -42.0, 1, 1.0}}));
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].y, (Vector{-40.0, -41.0, -42.0}));
  EXPECT_EQ(asm_.counters().rounds_completed, 1u);
}

TEST(BatchAssembler, DuplicateLinkInOneRoundFirstWriteWins) {
  BatchAssembler asm_(small_config());
  // Two *distinct* sequences claiming the same (round, link): the first
  // write wins deterministically, the second is a dup.
  EXPECT_TRUE(asm_.ingest(make_batch(0, {{0, -40.0, 1, 1.0}, {0, -99.0, 2, 1.0}})).empty());
  EXPECT_EQ(asm_.counters().dups_dropped, 1u);
  const auto rounds =
      asm_.ingest(make_batch(1, {{1, -41.0, 1, 1.0}, {2, -42.0, 2, 1.0}}));
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].y[0], -40.0);
}

TEST(BatchAssembler, BadReadingsAreCountedNotFatal) {
  BatchAssembler asm_(small_config());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(asm_.ingest(make_batch(0, {{99, -40.0, 1, 1.0},    // link out of range
                                         {0, -40.0, 2, nan}}))   // non-finite round key
                  .empty());
  EXPECT_EQ(asm_.counters().bad_readings, 2u);
  EXPECT_EQ(asm_.counters().readings, 0u);
  EXPECT_EQ(asm_.pending_rounds(), 0u);
}

TEST(BatchAssembler, ReadingForACompletedRoundIsStale) {
  BatchAssembler asm_(small_config());
  (void)asm_.ingest(
      make_batch(0, {{0, -40.0, 1, 1.0}, {1, -41.0, 2, 1.0}, {2, -42.0, 3, 1.0}}));
  ASSERT_EQ(asm_.counters().rounds_completed, 1u);
  // A straggler for the closed t=1.0 round carries no information.
  EXPECT_TRUE(asm_.ingest(make_batch(1, {{0, -40.5, 1, 1.0}})).empty());
  EXPECT_EQ(asm_.counters().stale_dropped, 1u);
  EXPECT_EQ(asm_.pending_rounds(), 0u);
}

TEST(BatchAssembler, OutOfOrderRoundStillCompletesLate) {
  BatchAssembler asm_(small_config());
  // t=1.0 opens first but t=2.0 completes first.
  EXPECT_TRUE(asm_.ingest(make_batch(0, {{0, -40.0, 1, 1.0}, {1, -41.0, 2, 1.0}})).empty());
  const auto newer = asm_.ingest(
      make_batch(1, {{0, -50.0, 1, 2.0}, {1, -51.0, 2, 2.0}, {2, -52.0, 3, 2.0}}));
  ASSERT_EQ(newer.size(), 1u);
  EXPECT_EQ(newer[0].t_days, 2.0);
  // The older round is past the closed watermark but still OPEN, so it
  // keeps merging and completes late -- the scheduler's out-of-order
  // drop downstream judges its timestamp, not the assembler.
  const auto older = asm_.ingest(make_batch(0, {{2, -42.0, 3, 1.0}}));
  ASSERT_EQ(older.size(), 1u);
  EXPECT_EQ(older[0].t_days, 1.0);
  EXPECT_EQ(older[0].y, (Vector{-40.0, -41.0, -42.0}));
  EXPECT_EQ(asm_.counters().rounds_completed, 2u);
  // But a NEW round at/below the watermark is refused as stale.
  EXPECT_TRUE(asm_.ingest(make_batch(0, {{0, -40.0, 4, 1.5}})).empty());
  EXPECT_EQ(asm_.counters().stale_dropped, 1u);
}

TEST(BatchAssembler, OneBatchCompletingTwoRoundsEmitsOldestFirst) {
  BatchAssembler asm_(small_config());
  (void)asm_.ingest(make_batch(0, {{0, -40.0, 1, 1.0}, {1, -41.0, 2, 1.0}}));
  (void)asm_.ingest(make_batch(0, {{0, -50.0, 3, 2.0}, {1, -51.0, 4, 2.0}}));
  const auto rounds =
      asm_.ingest(make_batch(1, {{2, -52.0, 1, 2.0}, {2, -42.0, 2, 1.0}}));
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].t_days, 1.0);
  EXPECT_EQ(rounds[1].t_days, 2.0);
}

TEST(BatchAssembler, SequencesBelowTheDedupWindowAreStale) {
  BatchAssembler asm_(small_config(3, /*window=*/4));
  // Push 8 distinct sequences through node 0 (spread over two rounds so
  // nothing completes); the window keeps the newest 4, so low = 5.
  (void)asm_.ingest(make_batch(0, {{0, -40.0, 1, 1.0}, {1, -41.0, 2, 1.0}}));
  (void)asm_.ingest(make_batch(0, {{0, -50.0, 3, 2.0}, {1, -51.0, 4, 2.0}}));
  (void)asm_.ingest(make_batch(0, {{2, -42.0, 5, 3.0}, {2, -52.0, 6, 4.0}}));
  (void)asm_.ingest(make_batch(0, {{0, -60.0, 7, 5.0}, {1, -61.0, 8, 5.0}}));
  const IngestCounters before = asm_.counters();
  // Sequence 2 fell out of the window: indistinguishable from a dup of
  // an expired measurement, dropped as stale (not as a fresh reading).
  (void)asm_.ingest(make_batch(0, {{2, -43.0, 2, 5.0}}));
  EXPECT_EQ(asm_.counters().stale_dropped, before.stale_dropped + 1);
  EXPECT_EQ(asm_.counters().readings, before.readings);
  // Another node's sequence 2 is untouched -- the window is per node.
  (void)asm_.ingest(make_batch(1, {{2, -43.0, 2, 5.0}}));
  EXPECT_EQ(asm_.counters().readings, before.readings + 1);
}

TEST(BatchAssembler, PendingRoundCapEvictsTheOldest) {
  BatchAssembler asm_(small_config(3, 64, /*max_pending=*/2));
  (void)asm_.ingest(make_batch(0, {{0, -40.0, 1, 1.0}}));
  (void)asm_.ingest(make_batch(0, {{0, -40.0, 2, 2.0}}));
  (void)asm_.ingest(make_batch(0, {{0, -40.0, 3, 3.0}}));  // evicts t=1.0.
  EXPECT_EQ(asm_.pending_rounds(), 2u);
  EXPECT_EQ(asm_.counters().rounds_expired, 1u);
  // Readings for the evicted round are stale now.
  (void)asm_.ingest(make_batch(1, {{1, -41.0, 1, 1.0}}));
  EXPECT_EQ(asm_.counters().stale_dropped, 1u);
  EXPECT_EQ(asm_.pending_rounds(), 2u);
}

TEST(BatchAssembler, PendingRoundCapHoldsInsideOneBatch) {
  // The cap applies as each round opens, not after the batch: opening
  // t=3 expires t=1 before the batch's last reading could complete it.
  BatchAssembler asm_(small_config(2, 64, /*max_pending=*/2));
  const auto rounds = asm_.ingest(make_batch(
      0, {{0, -40.0, 1, 1.0}, {0, -40.0, 2, 2.0}, {0, -40.0, 3, 3.0}, {1, -41.0, 4, 1.0}}));
  EXPECT_TRUE(rounds.empty());
  const IngestCounters& c = asm_.counters();
  EXPECT_EQ(c.rounds_completed, 0u);
  EXPECT_EQ(c.rounds_expired, 1u);
  EXPECT_EQ(c.readings, 3u);
  EXPECT_EQ(c.stale_dropped, 1u);  // t=1's last reading.
  EXPECT_EQ(asm_.pending_rounds(), 2u);
}

TEST(BatchAssembler, TenThousandRoundBatchStaysWithinTheCap) {
  // One reading per timestamp, all in one batch.  Oldest first: every
  // round past the 64th expires the oldest.  Newest first: the 65th
  // round is itself the oldest, expires as it opens, and raises the
  // watermark past every later reading.  Either way the newest 64
  // rounds stay open and every reading is accounted for.
  constexpr std::size_t kRounds = 10'000;
  constexpr std::size_t kCap = 64;
  for (const bool oldest_first : {true, false}) {
    SCOPED_TRACE(oldest_first ? "oldest first" : "newest first");
    BatchAssembler asm_(small_config(3, 8, kCap));
    NodeBatch batch;
    batch.node_id = 0;
    for (std::size_t k = 0; k < kRounds; ++k) {
      const double t = static_cast<double>(oldest_first ? k + 1 : kRounds - k);
      batch.readings.push_back(NodeReading{0, -40.0, k + 1, t});
    }
    EXPECT_TRUE(asm_.ingest(batch).empty());
    const IngestCounters& c = asm_.counters();
    EXPECT_EQ(c.readings + c.dups_dropped + c.stale_dropped + c.bad_readings, kRounds);
    EXPECT_EQ(asm_.pending_rounds(), kCap);
    EXPECT_EQ(c.rounds_completed, 0u);
    if (oldest_first) {
      EXPECT_EQ(c.readings, kRounds);
      EXPECT_EQ(c.rounds_expired, kRounds - kCap);
    } else {
      EXPECT_EQ(c.readings, kCap);
      EXPECT_EQ(c.stale_dropped, kRounds - kCap);
      EXPECT_EQ(c.rounds_expired, 1u);
    }
  }
}

TEST(BatchAssembler, AccountingIsExhaustive) {
  // Every ingested reading lands in exactly one counter bucket.
  BatchAssembler asm_(small_config());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t sent = 0;
  const auto send = [&](const NodeBatch& b) {
    sent += b.readings.size();
    (void)asm_.ingest(b);
  };
  send(make_batch(0, {{0, -40.0, 1, 1.0}, {1, -41.0, 2, 1.0}, {2, -42.0, 3, 1.0}}));
  send(make_batch(0, {{0, -40.0, 1, 1.0}}));             // dup sequence.
  send(make_batch(1, {{0, -40.0, 1, 1.0}}));             // stale (closed round).
  send(make_batch(1, {{7, -40.0, 2, 2.0}, {0, nan, 3, nan}}));  // two bad.
  const IngestCounters& c = asm_.counters();
  EXPECT_EQ(c.readings + c.dups_dropped + c.stale_dropped + c.bad_readings, sent);
  EXPECT_EQ(c.readings, 3u);
  EXPECT_EQ(c.dups_dropped, 1u);
  EXPECT_EQ(c.stale_dropped, 1u);
  EXPECT_EQ(c.bad_readings, 2u);
  EXPECT_EQ(c.batches, 4u);
}

// ---- movement gate ----

TEST(MovementDb, MatchesTheSchedulerStalenessMean) {
  const Vector baseline{-40.0, -50.0, -60.0};
  EXPECT_DOUBLE_EQ(movement_db(Vector{-40.0, -50.0, -60.0}, baseline), 0.0);
  EXPECT_DOUBLE_EQ(movement_db(Vector{-42.0, -49.0, -60.0}, baseline), 1.0);
}

TEST(MovementDb, AveragesOverMutuallyFiniteEntriesOnly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(movement_db(Vector{-42.0, nan}, Vector{-40.0, -50.0}), 2.0);
  EXPECT_DOUBLE_EQ(movement_db(Vector{-42.0, -56.0}, Vector{-40.0, nan}), 2.0);
  EXPECT_DOUBLE_EQ(movement_db(Vector{nan, nan}, Vector{nan, nan}), 0.0);
  EXPECT_THROW((void)movement_db(Vector{1.0}, Vector{1.0, 2.0}), std::invalid_argument);
}

// ---- NodeNetwork ----

TEST(NodeNetwork, PartitionsLinksRoundRobinWithMonotonicSequences) {
  NodeNetwork net(5, 2);
  const Vector y{-40.0, -41.0, -42.0, -43.0, -44.0};
  const auto batches = net.emit_round(y, 1.0);
  ASSERT_EQ(batches.size(), 2u);
  // Node 0 owns links 0, 2, 4; node 1 owns 1, 3.
  ASSERT_EQ(batches[0].readings.size(), 3u);
  ASSERT_EQ(batches[1].readings.size(), 2u);
  EXPECT_EQ(batches[0].readings[1].link, 2u);
  EXPECT_EQ(batches[0].readings[1].rss, -42.0);
  EXPECT_EQ(batches[1].readings[0].link, 1u);

  // Sequences are per node and strictly monotonic across rounds.
  const auto second = net.emit_round(y, 2.0);
  EXPECT_EQ(batches[0].readings[0].sequence, 1u);
  EXPECT_EQ(second[0].readings[0].sequence, 4u);   // node 0 emitted 3 already.
  EXPECT_EQ(second[1].readings[0].sequence, 3u);   // node 1 emitted 2.

  // Every link is covered exactly once per round.
  BatchAssembler asm_(AssemblerConfig{.num_links = 5});
  (void)asm_.ingest(second[0]);
  const auto rounds = asm_.ingest(second[1]);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].y, y);
}

TEST(NodeNetwork, SurplusNodesStaySilent) {
  NodeNetwork net(2, 8);
  const auto batches = net.emit_round(Vector{-40.0, -41.0}, 1.0);
  EXPECT_EQ(batches.size(), 2u);  // only nodes owning a link emit.
}

TEST(NodeNetwork, PerturbOnlyRepeatsAndReorders) {
  NodeNetwork net(6, 3);
  const Vector y{-40.0, -41.0, -42.0, -43.0, -44.0, -45.0};
  auto batches = net.emit_round(y, 1.0);
  const auto original = batches;
  Rng rng(99);
  NodeNetwork::perturb(batches, /*dup_fraction=*/1.0, /*shuffle=*/true, rng);
  EXPECT_EQ(batches.size(), 2 * original.size());  // dup_fraction=1 doubles.
  // Every perturbed batch is verbatim one of the originals: no invented
  // sequences, no edited readings.
  for (const NodeBatch& b : batches) {
    bool found = false;
    for (const NodeBatch& o : original) {
      if (b == o) found = true;
    }
    EXPECT_TRUE(found);
  }
  EXPECT_THROW(NodeNetwork::perturb(batches, 1.5, false, rng), std::invalid_argument);
}

TEST(NodeNetwork, RejectsDegenerateShapes) {
  EXPECT_THROW(NodeNetwork(0, 1), std::invalid_argument);
  EXPECT_THROW(NodeNetwork(1, 0), std::invalid_argument);
  NodeNetwork net(3, 1);
  EXPECT_THROW((void)net.emit_round(Vector{1.0}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace tafloc::ingest
