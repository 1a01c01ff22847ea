#include "tafloc/ingest/assembler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tafloc/util/check.h"

namespace tafloc::ingest {

BatchAssembler::BatchAssembler(const AssemblerConfig& config) : config_(config) {
  TAFLOC_CHECK_ARG(config.num_links > 0, "assembler needs at least one link");
  TAFLOC_CHECK_ARG(config.dedup_window > 0, "dedup window must be >= 1");
  TAFLOC_CHECK_ARG(config.max_pending_rounds > 0, "pending-round cap must be >= 1");
}

std::vector<CompletedRound> BatchAssembler::ingest(const NodeBatch& batch) {
  ++counters_.batches;
  std::vector<CompletedRound> completed;
  NodeState& node = nodes_[batch.node_id];

  for (const NodeReading& r : batch.readings) {
    if (r.link >= config_.num_links || !std::isfinite(r.t_days)) {
      ++counters_.bad_readings;
      continue;
    }

    // Per-node dedup: one sequence number, one physical measurement.
    if (r.sequence < node.low) {
      // Too old to verify against the window -- indistinguishable from
      // a duplicate of an expired sequence, so it is stale either way.
      ++counters_.stale_dropped;
      continue;
    }
    if (!node.seen.insert(r.sequence).second) {
      ++counters_.dups_dropped;
      continue;
    }
    while (node.seen.size() > config_.dedup_window) {
      const auto oldest = node.seen.begin();
      node.low = *oldest + 1;
      node.seen.erase(oldest);
    }

    // Round admission: a reading for a round that already completed or
    // expired carries no information -- unless that round is still
    // open (out-of-order completion), in which case it keeps merging.
    auto it = pending_.find(r.t_days);
    if (it == pending_.end()) {
      if (any_closed_ && r.t_days <= closed_before_) {
        ++counters_.stale_dropped;
        continue;
      }
      PendingRound fresh;
      fresh.y.assign(config_.num_links, std::numeric_limits<double>::quiet_NaN());
      fresh.have.assign(config_.num_links, 0);
      it = pending_.emplace(r.t_days, std::move(fresh)).first;
      // Bound memory as rounds open: past the cap the oldest open round
      // expires (possibly this one), and its later readings are stale by
      // the watermark.
      if (pending_.size() > config_.max_pending_rounds) {
        const auto oldest = pending_.begin();
        const bool opened_oldest = oldest == it;
        closed_before_ = any_closed_ ? std::max(closed_before_, oldest->first) : oldest->first;
        any_closed_ = true;
        pending_.erase(oldest);
        ++counters_.rounds_expired;
        if (opened_oldest) {
          ++counters_.stale_dropped;
          continue;
        }
      }
    }

    PendingRound& round = it->second;
    if (round.have[r.link] != 0) {
      // Two accepted sequences covering one link in one round: the
      // first write wins (deterministic merge), the second is a dup.
      ++counters_.dups_dropped;
      continue;
    }
    round.y[r.link] = r.rss;
    round.have[r.link] = 1;
    ++round.filled;
    ++round.readings;
    ++counters_.readings;

    if (round.filled == config_.num_links) {
      CompletedRound done;
      done.t_days = it->first;
      done.y = std::move(round.y);
      done.readings = round.readings;
      completed.push_back(std::move(done));
      closed_before_ = any_closed_ ? std::max(closed_before_, it->first) : it->first;
      any_closed_ = true;
      pending_.erase(it);
      ++counters_.rounds_completed;
    }
  }

  std::sort(completed.begin(), completed.end(),
            [](const CompletedRound& a, const CompletedRound& b) { return a.t_days < b.t_days; });
  return completed;
}

double movement_db(std::span<const double> y, std::span<const double> baseline) {
  TAFLOC_CHECK_ARG(y.size() == baseline.size(), "movement_db: size mismatch");
  double sum = 0.0;
  std::size_t finite = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double d = y[i] - baseline[i];
    if (!std::isfinite(d)) continue;
    sum += std::abs(d);
    ++finite;
  }
  return finite == 0 ? 0.0 : sum / static_cast<double>(finite);
}

}  // namespace tafloc::ingest
