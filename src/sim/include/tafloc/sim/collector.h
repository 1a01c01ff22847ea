// FingerprintCollector -- simulates the survey campaigns and real-time
// measurements the paper performs on its testbed.
//
// A *full survey* walks the target through every grid cell and records
// the mean of `samples_per_grid` RSS samples per (link, grid) pair --
// one column of the fingerprint matrix per grid.  A *reference survey*
// does the same for a chosen subset of grids only.  An *ambient scan*
// records each link with no target present (cheap: no human walking,
// used to detect distorted entries).  A *real-time observation* is a
// short burst with the target at an arbitrary position.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tafloc/linalg/matrix.h"
#include "tafloc/rf/channel.h"
#include "tafloc/sim/deployment.h"
#include "tafloc/util/rng.h"

namespace tafloc {

/// Survey parameters (paper: 100 samples at one per second per grid).
struct SurveyConfig {
  std::size_t samples_per_grid = 100;
  std::size_t samples_per_realtime = 5;
  double sample_period_s = 1.0;
  /// Per-(link, placement) repeatability offset: a person never stands
  /// in a grid exactly the same way twice, so every target placement
  /// shifts each link's mean RSS by ~N(0, sigma).  This is the dominant
  /// part of the paper's "noise is usually within 1~4 dBm" remark and
  /// it does NOT average out with more samples of the same placement.
  double repeatability_stddev_db = 1.0;
};

class FingerprintCollector {
 public:
  /// The channel's links must match the deployment's links.
  FingerprintCollector(const Deployment& deployment, const Channel& channel,
                       const SurveyConfig& config = {});

  /// Full fingerprint survey at elapsed time t_days: M x N matrix whose
  /// column j is the mean RSS per link with the target at grid j's centre.
  Matrix survey_all(double t_days, Rng& rng) const;

  /// Survey only `grids`: M x |grids| matrix in the given grid order.
  Matrix survey_grids(std::span<const std::size_t> grids, double t_days, Rng& rng) const;

  /// Ambient (target-free) per-link mean RSS at t_days.
  Vector ambient_scan(double t_days, Rng& rng) const;

  /// Noise-free ground-truth fingerprint matrix at t_days (what an
  /// infinite-sample survey would converge to); used to score
  /// reconstruction error.
  Matrix ground_truth(double t_days) const;

  /// Real-time measurement vector Y (M x 1) for a target at `target`.
  Vector observe(Point2 target, double t_days, Rng& rng) const;

  /// Ambient observation (no target), same burst length as observe().
  Vector observe_ambient(double t_days, Rng& rng) const;

  const Deployment& deployment() const noexcept { return deployment_; }
  const Channel& channel() const noexcept { return channel_; }
  const SurveyConfig& config() const noexcept { return config_; }

 private:
  const Deployment& deployment_;
  const Channel& channel_;
  SurveyConfig config_;
};

}  // namespace tafloc
