// Channel -- the composed RF simulator: path loss + target shadowing +
// temporal drift + measurement noise over a fixed set of links.
//
// This is the hardware substitute for the paper's Atheros AR9331
// testbed (see DESIGN.md, substitution table).  Everything downstream
// (fingerprint surveys, real-time measurements, all benches) observes
// RSS exclusively through this class.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tafloc/rf/drift.h"
#include "tafloc/rf/geometry.h"
#include "tafloc/rf/noise.h"
#include "tafloc/rf/pathloss.h"
#include "tafloc/rf/shadowing.h"
#include "tafloc/util/rng.h"

namespace tafloc {

/// Slow environmental change that is NOT a per-link offset: a smooth
/// spatial perturbation of the *target-induced* RSS that grows over
/// time (furniture moves, humidity changes the multipath structure a
/// blocked link sees).  This component is exactly what the LRR
/// correlation matrix cannot track -- it is the reason reconstruction
/// error grows with elapsed time (paper Fig. 3) and what the
/// continuity/similarity priors have to absorb.  Modeled per link as a
/// low-order harmonic field over the target position whose amplitude
/// follows the drift power law.
struct PerturbationConfig {
  double at_45_days_db = 3.5;     ///< field amplitude after 45 days.
  double spatial_period_m = 3.0;  ///< wavelength of the harmonic field.
};

/// Aggregated configuration of all channel components.
struct ChannelConfig {
  PathLossConfig path_loss;
  ShadowingConfig shadowing;
  DriftConfig drift;
  NoiseConfig noise;
  PerturbationConfig perturbation;
  /// Per-link sensitivity spread: link i's target attenuation is scaled
  /// by s_i ~ U(1 - spread, 1 + spread).  Antenna patterns, node
  /// placement and chipset calibration make real links respond
  /// unequally; fingerprints learn s_i implicitly, a geometric weight
  /// model (RTI) cannot.
  double link_sensitivity_spread = 0.3;
  /// Static multipath ripple: a time-invariant smooth spatial field per
  /// link added to the target response (amplitude in dB, applied with
  /// the same coupling factor as the perturbation).  This is the
  /// static multipath structure that makes measured fingerprints richer
  /// than any geometric model -- the reason fingerprint-based DfL
  /// out-localizes model-based imaging.
  double static_ripple_db = 1.2;
  /// Multipath ghost response: a body anywhere in the room perturbs the
  /// multipath sum of EVERY link a little, including links whose direct
  /// path is nowhere near the target ("ghost" responses, the documented
  /// failure mode of geometric imaging).  Static smooth field per link,
  /// NOT gated by LoS coupling.
  double multipath_ghost_db = 3.0;
};

/// Channel over a fixed link set.  Deterministic given (links, config,
/// seed); noise draws come from caller-provided Rngs so concurrent
/// consumers stay reproducible.
class Channel {
 public:
  /// `links` must be non-empty; each link must have positive length.
  Channel(std::vector<Segment> links, const ChannelConfig& config, std::uint64_t seed);

  std::size_t num_links() const noexcept { return links_.size(); }
  const Segment& link(std::size_t i) const;
  const std::vector<Segment>& links() const noexcept { return links_; }

  /// Noise-free expected RSS of `link` at elapsed time `t_days`, with an
  /// optional device-free target present at `target`.
  double expected_rss(std::size_t link, std::optional<Point2> target, double t_days) const;

  /// One noisy measurement.
  double measure(std::size_t link, std::optional<Point2> target, double t_days, Rng& rng) const;

  /// Mean of `samples` noisy measurements (the paper's survey procedure
  /// averages 100 one-per-second samples per grid).
  double measure_mean(std::size_t link, std::optional<Point2> target, double t_days,
                      std::size_t samples, Rng& rng) const;

  /// The perturbation-field contribution for a target at `target` on
  /// `link` at time t_days (diagnostic; already included in
  /// expected_rss when a target is present).
  double perturbation_db(std::size_t link, Point2 target, double t_days) const;

  /// The full target response (attenuation + ripple + perturbation, in
  /// dB of RSS decrease) of `link` for a target at `target`.
  double target_response_db(std::size_t link, Point2 target, double t_days) const;

  const ChannelConfig& config() const noexcept { return config_; }
  const TemporalDriftModel& drift() const noexcept { return drift_; }
  const TargetShadowingModel& shadowing() const noexcept { return shadowing_; }
  const LogDistancePathLoss& path_loss() const noexcept { return path_loss_; }

 private:
  std::vector<Segment> links_;
  ChannelConfig config_;
  LogDistancePathLoss path_loss_;
  TargetShadowingModel shadowing_;
  TemporalDriftModel drift_;
  NoiseModel noise_;
  /// Per-link harmonic field parameters (u, v, phase).
  struct Harmonic {
    double ux, uy, phase;
  };
  std::vector<Harmonic> harmonics_;         ///< time-growing perturbation fields.
  std::vector<Harmonic> ripple_harmonics_;  ///< static multipath ripple fields.
  std::vector<Harmonic> ghost_harmonics_;   ///< non-local multipath ghost fields.
  std::vector<double> sensitivity_;         ///< per-link s_i.
  double perturbation_alpha_;  ///< power-law exponent (shared with drift anchors).
};

}  // namespace tafloc
