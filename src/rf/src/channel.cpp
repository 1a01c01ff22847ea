#include "tafloc/rf/channel.h"

#include <cmath>
#include <numbers>

#include "tafloc/util/check.h"

namespace tafloc {

Channel::Channel(std::vector<Segment> links, const ChannelConfig& config, std::uint64_t seed)
    : links_(std::move(links)),
      config_(config),
      path_loss_(config.path_loss),
      shadowing_(config.shadowing),
      drift_(links_.empty() ? 1 : links_.size(), config.drift, seed),
      noise_(config.noise) {
  TAFLOC_CHECK_ARG(!links_.empty(), "a channel needs at least one link");
  for (const Segment& l : links_)
    TAFLOC_CHECK_ARG(l.length() > 0.0, "links must have positive length");
  TAFLOC_CHECK_ARG(config.perturbation.at_45_days_db >= 0.0,
                   "perturbation amplitude must be non-negative");
  TAFLOC_CHECK_ARG(config.perturbation.spatial_period_m > 0.0,
                   "perturbation period must be positive");

  // Same power-law exponent as the ambient drift: both stem from the
  // same slow environmental processes.
  perturbation_alpha_ = std::log(config.drift.magnitude_at_45_days_db /
                                 config.drift.magnitude_at_5_days_db) /
                        std::log(45.0 / 5.0);
  TAFLOC_CHECK_ARG(config.link_sensitivity_spread >= 0.0 && config.link_sensitivity_spread < 1.0,
                   "link sensitivity spread must be in [0, 1)");
  TAFLOC_CHECK_ARG(config.static_ripple_db >= 0.0, "static ripple must be non-negative");
  TAFLOC_CHECK_ARG(config.multipath_ghost_db >= 0.0, "ghost amplitude must be non-negative");

  Rng rng(seed ^ 0x5eedf1e1dULL);
  harmonics_.reserve(links_.size());
  ripple_harmonics_.reserve(links_.size());
  sensitivity_.reserve(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    harmonics_.push_back(Harmonic{std::cos(angle), std::sin(angle),
                                  rng.uniform(0.0, 2.0 * std::numbers::pi)});
    const double ripple_angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    ripple_harmonics_.push_back(Harmonic{std::cos(ripple_angle), std::sin(ripple_angle),
                                         rng.uniform(0.0, 2.0 * std::numbers::pi)});
    const double ghost_angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    ghost_harmonics_.push_back(Harmonic{std::cos(ghost_angle), std::sin(ghost_angle),
                                        rng.uniform(0.0, 2.0 * std::numbers::pi)});
    sensitivity_.push_back(
        rng.uniform(1.0 - config.link_sensitivity_spread, 1.0 + config.link_sensitivity_spread));
  }
}

double Channel::perturbation_db(std::size_t link, Point2 target, double t_days) const {
  TAFLOC_CHECK_BOUNDS(link, links_.size(), "channel link index");
  TAFLOC_CHECK_ARG(t_days >= 0.0, "elapsed time must be non-negative");
  if (config_.perturbation.at_45_days_db == 0.0 || t_days == 0.0) return 0.0;
  const double amp =
      config_.perturbation.at_45_days_db * std::pow(t_days / 45.0, perturbation_alpha_);
  const Harmonic& h = harmonics_[link];
  const double k = 2.0 * std::numbers::pi / config_.perturbation.spatial_period_m;
  return amp * std::sin(k * (h.ux * target.x + h.uy * target.y) + h.phase);
}

const Segment& Channel::link(std::size_t i) const {
  TAFLOC_CHECK_BOUNDS(i, links_.size(), "channel link index");
  return links_[i];
}

double Channel::expected_rss(std::size_t link, std::optional<Point2> target,
                             double t_days) const {
  TAFLOC_CHECK_BOUNDS(link, links_.size(), "channel link index");
  const Segment& seg = links_[link];
  double rss = path_loss_.rss_dbm(seg) + drift_.ambient_offset_db(link, t_days);
  if (target) rss -= target_response_db(link, *target, t_days);
  return rss;
}

double Channel::target_response_db(std::size_t link, Point2 target, double t_days) const {
  TAFLOC_CHECK_BOUNDS(link, links_.size(), "channel link index");
  const Segment& seg = links_[link];
  const double geometric = shadowing_.attenuation_db(seg, target);
  // Coupling in [0, 1]: how strongly this target position interacts
  // with the link.  Multipath ripple and the temporal perturbation act
  // only through blocked/detoured paths, so both are gated by it.
  const double coupling = std::min(geometric / shadowing_.config().max_attenuation_db, 1.0);

  const double k = 2.0 * std::numbers::pi / config_.perturbation.spatial_period_m;
  const Harmonic& r = ripple_harmonics_[link];
  const double ripple = config_.static_ripple_db *
                        std::sin(k * (r.ux * target.x + r.uy * target.y) + r.phase);

  // Ghost field uses a shorter wavelength (multipath fine structure).
  const Harmonic& g = ghost_harmonics_[link];
  const double kg = 1.7 * k;
  const double ghost = config_.multipath_ghost_db *
                       std::sin(kg * (g.ux * target.x + g.uy * target.y) + g.phase);

  // The temporal perturbation reshuffles the multipath sum everywhere,
  // somewhat more strongly for links the target couples to.
  const double perturb_gate = 0.4 + 0.6 * coupling;

  return drift_.attenuation_scale(link, t_days) * sensitivity_[link] * geometric +
         coupling * ripple + ghost -
         perturb_gate * perturbation_db(link, target, t_days);
}

double Channel::measure(std::size_t link, std::optional<Point2> target, double t_days,
                        Rng& rng) const {
  return noise_.corrupt(expected_rss(link, target, t_days), rng);
}

double Channel::measure_mean(std::size_t link, std::optional<Point2> target, double t_days,
                             std::size_t samples, Rng& rng) const {
  TAFLOC_CHECK_ARG(samples > 0, "measure_mean needs at least one sample");
  double sum = 0.0;
  for (std::size_t s = 0; s < samples; ++s) sum += measure(link, target, t_days, rng);
  return sum / static_cast<double>(samples);
}

}  // namespace tafloc
