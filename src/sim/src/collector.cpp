#include "tafloc/sim/collector.h"

#include "tafloc/util/check.h"

namespace tafloc {

FingerprintCollector::FingerprintCollector(const Deployment& deployment, const Channel& channel,
                                           const SurveyConfig& config)
    : deployment_(deployment), channel_(channel), config_(config) {
  TAFLOC_CHECK_ARG(channel.num_links() == deployment.num_links(),
                   "channel and deployment must agree on the link count");
  TAFLOC_CHECK_ARG(config.samples_per_grid > 0, "samples per grid must be positive");
  TAFLOC_CHECK_ARG(config.samples_per_realtime > 0, "samples per observation must be positive");
  TAFLOC_CHECK_ARG(config.sample_period_s > 0.0, "sample period must be positive");
  TAFLOC_CHECK_ARG(config.repeatability_stddev_db >= 0.0,
                   "repeatability stddev must be non-negative");
}

Matrix FingerprintCollector::survey_all(double t_days, Rng& rng) const {
  const std::size_t n = deployment_.num_grids();
  std::vector<std::size_t> all(n);
  for (std::size_t j = 0; j < n; ++j) all[j] = j;
  return survey_grids(all, t_days, rng);
}

Matrix FingerprintCollector::survey_grids(std::span<const std::size_t> grids, double t_days,
                                          Rng& rng) const {
  TAFLOC_CHECK_ARG(!grids.empty(), "survey needs at least one grid");
  const std::size_t m = deployment_.num_links();
  Matrix x(m, grids.size());
  for (std::size_t k = 0; k < grids.size(); ++k) {
    TAFLOC_CHECK_BOUNDS(grids[k], deployment_.num_grids(), "survey grid index");
    const Point2 target = deployment_.grid().center(grids[k]);
    for (std::size_t i = 0; i < m; ++i) {
      x(i, k) = channel_.measure_mean(i, target, t_days, config_.samples_per_grid, rng) +
                rng.normal(0.0, config_.repeatability_stddev_db);
    }
  }
  return x;
}

Vector FingerprintCollector::ambient_scan(double t_days, Rng& rng) const {
  const std::size_t m = deployment_.num_links();
  Vector out(m);
  for (std::size_t i = 0; i < m; ++i) {
    out[i] = channel_.measure_mean(i, std::nullopt, t_days, config_.samples_per_grid, rng);
  }
  return out;
}

Matrix FingerprintCollector::ground_truth(double t_days) const {
  const std::size_t m = deployment_.num_links();
  const std::size_t n = deployment_.num_grids();
  Matrix x(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    const Point2 target = deployment_.grid().center(j);
    for (std::size_t i = 0; i < m; ++i) x(i, j) = channel_.expected_rss(i, target, t_days);
  }
  return x;
}

Vector FingerprintCollector::observe(Point2 target, double t_days, Rng& rng) const {
  const std::size_t m = deployment_.num_links();
  Vector y(m);
  for (std::size_t i = 0; i < m; ++i) {
    y[i] = channel_.measure_mean(i, target, t_days, config_.samples_per_realtime, rng) +
           rng.normal(0.0, config_.repeatability_stddev_db);
  }
  return y;
}

Vector FingerprintCollector::observe_ambient(double t_days, Rng& rng) const {
  const std::size_t m = deployment_.num_links();
  Vector y(m);
  for (std::size_t i = 0; i < m; ++i) {
    y[i] = channel_.measure_mean(i, std::nullopt, t_days, config_.samples_per_realtime, rng);
  }
  return y;
}

}  // namespace tafloc
