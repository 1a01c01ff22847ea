// Localizer -- the single interface every localization system in this
// repository implements (TafLoc's matcher, RTI, RASS).  Fig. 5's
// comparison harness drives all of them through this type.
#pragma once

#include <span>
#include <string>

#include "tafloc/rf/geometry.h"

namespace tafloc {

class Localizer {
 public:
  virtual ~Localizer() = default;

  /// Estimate the target position from one real-time RSS vector
  /// (one entry per link, same link order as the deployment).
  virtual Point2 localize(std::span<const double> rss) const = 0;

  /// Human-readable system name for reports.
  virtual std::string name() const = 0;

 protected:
  Localizer() = default;
  Localizer(const Localizer&) = default;
  Localizer& operator=(const Localizer&) = default;
};

}  // namespace tafloc
