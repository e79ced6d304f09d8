#include "power/rectifier.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pico::power {

namespace {

// Samples per Harvester::sweep_emf call: the buffer lives on the stack.
constexpr int kSweepChunk = 512;

// An EMF level at or below which the sink current is exactly zero, found
// by bisecting the rectifier's own predicate on [0, bound]; -1 when even
// voc = 0 conducts. By the monotone contract every |voc| at or below the
// result carries no current, so a sweep may cull those samples.
double quiet_level(const Rectifier& r, double bound, double vdc, double rs) {
  if (r.instantaneous_current(0.0, vdc, rs) != 0.0) return -1.0;
  if (!std::isfinite(bound)) return 0.0;
  double lo = 0.0;   // never conducts
  double hi = bound;  // conducts
  for (int it = 0; it < 32; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (r.instantaneous_current(mid, vdc, rs) == 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

RectifierResult Rectifier::rectify(const harvest::Harvester& h, Voltage vdc, double t0,
                                   double t1, int samples) const {
  PICO_REQUIRE(t1 > t0, "averaging window must be positive");
  PICO_REQUIRE(samples >= 2, "need at least two samples");
  const double rs = h.source_resistance().value();
  const double v = vdc.value();
  RectifierResult res;
  double sum_i = 0.0;
  double sum_psrc = 0.0;
  int conducting = 0;
  const double dt = (t1 - t0) / samples;
  // Current is monotone in |voc|: if the window's EMF bound does not
  // conduct, no sample does and the sums stay +0.0.
  const double bound = h.emf_bound(t0, t1);
  if (instantaneous_current(bound, v, rs) != 0.0) {
    const double quiet = quiet_level(*this, bound, v, rs);
    double voc[kSweepChunk] = {};
    for (int k0 = 0, k1 = 0; k0 < samples; k0 = k1) {
      k1 = samples - k0 > kSweepChunk ? k0 + kSweepChunk : samples;
      int visited = 0;
      const int n = h.sweep_emf(t0, dt, k0, k1, quiet, voc, &visited);
      res.samples_visited += visited;
      res.samples_evaluated += n;
      for (int j = 0; j < n; ++j) {
        const double i = instantaneous_current(voc[j], v, rs);
        PICO_ASSERT(i >= 0.0);
        sum_i += i;
        sum_psrc += std::fabs(voc[j]) * i;  // power leaving the EMF source
        if (i > 0.0) ++conducting;
      }
    }
  }
  const double n = static_cast<double>(samples);
  res.avg_current = Current{sum_i / n};
  res.source_power = Power{sum_psrc / n};
  res.delivered_power = Power{res.avg_current.value() * v};
  const double ctrl = control_power().value();
  res.loss = Power{res.source_power.value() - res.delivered_power.value() + ctrl};
  res.conduction_fraction = static_cast<double>(conducting) / n;
  return res;
}

double IdealRectifier::instantaneous_current(double voc, double vdc, double rs) const {
  const double drive = std::fabs(voc) - vdc;
  return drive > 0.0 ? drive / rs : 0.0;
}

DiodeBridgeRectifier::DiodeBridgeRectifier() : DiodeBridgeRectifier(Params{}) {}

DiodeBridgeRectifier::DiodeBridgeRectifier(Params p) : prm_(p) {
  PICO_REQUIRE(prm_.diode_drop.value() >= 0.0, "diode drop must be non-negative");
}

double DiodeBridgeRectifier::instantaneous_current(double voc, double vdc, double rs) const {
  const double drive = std::fabs(voc) - vdc - 2.0 * prm_.diode_drop.value();
  return drive > 0.0 ? drive / rs : 0.0;
}

SynchronousRectifier::SynchronousRectifier() : SynchronousRectifier(Params{}) {}

SynchronousRectifier::SynchronousRectifier(Params p) : prm_(p) {
  PICO_REQUIRE(prm_.r_on.value() > 0.0, "switch on-resistance must be positive");
}

double SynchronousRectifier::instantaneous_current(double voc, double vdc, double rs) const {
  // Conducts once |voc| exceeds vdc plus the comparator offset; the
  // current path then sees Rs + 2*Ron.
  const double drive = std::fabs(voc) - vdc - prm_.comparator_offset.value();
  if (drive <= 0.0) return 0.0;
  return (std::fabs(voc) - vdc) / (rs + 2.0 * prm_.r_on.value());
}

}  // namespace pico::power
