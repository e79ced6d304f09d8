#include "harvest/profiles.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pico::harvest {

SpeedProfile::SpeedProfile(std::vector<Point> points, bool loop)
    : pts_(std::move(points)), loop_(loop) {
  PICO_REQUIRE(pts_.size() >= 1, "SpeedProfile needs at least one point");
  for (const auto& p : pts_) {
    // A NaN time defeats every ordering test below and in the segment
    // search, which would then run off the end of the breakpoints.
    PICO_REQUIRE(std::isfinite(p.t) && std::isfinite(p.omega),
                 "SpeedProfile times and speeds must be finite");
    PICO_REQUIRE(p.omega >= 0.0, "angular speed must be non-negative");
  }
  for (std::size_t i = 1; i < pts_.size(); ++i) {
    PICO_REQUIRE(pts_[i - 1].t < pts_[i].t, "SpeedProfile times must increase");
  }
  // Precompute cumulative angle at breakpoints (trapezoid segments are exact
  // for piecewise-linear speed).
  cum_angle_.resize(pts_.size(), 0.0);
  for (std::size_t i = 1; i < pts_.size(); ++i) {
    const double dt = pts_[i].t - pts_[i - 1].t;
    cum_angle_[i] = cum_angle_[i - 1] + 0.5 * (pts_[i].omega + pts_[i - 1].omega) * dt;
  }
}

std::size_t SpeedProfile::segment(double t, std::size_t seg) const {
  // Precondition: pts_.front().t < t < pts_.back().t, so the scan stops.
  if (seg < 1 || seg >= pts_.size() || t <= pts_[seg - 1].t) seg = 1;
  while (t > pts_[seg].t) ++seg;
  return seg;
}

double SpeedProfile::interpolate(std::size_t seg, double t) const {
  const double frac = (t - pts_[seg - 1].t) / (pts_[seg].t - pts_[seg - 1].t);
  return pts_[seg - 1].omega + frac * (pts_[seg].omega - pts_[seg - 1].omega);
}

double SpeedProfile::omega_raw(double t, std::size_t& seg) const {
  if (t <= pts_.front().t) return pts_.front().omega;
  if (t >= pts_.back().t) return pts_.back().omega;
  seg = segment(t, seg);
  return interpolate(seg, t);
}

SpeedProfile::Sample SpeedProfile::sample_raw(double t, std::size_t& seg) const {
  if (t <= pts_.front().t) return {pts_.front().omega, pts_.front().omega * (t - pts_.front().t)};
  if (t >= pts_.back().t) {
    return {pts_.back().omega, cum_angle_.back() + pts_.back().omega * (t - pts_.back().t)};
  }
  seg = segment(t, seg);
  const double dt = t - pts_[seg - 1].t;
  const double w = interpolate(seg, t);
  return {w, cum_angle_[seg - 1] + 0.5 * (pts_[seg - 1].omega + w) * dt};
}

double SpeedProfile::omega_at(double t, std::size_t& seg) const {
  if (loop_ && pts_.size() > 1) {
    const double span = pts_.back().t - pts_.front().t;
    const double local = std::fmod(std::max(t - pts_.front().t, 0.0), span);
    return omega_raw(pts_.front().t + local, seg);
  }
  return omega_raw(t, seg);
}

double SpeedProfile::angle_at(double t, std::size_t& seg) const {
  if (loop_ && pts_.size() > 1) {
    const double span = pts_.back().t - pts_.front().t;
    const double shifted = std::max(t - pts_.front().t, 0.0);
    const double cycles = std::floor(shifted / span);
    const double local = shifted - cycles * span;
    return cycles * cum_angle_.back() + sample_raw(pts_.front().t + local, seg).angle;
  }
  return sample_raw(t, seg).angle;
}

SpeedProfile::Sample SpeedProfile::sample_at(double t, std::size_t& seg) const {
  if (loop_ && pts_.size() > 1) {
    // omega_at and angle_at fold t into the loop by different formulas;
    // where both land on the same local time one lookup serves both.
    const double span = pts_.back().t - pts_.front().t;
    const double shifted = std::max(t - pts_.front().t, 0.0);
    const double cycles = std::floor(shifted / span);
    const double local = shifted - cycles * span;
    const double local_w = std::fmod(shifted, span);
    Sample s = sample_raw(pts_.front().t + local, seg);
    if (local_w != local) s.omega = omega_raw(pts_.front().t + local_w, seg);
    s.angle = cycles * cum_angle_.back() + s.angle;
    return s;
  }
  return sample_raw(t, seg);
}

double SpeedProfile::omega(double t) const {
  std::size_t seg = 1;
  return omega_at(t, seg);
}

double SpeedProfile::angle(double t) const {
  std::size_t seg = 1;
  return angle_at(t, seg);
}

double SpeedProfile::max_omega(double t0, double t1) const {
  double w = std::max(omega(t0), omega(t1));
  if (pts_.size() < 2) return w;
  const double span = duration();
  const double slack = 1e-9 * std::max({std::fabs(t0), std::fabs(t1), span});
  const auto take_between = [&](double lo, double hi) {
    for (const auto& p : pts_) {
      if (p.t >= lo && p.t <= hi) w = std::max(w, p.omega);
    }
  };
  if (!loop_) {
    take_between(t0 - slack, t1 + slack);
    return w;
  }
  // Loop-local positions, as omega() maps them (times before the first
  // point sit at local 0); the window may wrap across the seam once.
  const double front = pts_.front().t;
  const double a0 = std::max(t0 - front, 0.0);
  const double a1 = std::max(t1 - front, 0.0);
  if (a1 - a0 + 2.0 * slack >= span) {
    take_between(front, pts_.back().t);
    return w;
  }
  const double l0 = front + std::fmod(a0, span) - slack;
  const double l1 = l0 + (a1 - a0) + 2.0 * slack;
  take_between(l0, l1);
  take_between(l0 + span, l1 + span);
  take_between(l0 - span, l1 - span);
  return w;
}

double SpeedProfile::duration() const { return pts_.back().t - pts_.front().t; }

namespace {
double wheel_omega(double kph, Length radius) {
  return (kph / 3.6) / radius.value();
}
}  // namespace

SpeedProfile make_parked(Duration span) {
  return SpeedProfile({{0.0, 0.0}, {span.value(), 0.0}});
}

SpeedProfile make_city_cycle(Length wheel_radius) {
  // Stop-and-go: accelerate to 50 km/h, cruise, brake to a stop, wait.
  auto w = [&](double kph) { return wheel_omega(kph, wheel_radius); };
  return SpeedProfile({{0.0, w(0)},
                       {8.0, w(50)},
                       {35.0, w(50)},
                       {42.0, w(0)},
                       {60.0, w(0)},
                       {68.0, w(30)},
                       {95.0, w(30)},
                       {101.0, w(0)},
                       {120.0, w(0)}},
                      /*loop=*/true);
}

SpeedProfile make_highway_cycle(Length wheel_radius) {
  auto w = [&](double kph) { return wheel_omega(kph, wheel_radius); };
  return SpeedProfile({{0.0, w(100)}, {30.0, w(115)}, {60.0, w(105)}, {90.0, w(110)}},
                      /*loop=*/true);
}

SpeedProfile make_bicycle_ride(Length wheel_radius) {
  auto w = [&](double kph) { return wheel_omega(kph, wheel_radius); };
  return SpeedProfile({{0.0, w(0)},
                       {6.0, w(18)},
                       {60.0, w(22)},
                       {90.0, w(15)},
                       {120.0, w(25)},
                       {150.0, w(0)},
                       {165.0, w(0)}},
                      /*loop=*/true);
}

IrradianceProfile::IrradianceProfile() : IrradianceProfile(Params{}) {}

IrradianceProfile::IrradianceProfile(Params p) : prm_(p) {
  PICO_REQUIRE(prm_.day_length.value() > 0.0, "day length must be positive");
  PICO_REQUIRE(prm_.daylight_fraction > 0.0 && prm_.daylight_fraction <= 1.0,
               "daylight fraction must be within (0, 1]");
}

double IrradianceProfile::at(double t) const {
  const double day = prm_.day_length.value();
  const double phase = std::fmod(std::max(t, 0.0), day) / day;
  if (phase >= prm_.daylight_fraction) return prm_.floor_w_per_m2;
  // Half-sine over the daylight window.
  const double x = phase / prm_.daylight_fraction;
  const double sun = std::sin(M_PI * x);
  return prm_.floor_w_per_m2 + (prm_.peak_w_per_m2 - prm_.floor_w_per_m2) * sun;
}

}  // namespace pico::harvest
