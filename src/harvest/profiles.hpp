// profiles.hpp — motion/irradiance profiles that drive the harvesters.
//
// The paper's deployments are rotation-driven: a tire-pressure node on a
// wheel rim and a bicycle-wheel scavenger demo. A `SpeedProfile` is a
// piecewise-linear angular-speed trajectory with an analytic integral, so
// harvester models can recover the exact rotation phase at any time.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"

namespace pico::harvest {

// Piecewise-linear angular speed omega(t) [rad/s] with exact phase integral.
class SpeedProfile {
 public:
  struct Point {
    double t;      // [s]
    double omega;  // [rad/s]
  };

  // Points must be finite and strictly increasing in t, with non-negative
  // speeds. Speed holds constant after the last point; if `loop` is true
  // the profile repeats with period t_back.
  explicit SpeedProfile(std::vector<Point> points, bool loop = false);

  [[nodiscard]] double omega(double t) const;        // rad/s
  [[nodiscard]] double angle(double t) const;        // integral of omega, rad
  [[nodiscard]] double duration() const;             // profile span
  [[nodiscard]] bool loops() const { return loop_; }

  // Largest omega over [t0, t1]: the maximum of omega() at both endpoints
  // and at every breakpoint in between (across the loop seam). Exact for
  // the piecewise-linear speed; breakpoints within a relative 1e-9 of the
  // interval also count, so the value never undershoots omega() at a time
  // whose loop-local position rounded across a breakpoint.
  [[nodiscard]] double max_omega(double t0, double t1) const;

  struct Sample {
    double omega;  // omega(t)
    double angle;  // angle(t)
  };

  // Sequential evaluator for sweeps: omega() and angle() bit for bit, but
  // the segment search resumes from the previous query's segment instead
  // of scanning from the first breakpoint. Queries may go backwards (a
  // backward step rescans once).
  class Cursor {
   public:
    explicit Cursor(const SpeedProfile& p) : p_(&p) {}
    [[nodiscard]] double omega(double t) { return p_->omega_at(t, seg_); }
    [[nodiscard]] double angle(double t) { return p_->angle_at(t, seg_); }
    // Both at once, sharing one segment search.
    [[nodiscard]] Sample sample(double t) { return p_->sample_at(t, seg_); }

   private:
    const SpeedProfile* p_;
    std::size_t seg_ = 1;
  };

 private:
  // `seg` is a search hint in and the segment found out: pts_[seg - 1].t <
  // local time <= pts_[seg].t.
  [[nodiscard]] std::size_t segment(double t, std::size_t seg) const;
  [[nodiscard]] double interpolate(std::size_t seg, double t) const;
  [[nodiscard]] double omega_raw(double t, std::size_t& seg) const;
  [[nodiscard]] Sample sample_raw(double t, std::size_t& seg) const;
  [[nodiscard]] double omega_at(double t, std::size_t& seg) const;
  [[nodiscard]] double angle_at(double t, std::size_t& seg) const;
  [[nodiscard]] Sample sample_at(double t, std::size_t& seg) const;

  std::vector<Point> pts_;
  std::vector<double> cum_angle_;  // angle at each breakpoint
  bool loop_;
};

// --- Canonical drive cycles -------------------------------------------------

// Wheel angular speed for a road vehicle: omega = v / r_wheel.
SpeedProfile make_parked(Duration span);
// Urban stop-and-go: 0-50 km/h cycles. r_wheel defaults to a passenger tire.
SpeedProfile make_city_cycle(Length wheel_radius = Length{0.31});
// Steady highway cruise at ~110 km/h.
SpeedProfile make_highway_cycle(Length wheel_radius = Length{0.31});
// A leisurely bicycle ride (for the §6 bicycle-wheel demo), ~15-25 km/h.
SpeedProfile make_bicycle_ride(Length wheel_radius = Length{0.34});

// --- Irradiance -------------------------------------------------------------

// Simple day/night irradiance trace for the solar variant: value in W/m^2.
class IrradianceProfile {
 public:
  struct Params {
    double peak_w_per_m2 = 400.0;   // bright indoor / shaded outdoor
    double floor_w_per_m2 = 2.0;    // office lighting at night
    Duration day_length{86400.0};
    double daylight_fraction = 0.5;
  };

  IrradianceProfile();
  explicit IrradianceProfile(Params p);

  [[nodiscard]] double at(double t) const;  // W/m^2

 private:
  Params prm_;
};

}  // namespace pico::harvest
