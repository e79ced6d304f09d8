// mathutil.hpp — small numerical toolbox shared by the simulation models:
// interpolation tables, root finding, and scalar helpers. Everything is
// deterministic and allocation-light.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace pico {

// Clamp helper (std::clamp with doubles, kept for symmetry with lerp).
constexpr double clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

constexpr double lerp(double a, double b, double t) { return a + (b - a) * t; }

// ---------------------------------------------------------------------------
// LookupTable — piecewise-linear y(x) from sorted breakpoints, used for
// datasheet curves (battery discharge plateau, efficiency maps, antenna
// efficiency vs dielectric thickness).
// ---------------------------------------------------------------------------
class LookupTable {
 public:
  LookupTable() = default;
  // Points must be sorted by x strictly increasing.
  explicit LookupTable(std::vector<std::pair<double, double>> points);

  // Linear interpolation; clamps outside the table range.
  [[nodiscard]] double operator()(double x) const;

  [[nodiscard]] bool empty() const { return pts_.empty(); }
  [[nodiscard]] std::size_t size() const { return pts_.size(); }

 private:
  std::vector<std::pair<double, double>> pts_;
};

// ---------------------------------------------------------------------------
// Root finding and optimization.
// ---------------------------------------------------------------------------

// Bisection on [lo, hi]; f(lo) and f(hi) must bracket a root. Returns the
// midpoint after reaching |hi - lo| < tol or max_iter iterations.
double bisect(const std::function<double(double)>& f, double lo, double hi,
              double tol = 1e-12, int max_iter = 200);

// Golden-section minimization of a unimodal f on [lo, hi].
double golden_minimize(const std::function<double(double)>& f, double lo, double hi,
                       double tol = 1e-10, int max_iter = 200);

// ---------------------------------------------------------------------------
// Scalar utilities.
// ---------------------------------------------------------------------------

// Relative difference |a - b| / max(|a|, |b|, eps) — used by tests and by
// EXPERIMENTS reporting.
double rel_diff(double a, double b);

}  // namespace pico
