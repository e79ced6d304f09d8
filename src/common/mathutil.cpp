#include "common/mathutil.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pico {

LookupTable::LookupTable(std::vector<std::pair<double, double>> points)
    : pts_(std::move(points)) {
  PICO_REQUIRE(!pts_.empty(), "LookupTable requires at least one point");
  for (std::size_t i = 1; i < pts_.size(); ++i) {
    PICO_REQUIRE(pts_[i - 1].first < pts_[i].first,
                 "LookupTable x values must be strictly increasing");
  }
}

double LookupTable::operator()(double x) const {
  PICO_ASSERT(!pts_.empty());
  if (x <= pts_.front().first) return pts_.front().second;
  if (x >= pts_.back().first) return pts_.back().second;
  const auto it = std::lower_bound(
      pts_.begin(), pts_.end(), x,
      [](const std::pair<double, double>& p, double v) { return p.first < v; });
  const auto hi = it;
  const auto lo = it - 1;
  const double t = (x - lo->first) / (hi->first - lo->first);
  return lerp(lo->second, hi->second, t);
}

double bisect(const std::function<double(double)>& f, double lo, double hi, double tol,
              int max_iter) {
  double flo = f(lo);
  double fhi = f(hi);
  PICO_REQUIRE(flo * fhi <= 0.0, "bisect requires a bracketing interval");
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  for (int i = 0; i < max_iter && (hi - lo) > tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if (flo * fmid < 0.0) {
      hi = mid;
      fhi = fmid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  return 0.5 * (lo + hi);
}

double golden_minimize(const std::function<double(double)>& f, double lo, double hi,
                       double tol, int max_iter) {
  PICO_REQUIRE(lo < hi, "golden_minimize requires lo < hi");
  constexpr double inv_phi = 0.6180339887498949;
  double a = lo;
  double b = hi;
  double c = b - inv_phi * (b - a);
  double d = a + inv_phi * (b - a);
  double fc = f(c);
  double fd = f(d);
  for (int i = 0; i < max_iter && (b - a) > tol; ++i) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - inv_phi * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + inv_phi * (b - a);
      fd = f(d);
    }
  }
  return 0.5 * (a + b);
}

double rel_diff(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

}  // namespace pico
