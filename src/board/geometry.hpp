// geometry.hpp — 2D geometry primitives for board layout checks.
//
// All coordinates are in meters (use the `_mm` literal); boards use a
// coordinate system centered on the board, +x right, +y up.
#pragma once

#include "common/units.hpp"

namespace pico::board {

struct Point {
  double x = 0.0;  // [m]
  double y = 0.0;  // [m]
};

// Axis-aligned rectangle.
class Rect {
 public:
  Rect() = default;
  // Center + size.
  static Rect centered(Point center, Length width, Length height);

  [[nodiscard]] double x_min() const { return x0_; }
  [[nodiscard]] double x_max() const { return x1_; }
  [[nodiscard]] double y_min() const { return y0_; }
  [[nodiscard]] double y_max() const { return y1_; }
  [[nodiscard]] Length width() const { return Length{x1_ - x0_}; }
  [[nodiscard]] Length height() const { return Length{y1_ - y0_}; }
  [[nodiscard]] Area area() const;
  [[nodiscard]] Point center() const { return {0.5 * (x0_ + x1_), 0.5 * (y0_ + y1_)}; }

  [[nodiscard]] bool contains(const Rect& other) const;
  [[nodiscard]] bool overlaps(const Rect& other) const;
  // Shrink on all sides by `margin` (may invert; check validity).
  [[nodiscard]] Rect inset(Length margin) const;
  [[nodiscard]] bool valid() const { return x1_ > x0_ && y1_ > y0_; }

 private:
  Rect(double x0, double y0, double x1, double y1) : x0_(x0), y0_(y0), x1_(x1), y1_(y1) {}
  double x0_ = 0.0, y0_ = 0.0, x1_ = 0.0, y1_ = 0.0;
};

}  // namespace pico::board
