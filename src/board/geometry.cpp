#include "board/geometry.hpp"

#include "common/error.hpp"

namespace pico::board {

Rect Rect::centered(Point center, Length width, Length height) {
  PICO_REQUIRE(width.value() > 0.0 && height.value() > 0.0,
               "rectangle dimensions must be positive");
  const double hw = 0.5 * width.value();
  const double hh = 0.5 * height.value();
  return Rect(center.x - hw, center.y - hh, center.x + hw, center.y + hh);
}

Area Rect::area() const { return Area{(x1_ - x0_) * (y1_ - y0_)}; }

namespace {
// Geometric comparisons tolerate sub-nanometer floating-point residue so a
// part that exactly spans the placement boundary is legal.
constexpr double kGeomEps = 1e-12;
}  // namespace

bool Rect::contains(const Rect& other) const {
  return other.x0_ >= x0_ - kGeomEps && other.x1_ <= x1_ + kGeomEps &&
         other.y0_ >= y0_ - kGeomEps && other.y1_ <= y1_ + kGeomEps;
}

bool Rect::overlaps(const Rect& other) const {
  return !(other.x0_ >= x1_ - kGeomEps || other.x1_ <= x0_ + kGeomEps ||
           other.y0_ >= y1_ - kGeomEps || other.y1_ <= y0_ + kGeomEps);
}

Rect Rect::inset(Length margin) const {
  const double m = margin.value();
  return Rect(x0_ + m, y0_ + m, x1_ - m, y1_ - m);
}

}  // namespace pico::board
