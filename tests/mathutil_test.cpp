// Tests for the numerical toolbox.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pico {
namespace {

TEST(LookupTable, InterpolatesLinearly) {
  LookupTable t({{0.0, 0.0}, {1.0, 10.0}, {2.0, 30.0}});
  EXPECT_DOUBLE_EQ(t(0.5), 5.0);
  EXPECT_DOUBLE_EQ(t(1.5), 20.0);
  EXPECT_DOUBLE_EQ(t(1.0), 10.0);
}

TEST(LookupTable, ClampsOutsideRange) {
  LookupTable t({{0.0, 1.0}, {1.0, 2.0}});
  EXPECT_DOUBLE_EQ(t(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(t(5.0), 2.0);
}

TEST(LookupTable, RejectsUnsortedInput) {
  EXPECT_THROW(LookupTable({{1.0, 0.0}, {0.5, 1.0}}), DesignError);
  EXPECT_THROW(LookupTable(std::vector<std::pair<double, double>>{}), DesignError);
}

TEST(Bisect, FindsRoot) {
  const double root = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, RequiresBracketing) {
  EXPECT_THROW(bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0), DesignError);
}

TEST(GoldenMinimize, FindsMinimum) {
  const double x = golden_minimize([](double v) { return (v - 3.0) * (v - 3.0); }, 0.0, 10.0);
  EXPECT_NEAR(x, 3.0, 1e-7);
}

TEST(RelDiff, Behaviour) {
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
}

TEST(Clamp, Basics) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.25), 2.5);
}

}  // namespace
}  // namespace pico
