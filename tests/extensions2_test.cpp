// Tests for the second extension wave: lifetime and storage sizing.
#include <gtest/gtest.h>

#include "core/lifetime.hpp"
#include "storage/nimh.hpp"

namespace pico {
namespace {

using namespace pico::literals;

TEST(Lifetime, RequiredCapacityForTwoDarkWeeks) {
  core::RideThroughSpec spec;  // defaults: 6.5 uW, 14 days, 70 % depth
  const auto q = core::LifetimeAnalysis::required_capacity(spec, 1.2_V);
  // Load charge alone: 6.5 uW / 1.2 V * 14 d = 6.5 C -> with margins ~ 11 C.
  EXPECT_GT(q.value(), 7.0);
  EXPECT_LT(q.value(), 15.0);
  // The 15 mAh (54 C) cell covers it with 5x headroom: the design is sane.
  EXPECT_LT(q.value(), 54.0);
}

TEST(Lifetime, DecadeClassWithHarvesting) {
  // Cycling at 6.5 uW through a 54 C cell: ~1.3 equivalent cycles/year —
  // calendar fade dominates, and the paper's "decades" needs chemistry
  // beyond NiMH (the honest answer §7.2 hints at).
  const auto est =
      core::LifetimeAnalysis::nimh_life(Power{6.5e-6}, Charge{54.0}, 1.2_V);
  EXPECT_GT(est.years_cycle_limited, 100.0);
  EXPECT_NEAR(est.years_calendar_limited, 8.0, 1e-9);
  EXPECT_FALSE(est.decade_class);
}

TEST(Lifetime, CycleLimitedWhenBufferIsTiny) {
  // A 0.5 C film cell cycles ~400x/year at the same load.
  const auto est = core::LifetimeAnalysis::nimh_life(Power{6.5e-6}, Charge{0.5}, 1.5_V);
  EXPECT_LT(est.years_cycle_limited, 8.0);
  EXPECT_LT(est.years(), est.years_calendar_limited);
}

}  // namespace
}  // namespace pico
