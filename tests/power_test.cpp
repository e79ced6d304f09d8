// Tests for the power-management models: rectifiers, COTS regulators,
// SC converter stages, power gating, and the integrated power IC.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "harvest/harvester.hpp"
#include "power/converters.hpp"
#include "power/gating.hpp"
#include "power/power_ic.hpp"
#include "power/rectifier.hpp"
#include "sim/simulator.hpp"

namespace pico::power {
namespace {

using namespace pico::literals;

harvest::ElectromagneticShaker highway_shaker() {
  return harvest::ElectromagneticShaker(harvest::make_highway_cycle());
}

TEST(Rectifier, IdealDeliversMostCurrent) {
  const auto shaker = highway_shaker();
  const Voltage vb = 1.25_V;
  const auto ideal = IdealRectifier{}.rectify(shaker, vb, 10.0, 12.0);
  const auto bridge = DiodeBridgeRectifier{}.rectify(shaker, vb, 10.0, 12.0);
  const auto sync = SynchronousRectifier{}.rectify(shaker, vb, 10.0, 12.0);
  EXPECT_GT(ideal.avg_current.value(), 0.0);
  EXPECT_GT(sync.avg_current.value(), bridge.avg_current.value());
  EXPECT_GE(ideal.avg_current.value(), sync.avg_current.value());
}

TEST(Rectifier, SynchronousNear96PercentOfIdeal) {
  // Paper §7.1: "96 % of the efficiency of an ideal rectifier at 450 uW".
  const auto shaker = highway_shaker();
  const Voltage vb = 1.25_V;
  const auto ideal = IdealRectifier{}.rectify(shaker, vb, 10.0, 12.0);
  const auto sync = SynchronousRectifier{}.rectify(shaker, vb, 10.0, 12.0);
  const double frac = sync.delivered_power.value() / ideal.delivered_power.value();
  EXPECT_GT(frac, 0.90);
  EXPECT_LT(frac, 1.0);
}

TEST(Rectifier, DiodeBridgeLosesTwoDrops) {
  // With a 1.25 V sink and 0.7 V of bridge drops, conduction needs ~2 V
  // peaks; the bridge conducts noticeably less often than the ideal.
  const auto shaker = highway_shaker();
  const auto ideal = IdealRectifier{}.rectify(shaker, 1.25_V, 10.0, 12.0);
  const auto bridge = DiodeBridgeRectifier{}.rectify(shaker, 1.25_V, 10.0, 12.0);
  EXPECT_LT(bridge.conduction_fraction, ideal.conduction_fraction);
}

TEST(Rectifier, NoOutputWhenParked) {
  harvest::ElectromagneticShaker parked(harvest::make_parked(100_s));
  const auto r = SynchronousRectifier{}.rectify(parked, 1.25_V, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(r.avg_current.value(), 0.0);
  EXPECT_DOUBLE_EQ(r.conduction_fraction, 0.0);
}

TEST(Rectifier, PowerBalance) {
  const auto shaker = highway_shaker();
  const auto r = SynchronousRectifier{}.rectify(shaker, 1.25_V, 10.0, 12.0);
  // source power = delivered + loss - control adjustments.
  EXPECT_NEAR(r.source_power.value(),
              r.delivered_power.value() + r.loss.value() -
                  SynchronousRectifier{}.control_power().value(),
              1e-12);
}

// ---------------------------------------------------------------------------
// RectifyCull: rectify() skips windows and samples that provably carry no
// current. Every result must equal the full per-sample loop bit for bit.
// ---------------------------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The full loop, built from public per-sample calls only.
RectifierResult brute_force(const Rectifier& r, const harvest::Harvester& h, double vdc,
                            double t0, double t1, int samples) {
  const double rs = h.source_resistance().value();
  double sum_i = 0.0;
  double sum_psrc = 0.0;
  int conducting = 0;
  const double dt = (t1 - t0) / samples;
  for (int k = 0; k < samples; ++k) {
    const double voc = h.open_circuit_voltage(t0 + (k + 0.5) * dt);
    const double i = r.instantaneous_current(voc, vdc, rs);
    sum_i += i;
    sum_psrc += std::fabs(voc) * i;
    if (i > 0.0) ++conducting;
  }
  const double n = static_cast<double>(samples);
  RectifierResult res;
  res.avg_current = Current{sum_i / n};
  res.source_power = Power{sum_psrc / n};
  res.delivered_power = Power{res.avg_current.value() * vdc};
  res.loss = Power{res.source_power.value() - res.delivered_power.value() +
                   r.control_power().value()};
  res.conduction_fraction = static_cast<double>(conducting) / n;
  return res;
}

struct CullProfile {
  const char* name;
  harvest::SpeedProfile profile;
  std::vector<std::pair<double, double>> windows;
};

// Windows straddle breakpoints and the loop seam, span more than one loop,
// and sit deep into a long run.
std::vector<CullProfile> cull_profiles() {
  return {
      {"city",
       harvest::make_city_cycle(),
       {{0.0, 1.0}, {7.5, 8.5}, {34.9, 35.2}, {41.5, 42.5}, {59.0, 60.0}, {67.9, 68.3},
        {119.4, 120.6}, {10.0, 250.0}, {14399.0, 14400.0}, {14435.2, 14436.2}}},
      {"highway",
       harvest::make_highway_cycle(),
       {{0.0, 1.0}, {29.5, 30.5}, {89.7, 90.3}, {179.0, 181.0}, {14399.0, 14400.0}}},
      {"bicycle",
       harvest::make_bicycle_ride(),
       {{5.5, 6.5}, {119.7, 120.3}, {149.0, 151.0}, {164.5, 165.5}, {320.0, 331.0},
        {3000.0, 3001.0}}},
      {"parked", harvest::make_parked(Duration{1000.0}), {{0.0, 1.0}, {999.5, 1000.5}}},
  };
}

std::vector<std::unique_ptr<Rectifier>> all_rectifiers() {
  std::vector<std::unique_ptr<Rectifier>> r;
  r.push_back(std::make_unique<IdealRectifier>());
  r.push_back(std::make_unique<DiodeBridgeRectifier>());
  r.push_back(std::make_unique<SynchronousRectifier>());
  return r;
}

void expect_culled_matches_brute_force(const Rectifier& rect) {
  // From a flat cell past the clamp (5 V): windows skip outright there.
  const double vdcs[] = {0.0, 0.9, 1.25, 1.45, 2.5, 4.3, 4.999, 5.0, 6.0};
  const int counts[] = {2, 512, 2048, 4096};
  for (const auto& cp : cull_profiles()) {
    const harvest::ElectromagneticShaker shaker(cp.profile);
    for (const auto& [t0, t1] : cp.windows) {
      for (const double vdc : vdcs) {
        for (const int n : counts) {
          SCOPED_TRACE(::testing::Message() << rect.name() << " " << cp.name << " [" << t0
                                            << ", " << t1 << "] vdc=" << vdc << " n=" << n);
          const auto got = rect.rectify(shaker, Voltage{vdc}, t0, t1, n);
          const auto want = brute_force(rect, shaker, vdc, t0, t1, n);
          ASSERT_EQ(bits(got.avg_current.value()), bits(want.avg_current.value()));
          ASSERT_EQ(bits(got.source_power.value()), bits(want.source_power.value()));
          ASSERT_EQ(bits(got.delivered_power.value()), bits(want.delivered_power.value()));
          ASSERT_EQ(bits(got.loss.value()), bits(want.loss.value()));
          ASSERT_EQ(bits(got.conduction_fraction), bits(want.conduction_fraction));
          ASSERT_GE(got.samples_evaluated, 0);
          ASSERT_LE(got.samples_evaluated, n);
          // Every conducting sample was evaluated.
          ASSERT_GE(static_cast<double>(got.samples_evaluated),
                    got.conduction_fraction * n);
        }
      }
    }
  }
}

TEST(RectifyCull, IdealMatchesBruteForce) { expect_culled_matches_brute_force(IdealRectifier{}); }

TEST(RectifyCull, DiodeBridgeMatchesBruteForce) {
  expect_culled_matches_brute_force(DiodeBridgeRectifier{});
}

TEST(RectifyCull, SynchronousMatchesBruteForce) {
  expect_culled_matches_brute_force(SynchronousRectifier{});
}

TEST(RectifyCull, CullsMostOfACityCycle) {
  // The city cycle stands still or crawls for much of its loop, and the
  // ring decays long before the next magnet pass: most work is culled.
  const harvest::ElectromagneticShaker shaker(harvest::make_city_cycle());
  const DiodeBridgeRectifier bridge;
  long evaluated = 0;
  int skipped = 0;
  for (int w = 0; w < 120; ++w) {
    const auto r = bridge.rectify(shaker, Voltage{1.3}, w, w + 1.0, 2048);
    evaluated += r.samples_evaluated;
    if (r.samples_evaluated == 0) ++skipped;
  }
  EXPECT_GT(skipped, 30);
  EXPECT_LT(evaluated, 120L * 2048 / 4);
}

TEST(RectifyCull, ParkedWindowEvaluatesNothing) {
  const harvest::ElectromagneticShaker parked(harvest::make_parked(Duration{100.0}));
  const auto r = SynchronousRectifier{}.rectify(parked, Voltage{1.25}, 0.0, 10.0);
  EXPECT_EQ(r.samples_evaluated, 0);
  EXPECT_EQ(bits(r.loss.value()), bits(SynchronousRectifier{}.control_power().value()));
}

// A harvester that keeps the base class's emf_bound (+infinity, "no
// bound"): a 2 V, 120 Hz sine behind 2 kOhm.
class UnboundedSine : public harvest::Harvester {
 public:
  [[nodiscard]] std::string name() const override { return "unbounded-sine"; }
  [[nodiscard]] double open_circuit_voltage(double t) const override {
    return 2.0 * std::sin(2.0 * M_PI * 120.0 * t);
  }
  [[nodiscard]] Resistance source_resistance() const override { return Resistance{2000.0}; }
  [[nodiscard]] Duration waveform_period(double) const override { return Duration{1.0 / 120.0}; }
};

TEST(RectifyCull, HarvesterWithoutBoundEvaluatesEverySample) {
  const UnboundedSine sine;
  EXPECT_TRUE(std::isinf(sine.emf_bound(0.0, 1.0)));
  const auto r = IdealRectifier{}.rectify(sine, Voltage{0.5}, 0.0, 0.1, 512);
  EXPECT_EQ(r.samples_evaluated, 512);
}

TEST(RectifyCull, EmfBoundCoversEverySample) {
  Rng rng(2008);
  for (const auto& cp : cull_profiles()) {
    const harvest::ElectromagneticShaker shaker(cp.profile);
    const auto& prof = shaker.profile();
    for (int trial = 0; trial < 400; ++trial) {
      const double t0 = rng.uniform(-5.0, 2000.0);
      const double t1 = t0 + (trial % 4 == 0 ? rng.uniform(0.0, 400.0) : rng.uniform(0.0, 3.0));
      const double wmax = prof.max_omega(t0, t1);
      const double bound = shaker.emf_bound(t0, t1);
      SCOPED_TRACE(::testing::Message() << cp.name << " [" << t0 << ", " << t1 << "]");
      for (int k = 0; k <= 64; ++k) {
        const double t = k == 64 ? t1 : t0 + (t1 - t0) * rng.uniform();
        ASSERT_LE(prof.omega(t), wmax) << "t=" << t;
        ASSERT_LE(std::fabs(shaker.open_circuit_voltage(t)), bound) << "t=" << t;
      }
    }
  }
}

TEST(RectifyCull, SweepOmitsOnlyQuietSamples) {
  Rng rng(2009);
  double out[1024];
  for (const auto& cp : cull_profiles()) {
    const harvest::ElectromagneticShaker shaker(cp.profile);
    for (int trial = 0; trial < 60; ++trial) {
      const double t0 = rng.uniform(0.0, 1000.0);
      const int n = 2 + static_cast<int>(rng.below(1000));
      const double dt = rng.uniform(1e-5, 2e-3);
      for (const double quiet : {-1.0, 0.0, 0.05, 0.4, 1.9, 6.0}) {
        SCOPED_TRACE(::testing::Message() << cp.name << " t0=" << t0 << " n=" << n
                                          << " quiet=" << quiet);
        const int m = shaker.sweep_emf(t0, dt, 0, n, quiet, out);
        ASSERT_LE(m, n);
        if (quiet < 0.0) {
          ASSERT_EQ(m, n);
        }
        // The written values are the scalar samples, in order; every
        // sample left out is at or below `quiet`.
        int j = 0;
        for (int k = 0; k < n; ++k) {
          const double voc = shaker.open_circuit_voltage(t0 + (k + 0.5) * dt);
          if (j < m && bits(out[j]) == bits(voc)) {
            ++j;
          } else {
            ASSERT_LE(std::fabs(voc), quiet) << "k=" << k;
          }
        }
        ASSERT_EQ(j, m);
      }
    }
  }
}

TEST(RectifyCull, CursorMatchesScalarQueries) {
  for (const auto& cp : cull_profiles()) {
    harvest::SpeedProfile::Cursor cursor(cp.profile);
    // Forward sweeps, exact breakpoints, backward jumps and the seam.
    std::vector<double> ts = {0.0, 8.0, 35.0, 42.0, 60.0, 119.999, 120.0, 120.001, 30.0, 6.0,
                              165.0, 90.0, -3.0, 1e5 + 0.25, 14400.0, 7.99999999};
    for (int k = 0; k < 3000; ++k) ts.push_back(100.0 + 0.1 * k);
    SCOPED_TRACE(cp.name);
    for (const double t : ts) {
      ASSERT_EQ(bits(cursor.omega(t)), bits(cp.profile.omega(t))) << "t=" << t;
      ASSERT_EQ(bits(cursor.angle(t)), bits(cp.profile.angle(t))) << "t=" << t;
    }
  }
}

// Pulse skipping: once a ring has provably decayed, the shaker's sweep
// jumps to just before the next magnet pass. These profiles and windows
// push its margins: a ramp whose local pulse rate is far below the chunk
// peak, a crawl just above min_omega (long jumps, past INT_MAX samples at
// dt = 1 ns), large times where phase and time rounding grow, and sample
// spacings from 1 ns to longer than a pulse period.
TEST(RectifyCull, PulseSkipMatchesBruteForceOnAdversarialProfiles) {
  const harvest::ElectromagneticShaker::Params defaults;
  const double crawl = defaults.min_omega * (1.0 + 1e-9);
  const std::vector<std::pair<const char*, harvest::SpeedProfile>> profiles = {
      {"ramp", harvest::SpeedProfile({{0.0, 0.0}, {0.5, 300.0}})},
      {"ramp-loop", harvest::SpeedProfile({{0.0, 0.0}, {0.5, 300.0}, {0.75, 0.0}}, true)},
      {"crawl", harvest::SpeedProfile({{0.0, crawl}, {7.0, crawl}, {13.0, 2.05}}, true)},
      {"city", harvest::make_city_cycle()},
  };
  const double t0s[] = {0.0, 0.2, 1e6 + 0.37, 1e7 + 0.61};
  const double dts[] = {1e-9, 1e-6, 1e-4, 2e-3, 0.5, 4.0};
  const std::vector<std::pair<const char*, std::unique_ptr<Rectifier>>> rects = [] {
    std::vector<std::pair<const char*, std::unique_ptr<Rectifier>>> r;
    r.emplace_back("ideal@0.05", std::make_unique<IdealRectifier>());
    r.emplace_back("bridge@1.3", std::make_unique<DiodeBridgeRectifier>());
    return r;
  }();
  const double vdcs[] = {0.05, 1.3};
  constexpr int kSamples = 1000;  // two uneven rectify chunks
  Rng rng(2020);
  double full[kSamples];
  double split[kSamples];
  long visited_total = 0;
  long sampled_total = 0;
  for (const auto& [pname, profile] : profiles) {
    for (const double ppr : {1.0, 2.0, 7.5}) {
      for (const double decay : {2e-3, 20e-3, 1.0}) {
        harvest::ElectromagneticShaker::Params prm;
        prm.pulses_per_rev = ppr;
        prm.ring_decay = Duration{decay};
        const harvest::ElectromagneticShaker shaker(profile, prm);
        for (const double t0 : t0s) {
          for (const double dt : dts) {
            SCOPED_TRACE(::testing::Message() << pname << " ppr=" << ppr << " decay=" << decay
                                              << " t0=" << t0 << " dt=" << dt);
            const double t1 = t0 + kSamples * dt;
            for (std::size_t r = 0; r < rects.size(); ++r) {
              const Rectifier& rect = *rects[r].second;
              const auto got = rect.rectify(shaker, Voltage{vdcs[r]}, t0, t1, kSamples);
              const auto want = brute_force(rect, shaker, vdcs[r], t0, t1, kSamples);
              SCOPED_TRACE(rects[r].first);
              ASSERT_EQ(bits(got.avg_current.value()), bits(want.avg_current.value()));
              ASSERT_EQ(bits(got.source_power.value()), bits(want.source_power.value()));
              ASSERT_EQ(bits(got.delivered_power.value()), bits(want.delivered_power.value()));
              ASSERT_EQ(bits(got.loss.value()), bits(want.loss.value()));
              ASSERT_EQ(bits(got.conduction_fraction), bits(want.conduction_fraction));
              ASSERT_LE(got.samples_evaluated, got.samples_visited);
              ASSERT_LE(got.samples_visited, kSamples);
            }
            // The sweep itself, whole and cut at arbitrary chunk bounds:
            // every sample above `quiet` is written, in order, bit for bit
            // the scalar value; only samples at or below it are left out.
            const double sample_dt = (t1 - t0) / kSamples;
            for (const double quiet : {0.01, 0.5}) {
              SCOPED_TRACE(::testing::Message() << "quiet=" << quiet);
              int visited = -1;
              const int m =
                  shaker.sweep_emf(t0, sample_dt, 0, kSamples, quiet, full, &visited);
              ASSERT_LE(m, visited);
              ASSERT_LE(visited, kSamples);
              visited_total += visited;
              sampled_total += kSamples;
              int ms = 0;
              for (int k0 = 0, k1 = 0; k0 < kSamples; k0 = k1) {
                k1 = std::min(kSamples, k0 + 1 + static_cast<int>(rng.below(400)));
                int v = -1;
                const int got = shaker.sweep_emf(t0, sample_dt, k0, k1, quiet, &split[ms], &v);
                ASSERT_LE(got, v);
                ASSERT_LE(v, k1 - k0);
                ms += got;
              }
              int j_full = 0;
              int j_split = 0;
              for (int k = 0; k < kSamples; ++k) {
                const double voc = shaker.open_circuit_voltage(t0 + (k + 0.5) * sample_dt);
                const bool in_full = j_full < m && bits(full[j_full]) == bits(voc);
                const bool in_split = j_split < ms && bits(split[j_split]) == bits(voc);
                j_full += in_full ? 1 : 0;
                j_split += in_split ? 1 : 0;
                if (std::fabs(voc) > quiet) {
                  ASSERT_TRUE(in_full && in_split) << "k=" << k;
                }
              }
              ASSERT_EQ(j_full, m);
              ASSERT_EQ(j_split, ms);
            }
          }
        }
      }
    }
  }
  // The jump fired.
  EXPECT_LT(visited_total, sampled_total);
  // A crawl's ring dies ~5 ms into a 3.1 s pulse period: at dt = 1 ns the
  // jump past it (~3e9 samples) is clamped to the chunk end.
  harvest::ElectromagneticShaker::Params prm;
  prm.pulses_per_rev = 1.0;
  prm.ring_decay = Duration{2e-3};
  const harvest::ElectromagneticShaker crawler(profiles[2].second, prm);
  int visited = -1;
  EXPECT_EQ(crawler.sweep_emf(0.2, 1e-9, 0, kSamples, 0.01, full, &visited), 0);
  EXPECT_EQ(visited, 1);
}

TEST(RectifyCull, CurrentMonotoneInAbsVoc) {
  // The contract culling rests on: i >= 0, even in voc, non-decreasing in
  // |voc|.
  Rng rng(7);
  for (const auto& rect : all_rectifiers()) {
    for (const double vdc : {0.0, 0.3, 1.25, 2.0, 4.9}) {
      for (const double rs : {1.0, 95.0, 2000.0}) {
        std::vector<double> v;
        for (int k = 0; k <= 4000; ++k) v.push_back(6.0 * k / 4000.0);
        for (int k = 0; k < 2000; ++k) v.push_back(rng.uniform(0.0, 6.0));
        // Dense around the conduction thresholds.
        for (const double edge : {vdc, vdc + 0.7, vdc + 5e-3}) {
          for (int k = -50; k <= 50; ++k) v.push_back(std::max(0.0, edge + k * 1e-12));
        }
        std::sort(v.begin(), v.end());
        SCOPED_TRACE(::testing::Message() << rect->name() << " vdc=" << vdc << " rs=" << rs);
        double prev = 0.0;
        for (const double x : v) {
          const double i = rect->instantaneous_current(x, vdc, rs);
          ASSERT_GE(i, 0.0) << "|voc|=" << x;
          ASSERT_GE(i, prev) << "|voc|=" << x;
          ASSERT_EQ(bits(rect->instantaneous_current(-x, vdc, rs)), bits(i)) << "|voc|=" << x;
          prev = i;
        }
      }
    }
  }
}

TEST(ChargePump, SnoozeQuiescentDominatesSleep) {
  ChargePumpTps60313 cp{ChargePumpTps60313::Params{}};
  const double iq = cp.params().iq_snooze.value();
  // Sleep-mode load of ~1 uA: input current ~ 2*Iout/(1-loss) + Iq_snooze.
  const auto iin = cp.input_current(1.25_V, 1_uA);
  EXPECT_NEAR(iin.value(), 2e-6 / 0.95 + iq, 1e-9);
  EXPECT_NEAR(cp.quiescent_power(1.25_V).value(), 1.25 * iq, 1e-12);
}

TEST(ChargePump, DoublerCeiling) {
  ChargePumpTps60313 cp{ChargePumpTps60313::Params{}};
  EXPECT_NEAR(cp.output_voltage(1.25_V, 1_mA).value(), 2.5, 1e-12);
  EXPECT_NEAR(cp.output_voltage(1.8_V, 1_mA).value(), 3.3, 1e-12);  // regulated
  EXPECT_DOUBLE_EQ(cp.output_voltage(0.5_V, 1_mA).value(), 0.0);    // under-voltage
}

TEST(ChargePump, ActiveModeAboveThreshold) {
  ChargePumpTps60313 cp{ChargePumpTps60313::Params{}};
  const auto i_light = cp.input_current(1.25_V, 1_mA);
  const auto i_heavy = cp.input_current(1.25_V, 3_mA);
  // Heavy load wakes the pump: quiescent jumps to the active value.
  EXPECT_NEAR(i_heavy.value() - 2.0 * 3e-3 / 0.95, cp.params().iq_active.value(), 1e-6);
  EXPECT_NEAR(i_light.value() - 2.0 * 1e-3 / 0.95, cp.params().iq_snooze.value(), 1e-6);
}

TEST(ChargePump, EfficiencyReasonableUnderLoad) {
  ChargePumpTps60313 cp{ChargePumpTps60313::Params{}};
  const double eff = cp.efficiency(1.25_V, 500_uA);
  EXPECT_GT(eff, 0.7);
  EXPECT_LT(eff, 1.0);
}

TEST(Ldo, DropoutBehaviour) {
  LinearRegulatorLt3020 ldo;
  EXPECT_NEAR(ldo.output_voltage(0.9_V, 1_mA).value(), 0.65, 1e-12);
  // Input too low: output follows vin - dropout.
  EXPECT_NEAR(ldo.output_voltage(0.7_V, 1_mA).value(), 0.55, 1e-12);
}

TEST(Ldo, GatedOffDrawsOnlyLeakage) {
  LinearRegulatorLt3020 ldo;
  ldo.set_enabled(false);
  EXPECT_DOUBLE_EQ(ldo.output_voltage(0.9_V, 0_uA).value(), 0.0);
  EXPECT_NEAR(ldo.input_current(0.9_V, 0_uA).value(), 5e-9, 1e-15);
  ldo.set_enabled(true);
  EXPECT_NEAR(ldo.input_current(0.9_V, 1_mA).value(), 1e-3 + 20e-6, 1e-12);
}

TEST(Ldo, EfficiencyIsVoutOverVinMinusIq) {
  LinearRegulatorLt3020 ldo;
  const double eff = ldo.efficiency(0.9_V, 2_mA);
  // Ideal LDO efficiency bound: vout/vin = 0.722.
  EXPECT_LT(eff, 0.65 / 0.9 + 1e-9);
  EXPECT_GT(eff, 0.6);
}

TEST(Shunt, RegulatesUntilOverload) {
  ShuntRegulatorStage sh{ShuntRegulatorStage::Params{}};
  const auto vdd = 2.5_V;  // MCU I/O rail
  EXPECT_NEAR(sh.output_voltage(vdd, 100_uA).value(), 1.0, 1e-12);
  const auto imax = sh.max_load(vdd);
  EXPECT_NEAR(imax.value(), 1.5 / 5600.0, 1e-9);
  // Overload: sags.
  EXPECT_LT(sh.output_voltage(vdd, Current{2.0 * imax.value()}).value(), 1.0);
}

TEST(Shunt, BurnsConstantCurrentWhenEnergized) {
  ShuntRegulatorStage sh{ShuntRegulatorStage::Params{}};
  const auto i0 = sh.input_current(2.5_V, 0_uA);
  const auto i1 = sh.input_current(2.5_V, 100_uA);
  EXPECT_NEAR(i0.value(), i1.value(), 1e-9);  // shunt absorbs the slack
  sh.set_enabled(false);
  EXPECT_DOUBLE_EQ(sh.input_current(2.5_V, 0_uA).value(), 0.0);
}

TEST(ScStage, RegulatesMcuRail) {
  scopt::ConverterAnalysis an(scopt::Topology::doubler());
  ScConverterStage stage("mcu", scopt::SizedConverter(std::move(an), scopt::Technology{},
                                                      Area{1.2e-6}, Area{0.3e-6}),
                         2.1_V, 200_uA);
  EXPECT_NEAR(stage.output_voltage(1.2_V, 200_uA).value(), 2.1, 2e-2);
  EXPECT_GT(stage.efficiency(1.2_V, 200_uA), 0.8);
}

TEST(ScStage, QuiescentIsTiny) {
  scopt::ConverterAnalysis an(scopt::Topology::doubler());
  ScConverterStage stage("mcu", scopt::SizedConverter(std::move(an), scopt::Technology{},
                                                      Area{1.2e-6}, Area{0.3e-6}),
                         2.1_V, 200_uA);
  EXPECT_LT(stage.quiescent_power(1.2_V).value(), 1e-6);
}

TEST(ScStage, DisabledDrawsNothing) {
  scopt::ConverterAnalysis an(scopt::Topology::step_down_3to2());
  ScConverterStage stage("radio", scopt::SizedConverter(std::move(an), scopt::Technology{},
                                                        Area{1.2e-6}, Area{0.3e-6}),
                         Voltage{0.7}, 2.5_mA);
  stage.set_enabled(false);
  EXPECT_DOUBLE_EQ(stage.input_current(1.2_V, 1_mA).value(), 0.0);
  EXPECT_DOUBLE_EQ(stage.output_voltage(1.2_V, 1_mA).value(), 0.0);
}

TEST(PowerGate, PassAndLeakage) {
  PowerGate g;
  EXPECT_DOUBLE_EQ(g.pass(1_V, 1_mA).value(), 0.0);  // off
  EXPECT_NEAR(g.draw(1_V, 1_mA).value(), 1e-9, 1e-15);
  g.set_on(true);
  EXPECT_NEAR(g.pass(1_V, 1_mA).value(), 1.0 - 2e-3, 1e-12);
  EXPECT_DOUBLE_EQ(g.draw(1_V, 1_mA).value(), 1e-3);
}

TEST(RadioSequencer, SequencesInputThenOutput) {
  sim::Simulator sim;
  RadioRailSequencer seq(sim);
  bool ready = false;
  seq.power_up([&] { ready = true; });
  EXPECT_TRUE(seq.input_gated_on());
  EXPECT_FALSE(seq.output_gated_on());
  sim.run_until(Duration{150e-6});
  EXPECT_FALSE(seq.output_gated_on());  // still inside the delay
  sim.run_until(Duration{250e-6});
  EXPECT_TRUE(seq.output_gated_on());
  EXPECT_FALSE(ready);  // settling
  sim.run_until(Duration{400e-6});
  EXPECT_TRUE(ready);
  EXPECT_TRUE(seq.rail_good());
}

TEST(RadioSequencer, PowerDownCancelsPendingSequence) {
  sim::Simulator sim;
  RadioRailSequencer seq(sim);
  bool ready = false;
  seq.power_up([&] { ready = true; });
  sim.run_until(Duration{100e-6});
  seq.power_down();
  sim.run_until(Duration{1e-3});
  EXPECT_FALSE(ready);
  EXPECT_FALSE(seq.rail_good());
  EXPECT_FALSE(seq.input_gated_on());
}

TEST(PowerIc, RailsComeUp) {
  PowerInterfaceIc ic;
  EXPECT_NEAR(ic.mcu_rail_voltage(1.2_V, 100_uA).value(), 2.1, 0.05);
  ic.set_radio_chain_enabled(true);
  EXPECT_NEAR(ic.radio_rail_voltage(1.2_V, 1_mA).value(), 0.65, 0.02);
}

TEST(PowerIc, IdlePowerDominatedByLeakage) {
  PowerInterfaceIc ic;
  // Battery draw with every load idle: 6.5 uA leakage at 1.2 V ~ 7.8 uW,
  // plus references.
  const double idle = 1.2 * ic.battery_current(1.2_V, 0_uA, 0_uA).value();
  EXPECT_GT(idle, 7.5e-6);
  EXPECT_LT(idle, 9e-6);
}

TEST(PowerIc, RadioChainGatedOffByDefault) {
  PowerInterfaceIc ic;
  const auto i_off = ic.battery_current(1.2_V, 0_uA, 0_uA);
  ic.set_radio_chain_enabled(true);
  const auto i_on = ic.battery_current(1.2_V, 0_uA, 2_mA);
  EXPECT_GT(i_on.value(), i_off.value() + 1e-3);  // radio load reflected
}

TEST(PowerIc, BatteryCurrentReflectsLoads) {
  PowerInterfaceIc ic;
  ic.set_radio_chain_enabled(true);
  const double base = ic.battery_current(1.2_V, 0_uA, 0_uA).value();
  const double with_mcu = ic.battery_current(1.2_V, 300_uA, 0_uA).value();
  // 1:2 doubler reflects ~2x.
  EXPECT_NEAR(with_mcu - base, 2.0 * 300e-6, 60e-6);
  const double with_radio = ic.battery_current(1.2_V, 0_uA, 2_mA).value();
  // 3:2 down reflects ~2/3.
  EXPECT_NEAR(with_radio - base, 2.0 / 3.0 * 2e-3, 4e-4);
}

TEST(PowerIc, RejectsBadRails) {
  PowerInterfaceIc::BuildOptions opt;
  opt.radio_sc_rail = Voltage{0.6};  // below the 0.65 target
  EXPECT_THROW(PowerInterfaceIc{opt}, pico::DesignError);
}

}  // namespace
}  // namespace pico::power
