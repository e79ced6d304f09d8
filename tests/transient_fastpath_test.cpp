// Tests for the cached-LU linear fast path of the transient engine:
// bit-identical waveforms with the cache on vs off, automatic fallback
// for nonlinear circuits, cache invalidation on matrix mutations, and
// factor reuse when a matrix returns to one already factored.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "circuits/circuit.hpp"
#include "circuits/components.hpp"
#include "circuits/transient.hpp"

namespace pico::circuits {
namespace {

// Run a transient and record every node-1 voltage sample plus the final
// full solution vector.
struct Waveform {
  std::vector<double> v1;
  Vector final_x;
  std::uint64_t factorizations = 0;
  bool fast = false;
};

Waveform run_rc(bool cache) {
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("vin", in, kGround,
                       VoltageSource::Waveform{[](double t) { return std::sin(2.0 * M_PI * 5e3 * t); }});
  c.add<Resistor>("r", in, out, Resistance{1e3});
  c.add<Capacitor>("c", out, kGround, Capacitance{1e-6});

  Transient::Options opt;
  opt.dt = 1e-6;
  opt.cache_linear_lu = cache;
  Transient tr(c, opt);
  Waveform w;
  tr.run_until(Duration{2e-3}, [&](double, const Vector& x) {
    w.v1.push_back(Circuit::voltage_of(x, out));
  });
  w.final_x = tr.solution();
  w.factorizations = tr.lu_factorizations();
  w.fast = tr.used_fast_path();
  return w;
}

TEST(TransientFastPath, RcWaveformBitIdenticalCacheOnVsOff) {
  const Waveform fast = run_rc(/*cache=*/true);
  const Waveform slow = run_rc(/*cache=*/false);
  ASSERT_EQ(fast.v1.size(), slow.v1.size());
  for (std::size_t i = 0; i < fast.v1.size(); ++i) {
    // Bit-identical, not just close: the fast path must preserve the
    // exact floating-point arithmetic of the reference path.
    ASSERT_EQ(fast.v1[i], slow.v1[i]) << "sample " << i;
  }
  ASSERT_EQ(fast.final_x.size(), slow.final_x.size());
  for (std::size_t i = 0; i < fast.final_x.size(); ++i) {
    EXPECT_EQ(fast.final_x[i], slow.final_x[i]);
  }
  EXPECT_TRUE(fast.fast);
  EXPECT_FALSE(slow.fast);
}

TEST(TransientFastPath, CachesFactorizationAcrossSteps) {
  const Waveform w = run_rc(/*cache=*/true);
  // First step uses backward Euler, the rest trapezoidal: exactly one
  // factorization per (dt, method) key, not one per step.
  EXPECT_EQ(w.factorizations, 2u);
  EXPECT_GT(w.v1.size(), 100u);
  const Waveform ref = run_rc(/*cache=*/false);
  EXPECT_EQ(ref.factorizations, w.v1.size());
}

TEST(TransientFastPath, NonlinearCircuitFallsBackToNewton) {
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("vin", in, kGround, Voltage{1.0});
  c.add<Resistor>("r", in, out, Resistance{100.0});
  c.add<Diode>("d", out, kGround);
  c.add<Capacitor>("load", out, kGround, Capacitance{1e-9});
  EXPECT_FALSE(c.linear_time_invariant());

  Transient::Options opt;
  opt.dt = 1e-7;
  opt.cache_linear_lu = true;  // requested, but the diode must disable it
  Transient tr(c, opt);
  tr.step();
  EXPECT_FALSE(tr.used_fast_path());
  EXPECT_GE(tr.last_newton_iterations(), 2);
  const std::uint64_t f1 = tr.lu_factorizations();
  tr.step();
  // Full path refactorizes every step (at least once per Newton iter).
  EXPECT_GT(tr.lu_factorizations(), f1);
}

TEST(TransientFastPath, SwitchToggleInvalidatesCachedLu) {
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("vin", in, kGround, Voltage{1.0});
  Switch* sw = c.add<Switch>("sw", in, out, Resistance{1.0}, Resistance{1e9}, true);
  c.add<Resistor>("load", out, kGround, Resistance{1e3});
  c.add<Capacitor>("cap", out, kGround, Capacitance{1e-6});
  EXPECT_TRUE(c.linear_time_invariant());

  Transient tr(c, Transient::Options{.dt = 1e-6});
  for (int i = 0; i < 10; ++i) tr.step();
  EXPECT_TRUE(tr.used_fast_path());
  const double v_on = tr.voltage(out);
  EXPECT_GT(v_on, 0.9);
  const std::uint64_t f_before = tr.lu_factorizations();

  sw->set_on(false);  // external mutation must invalidate the cache
  for (int i = 0; i < 2000; ++i) tr.step();
  EXPECT_EQ(tr.lu_factorizations(), f_before + 1);
  EXPECT_LT(tr.voltage(out), 0.2);  // cap discharged through the load
}

TEST(TransientFastPath, RedundantSetOnDoesNotRefactorize) {
  Circuit c;
  const Node in = c.node("in");
  c.add<VoltageSource>("vin", in, kGround, Voltage{1.0});
  Switch* sw = c.add<Switch>("sw", in, kGround, Resistance{1e3}, Resistance{1e9}, true);

  // No stamp here reads dt or method, so step 2's switch from the
  // backward-Euler start step to trapezoidal reuses step 1's factors.
  Transient tr(c, Transient::Options{.dt = 1e-6});
  tr.step();
  const std::uint64_t f = tr.lu_factorizations();
  sw->set_on(true);  // no state change -> no version bump
  tr.step();
  EXPECT_EQ(tr.lu_factorizations(), f);
}

struct ToggleRun {
  std::vector<double> v;
  std::vector<std::uint64_t> factorizations;  // running total after each phase
  std::uint64_t content_hits = 0;
};

// A switch flipping between two topologies every 50 steps.
ToggleRun run_toggling(bool cache) {
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("vin", in, kGround, Voltage{1.0});
  Switch* sw = c.add<Switch>("sw", in, out, Resistance{10.0}, Resistance{1e6}, true);
  c.add<Resistor>("load", out, kGround, Resistance{1e3});
  c.add<Capacitor>("cap", out, kGround, Capacitance{1e-7});
  Transient::Options opt;
  opt.dt = 1e-6;
  opt.cache_linear_lu = cache;
  Transient tr(c, opt);
  ToggleRun r;
  for (int phase = 0; phase < 6; ++phase) {
    sw->set_on(phase % 2 == 0);
    for (int i = 0; i < 50; ++i) {
      tr.step();
      r.v.push_back(tr.voltage(out));
    }
    r.factorizations.push_back(tr.lu_factorizations());
  }
  r.content_hits = tr.lu_cache_content_hits();
  return r;
}

TEST(TransientFastPath, TogglingBackReusesFactorization) {
  // Each topology is factored once; every later return to it carries a new
  // epoch but is served from the cache by matrix content, with the
  // full-solve waveform to the bit.
  const ToggleRun cached = run_toggling(/*cache=*/true);
  const ToggleRun full = run_toggling(/*cache=*/false);
  ASSERT_EQ(cached.v.size(), full.v.size());
  for (std::size_t i = 0; i < cached.v.size(); ++i) {
    ASSERT_EQ(cached.v[i], full.v[i]) << "sample " << i;
  }
  // Phase 0 factors the on topology twice (the backward-Euler start step,
  // then trapezoidal), phase 1 the off one; phases 2-5 toggle back to a
  // factored topology and factorize nothing.
  EXPECT_EQ(cached.factorizations, (std::vector<std::uint64_t>{2, 3, 3, 3, 3, 3}));
  EXPECT_EQ(cached.content_hits, 4u);
}

}  // namespace
}  // namespace pico::circuits
