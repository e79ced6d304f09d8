// Property-based and parameterized sweeps (TEST_P): invariants that must
// hold across whole families of inputs, not just hand-picked cases.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <tuple>

#include "circuits/circuit.hpp"
#include "circuits/components.hpp"
#include "circuits/transient.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/node.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/scenarios.hpp"
#include "power/rectifier.hpp"
#include "radio/packet.hpp"
#include "scopt/analysis.hpp"
#include "sim/trace.hpp"
#include "storage/capacitors.hpp"
#include "storage/nimh.hpp"

namespace pico {
namespace {

using namespace pico::literals;

// ---------------------------------------------------------------------------
// SC converter invariants across the whole topology library.
// ---------------------------------------------------------------------------
class ScTopologyProperty : public ::testing::TestWithParam<int> {
 protected:
  static scopt::Topology make(int idx) {
    switch (idx) {
      case 0:
        return scopt::Topology::doubler();
      case 1:
        return scopt::Topology::step_down_2to1();
      case 2:
        return scopt::Topology::step_down_3to2();
      case 3:
        return scopt::Topology::step_up_3to2();
      case 4:
        return scopt::Topology::series_parallel_up(3);
      case 5:
        return scopt::Topology::series_parallel_up(5);
      case 6:
        return scopt::Topology::series_parallel_down(3);
      case 7:
        return scopt::Topology::series_parallel_down(5);
      case 8:
        return scopt::Topology::dickson_up(3);
      case 9:
        return scopt::Topology::dickson_up(5);
      default:
        return scopt::Topology::doubler();
    }
  }
};

TEST_P(ScTopologyProperty, ChargeConservation) {
  // Energy conservation of the ideal converter: q_in = M * q_out.
  scopt::ConverterAnalysis an(make(GetParam()));
  EXPECT_NEAR(an.charge().input_charge, an.ratio(), 1e-6);
}

TEST_P(ScTopologyProperty, MultipliersNonNegativeAndFinite) {
  scopt::ConverterAnalysis an(make(GetParam()));
  for (double a : an.charge().cap) {
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 10.0);
  }
  for (double a : an.charge().sw) {
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 10.0);
  }
}

TEST_P(ScTopologyProperty, SslInverseFrequencyScaling) {
  scopt::ConverterAnalysis an(make(GetParam()));
  const auto caps = an.allocate_caps(Capacitance{10e-9});
  const double r1 = an.r_ssl(caps, 1_MHz, Capacitance{0.0}).value();
  const double r4 = an.r_ssl(caps, 4_MHz, Capacitance{0.0}).value();
  EXPECT_NEAR(r1 / r4, 4.0, 1e-9);
}

TEST_P(ScTopologyProperty, OptimalAllocationNeverWorseThanUniform) {
  scopt::ConverterAnalysis an(make(GetParam()));
  const Capacitance total{10e-9};
  const auto opt = an.allocate_caps(total);
  const std::vector<Capacitance> uniform(
      an.charge().cap.size(), Capacitance{total.value() / an.charge().cap.size()});
  EXPECT_LE(an.r_ssl(opt, 1_MHz, Capacitance{0.0}).value(),
            an.r_ssl(uniform, 1_MHz, Capacitance{0.0}).value() * 1.0001);

  const Conductance g{1e-2};
  const auto opt_r = an.allocate_switches(g);
  const std::vector<Resistance> uni_r(an.charge().sw.size(),
                                      Resistance{an.charge().sw.size() / g.value()});
  EXPECT_LE(an.r_fsl(opt_r).value(), an.r_fsl(uni_r).value() * 1.0001);
}

TEST_P(ScTopologyProperty, BlockingVoltagesBounded) {
  scopt::ConverterAnalysis an(make(GetParam()));
  const double m = std::max(an.ratio(), 1.0);
  for (double vb : an.voltages().switch_block) {
    EXPECT_GE(vb, -1e-9);
    EXPECT_LE(vb, m + 1e-6);  // no switch blocks more than the output swing
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ScTopologyProperty, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Battery charge conservation over randomized schedules.
// ---------------------------------------------------------------------------
class BatterySchedule : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatterySchedule, CoulombBookkeepingIsExact) {
  Rng rng(GetParam());
  storage::NiMhBattery::Params p;
  p.initial_soc = 0.5;
  p.self_discharge_per_day = 0.0;
  storage::NiMhBattery b(p);
  double moved = 0.0;
  for (int i = 0; i < 300; ++i) {
    const double amps = rng.uniform(-2e-3, 2e-3);
    const double secs = rng.uniform(0.1, 30.0);
    const auto r = b.transfer(Current{amps}, Duration{secs});
    moved += r.moved.value();
    ASSERT_GE(b.soc(), 0.0);
    ASSERT_LE(b.soc(), 1.0);
  }
  EXPECT_NEAR(b.soc(), 0.5 + moved / b.capacity().value(), 1e-9);
}

TEST_P(BatterySchedule, OcvMonotoneInSoc) {
  storage::NiMhBattery b;
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const double s1 = rng.uniform(0.0, 1.0);
    const double s2 = rng.uniform(0.0, 1.0);
    b.set_soc(std::min(s1, s2));
    const double v_lo = b.open_circuit_voltage().value();
    b.set_soc(std::max(s1, s2));
    const double v_hi = b.open_circuit_voltage().value();
    EXPECT_LE(v_lo, v_hi + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatterySchedule, ::testing::Values(1u, 7u, 42u, 1234u));

// ---------------------------------------------------------------------------
// Packet codec round-trip over random payloads + corruption rejection.
// ---------------------------------------------------------------------------
class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecProperty, RandomPayloadRoundTrip) {
  Rng rng(GetParam());
  radio::PacketCodec codec;
  for (int trial = 0; trial < 50; ++trial) {
    radio::Packet p;
    p.node_id = static_cast<std::uint8_t>(rng.below(256));
    p.seq = static_cast<std::uint8_t>(rng.below(256));
    p.payload.resize(rng.below(33));
    for (auto& byte : p.payload) byte = static_cast<std::uint8_t>(rng.below(256));
    const auto decoded = codec.decode(codec.encode(p));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, p);
  }
}

TEST_P(CodecProperty, SingleBitFlipsNeverForgeAPacket) {
  Rng rng(GetParam());
  radio::PacketCodec codec;
  radio::Packet p;
  p.node_id = 5;
  p.payload.assign(12, 0x3C);
  const auto frame = codec.encode(p);
  int accepted_wrong = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = frame;
    // Flip 1-3 bits anywhere beyond the preamble.
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f) {
      const auto byte = 4 + rng.below(corrupted.size() - 4);
      corrupted[byte] = static_cast<std::uint8_t>(corrupted[byte] ^ (1u << rng.below(8)));
    }
    const auto decoded = codec.decode(corrupted);
    if (decoded.has_value() && !(*decoded == p)) ++accepted_wrong;
  }
  // CRC-16 must catch essentially all small corruptions.
  EXPECT_EQ(accepted_wrong, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty, ::testing::Values(3u, 99u, 2024u));

// ---------------------------------------------------------------------------
// Trace integral additivity over random split points.
// ---------------------------------------------------------------------------
class TraceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceProperty, IntegralIsAdditive) {
  Rng rng(GetParam());
  sim::Trace t("x", sim::Interp::kStep);
  double now = 0.0;
  for (int i = 0; i < 60; ++i) {
    now += rng.uniform(0.01, 1.0);
    t.record(Duration{now}, rng.uniform(-5.0, 5.0));
  }
  for (int trial = 0; trial < 30; ++trial) {
    const double a = rng.uniform(0.0, now);
    const double b = rng.uniform(0.0, now);
    const double c = rng.uniform(0.0, now);
    double lo = std::min({a, b, c});
    double hi = std::max({a, b, c});
    double mid = a + b + c - lo - hi;
    const double whole = t.integral(Duration{lo}, Duration{hi});
    const double parts = t.integral(Duration{lo}, Duration{mid}) +
                         t.integral(Duration{mid}, Duration{hi});
    EXPECT_NEAR(whole, parts, 1e-9 + std::fabs(whole) * 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty, ::testing::Values(11u, 77u));

// ---------------------------------------------------------------------------
// Rectifier monotonicity: more sink voltage, less current; faster wheel,
// more power — across rectifier kinds.
// ---------------------------------------------------------------------------
class RectifierProperty : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<power::Rectifier> make() const {
    switch (GetParam()) {
      case 0:
        return std::make_unique<power::IdealRectifier>();
      case 1:
        return std::make_unique<power::DiodeBridgeRectifier>();
      default:
        return std::make_unique<power::SynchronousRectifier>();
    }
  }
};

TEST_P(RectifierProperty, CurrentMonotoneDecreasingInSinkVoltage) {
  const auto rect = make();
  harvest::ElectromagneticShaker shaker(
      harvest::SpeedProfile({{0.0, 90.0}, {100.0, 90.0}}));
  double prev = 1e9;
  for (double v = 0.8; v <= 2.2; v += 0.2) {
    const auto r = rect->rectify(shaker, Voltage{v}, 10.0, 12.0, 8000);
    EXPECT_LE(r.avg_current.value(), prev + 1e-12);
    prev = r.avg_current.value();
  }
}

TEST_P(RectifierProperty, PowerMonotoneInWheelSpeed) {
  const auto rect = make();
  double prev = -1.0;
  for (double omega : {40.0, 60.0, 80.0, 100.0}) {
    harvest::ElectromagneticShaker shaker(
        harvest::SpeedProfile({{0.0, omega}, {100.0, omega}}));
    const auto r = rect->rectify(shaker, Voltage{1.25}, 10.0, 14.0, 8000);
    EXPECT_GE(r.delivered_power.value(), prev - 1e-12);
    prev = r.delivered_power.value();
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, RectifierProperty, ::testing::Range(0, 3));

// ---------------------------------------------------------------------------
// MNA transient convergence order on the RC circuit, across timesteps.
// ---------------------------------------------------------------------------
class RcConvergence : public ::testing::TestWithParam<double> {};

TEST_P(RcConvergence, ErrorShrinksWithTimestep) {
  const double dt = GetParam();
  circuits::Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add<circuits::VoltageSource>("V", in, circuits::kGround, 1_V);
  c.add<circuits::Resistor>("R", in, out, 1_kOhm);
  c.add<circuits::Capacitor>("C", out, circuits::kGround, 1_uF);
  circuits::Transient::Options opt;
  opt.dt = dt;
  circuits::Transient tr(c, opt);
  tr.run_until(1_ms);
  const double exact = 1.0 - std::exp(-1.0);
  // Error bound scales with dt (conservative: first-order from the BE
  // startup step, second-order after).
  EXPECT_NEAR(tr.voltage(out), exact, 20.0 * dt);
}

INSTANTIATE_TEST_SUITE_P(Steps, RcConvergence, ::testing::Values(2e-5, 1e-5, 5e-6, 1e-6));

// ---------------------------------------------------------------------------
// Fault-plan properties: a randomized seeded FaultPlan soaked through a
// full node must never corrupt physical state — no negative stored
// energy, no NaN waveforms, no energy creation in the power accountant's
// ledger. A violating plan is shrunk (greedy event removal) before being
// reported, so the failure message carries a minimal reproducing spec.

// Empty string = all invariants hold; otherwise the first violation.
std::string soak_violation(const fault::FaultPlan& plan, std::uint64_t seed) {
  core::NodeConfig cfg;
  cfg.drive = harvest::make_city_cycle();
  cfg.attach_harvester = true;
  cfg.battery_initial_soc = 0.3;
  cfg.seed = seed;
  cfg.faults = plan;
  core::PicoCubeNode node(cfg);
  const double stored0 = node.battery().stored_energy().value();
  node.run(Duration{40.0});
  const auto rep = node.report();
  const double stored1 = node.battery().stored_energy().value();

  if (!(rep.soc_end >= 0.0 && rep.soc_end <= 1.0)) return "SoC outside [0, 1]";
  if (!(stored1 >= 0.0) || !std::isfinite(stored1)) return "negative/NaN stored energy";
  const double in = rep.harvested_energy_in.value();
  const double out = rep.battery_energy_out.value();
  if (!std::isfinite(in) || !std::isfinite(out)) return "NaN ledger";
  const double tol = 1e-6 + 1e-3 * (in + out);
  if (stored1 - stored0 > in - out + tol) return "ledger energy creation";
  for (const auto& name : {"soc", "v_batt", "p_node"}) {
    const auto& ch = node.traces().channel(name);
    for (int k = 0; k <= 32; ++k) {
      const Duration t{40.0 * k / 32.0};
      if (!std::isfinite(ch.sample_at(t))) return std::string("NaN in trace ") + name;
    }
  }
  return {};
}

class FaultPlanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultPlanProperty, RandomPlansNeverCorruptNodeState) {
  const std::uint64_t seed = GetParam();
  Rng rng = Rng::stream(0xFA017ull, seed);
  fault::FaultPlan plan = fault::FaultPlan::randomized(rng, Duration{40.0});
  std::string why = soak_violation(plan, seed);
  if (why.empty()) return;
  // Shrink: drop events one at a time while the violation persists.
  bool shrunk = true;
  while (shrunk && plan.size() > 1) {
    shrunk = false;
    for (std::size_t k = 0; k < plan.size(); ++k) {
      fault::FaultPlan smaller;
      for (std::size_t j = 0; j < plan.size(); ++j) {
        if (j != k) smaller.add(plan.events()[j]);
      }
      const std::string w = soak_violation(smaller, seed);
      if (!w.empty()) {
        plan = smaller;
        why = w;
        shrunk = true;
        break;
      }
    }
  }
  FAIL() << why << " — minimal reproducing plan (seed " << seed
         << "): " << plan.to_spec();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPlanProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(FaultPlanProperty, SpecCodecRoundTripsRandomPlans) {
  Rng rng(0xC0DEC);
  for (int k = 0; k < 50; ++k) {
    fault::FaultPlan plan =
        fault::FaultPlan::randomized(rng, Duration{rng.uniform(10.0, 3600.0)});
    EXPECT_EQ(fault::FaultPlan::parse(plan.to_spec()), plan) << plan.to_spec();
  }
  // The named scenarios' hand-written plans are inputs too: replaying a
  // scenario from its spec text must rebuild exactly its plan.
  const auto library = fault::scenario_library();
  ASSERT_FALSE(library.empty());
  for (const fault::Scenario& sc : library) {
    const fault::FaultPlan& plan = sc.config.faults;
    EXPECT_EQ(fault::FaultPlan::parse(plan.to_spec()), plan) << sc.name;
  }
}

// One window rule for every engine: at each window edge the injector
// hands the hook exactly its kind's FaultSchedule level, and that level
// composes the windows in effect there as the rule says — factors
// multiply, losses combine as 1 - Π(1 - p), currents add — checked against
// a direct evaluation over the plan. Dense random plans overlap windows of
// one kind, several deep, and land edges on each other.
TEST(FaultPlanProperty, InjectorPassesTheScheduledLevelAtEveryEdge) {
  using fault::FaultKind;
  constexpr std::array kKinds = {FaultKind::kHarvesterDerate,
                                 FaultKind::kConverterDegradation,
                                 FaultKind::kChannelLoss, FaultKind::kSupplyGlitch};
  Rng rng(0x5C4ED);
  std::size_t overlapped = 0;  // edges with two or more windows of the kind open
  for (int trial = 0; trial < 200; ++trial) {
    fault::FaultPlan plan = fault::FaultPlan::randomized(rng, Duration{100.0}, 16);
    // A copy of a window at the same edges, and a permanent converter
    // window, exercise coinciding edges and open-ended segments.
    const fault::FaultEvent first = plan.events().front();
    if (first.windowed()) plan.add(first);
    if (trial % 4 == 0) plan.converter_degradation(rng.uniform(0.0, 90.0), 0.0, 0.7);

    sim::Simulator sim;
    std::array<std::vector<std::pair<double, double>>, 5> seen;  // (t, value) by kind
    const auto log = [&](FaultKind kind) {
      return [&seen, &sim, kind](double v) {
        seen[static_cast<std::size_t>(kind)].emplace_back(sim.now().value(), v);
      };
    };
    fault::FaultHooks hooks;
    hooks.set_harvest_derate = log(FaultKind::kHarvesterDerate);
    hooks.set_converter_derate = log(FaultKind::kConverterDegradation);
    hooks.set_frame_loss = log(FaultKind::kChannelLoss);
    hooks.set_glitch_load = log(FaultKind::kSupplyGlitch);
    fault::FaultInjector inj(sim, plan, hooks);
    inj.arm();
    sim.run_until(Duration{200.0});

    for (const FaultKind kind : kKinds) {
      const fault::FaultSchedule schedule = plan.schedule(kind);
      std::size_t edges = 0;
      for (const fault::FaultEvent& ev : plan.events()) {
        if (ev.kind == kind) edges += ev.duration_s > 0.0 ? 2 : 1;
      }
      const auto& calls = seen[static_cast<std::size_t>(kind)];
      ASSERT_EQ(calls.size(), edges) << plan.to_spec();
      for (const auto& [t, value] : calls) {
        const double level = schedule.level(t);
        const double passed = kind == FaultKind::kConverterDegradation ? 1.0 / level : level;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(value), std::bit_cast<std::uint64_t>(passed))
            << to_string(kind) << " at " << t << " s: " << plan.to_spec();
        double product = 1.0;
        double pass = 1.0;
        double sum = 0.0;
        int open_windows = 0;
        for (const fault::FaultEvent& ev : plan.events()) {
          const bool open =
              ev.at_s <= t && (ev.duration_s <= 0.0 || t < ev.at_s + ev.duration_s);
          if (ev.kind != kind || !open) continue;
          ++open_windows;
          product *= ev.magnitude;
          pass *= 1.0 - ev.magnitude;
          sum += ev.magnitude;
        }
        const double want = kind == FaultKind::kChannelLoss    ? 1.0 - pass
                            : kind == FaultKind::kSupplyGlitch ? sum
                                                               : product;
        EXPECT_NEAR(level, want, 1e-12 * std::max(1.0, std::fabs(want)))
            << to_string(kind) << " at " << t << " s: " << plan.to_spec();
        if (open_windows >= 2) ++overlapped;
      }
    }
  }
  EXPECT_GT(overlapped, 200u);
}

TEST(StorageFuzz, NonFiniteTransfersAreRejectedWithDiagnostic) {
  storage::NiMhBattery cell;
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(cell.transfer(Current{nan}, Duration{1.0}), DesignError);
  EXPECT_THROW(cell.transfer(Current{1e-3}, Duration{inf}), DesignError);
  EXPECT_THROW(cell.idle(Duration{nan}), DesignError);
  EXPECT_THROW(cell.transfer(Current{1e-3}, Duration{-1.0}), DesignError);
  auto sc = storage::make_supercap(Capacitance{0.1}, Voltage{3.6});
  EXPECT_THROW(sc.transfer(Current{inf}, Duration{1.0}), DesignError);
  EXPECT_THROW(sc.idle(Duration{-2.0}), DesignError);
  // The throw happens before any state mutation.
  EXPECT_DOUBLE_EQ(cell.soc(), storage::NiMhBattery::Params{}.initial_soc);
}

TEST(StorageFuzz, SimultaneousDischargeAndSelfDischargeClampAtEmpty) {
  // Worst case from the integrator: transfer() then idle() in the same
  // interval with almost nothing left — the combination must clamp at
  // zero, never go negative.
  Rng rng(77);
  for (int k = 0; k < 200; ++k) {
    storage::NiMhBattery::Params p;
    p.initial_soc = rng.uniform(0.0, 2e-4);
    p.self_discharge_per_day = rng.uniform(0.0, 500.0);
    storage::NiMhBattery cell(p);
    cell.transfer(Current{-rng.uniform(0.0, 50e-3)}, Duration{rng.uniform(0.0, 10.0)});
    cell.idle(Duration{rng.uniform(0.0, 10.0)});
    EXPECT_GE(cell.soc(), 0.0);
    EXPECT_GE(cell.stored_energy().value(), 0.0);
  }
}

}  // namespace
}  // namespace pico
