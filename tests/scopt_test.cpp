// Tests for the Seeman–Sanders switched-capacitor analysis framework.
//
// The analysis derives conversion ratios and charge multipliers
// automatically from topology structure; these tests pin them against the
// hand-derived values in the original paper (ref [13] of the PicoCube
// paper) for the classic topologies.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "scopt/analysis.hpp"
#include "scopt/optimizer.hpp"
#include "scopt/topology.hpp"

namespace pico::scopt {
namespace {

using namespace pico::literals;

TEST(Topology, DoublerStructure) {
  const auto t = Topology::doubler();
  EXPECT_EQ(t.num_caps(), 1u);
  EXPECT_EQ(t.num_switches(), 4u);
  EXPECT_EQ(t.switches_in(Phase::kA).size(), 2u);
  EXPECT_EQ(t.switches_in(Phase::kB).size(), 2u);
}

TEST(Analysis, DoublerRatioIsTwo) {
  ConverterAnalysis a(Topology::doubler());
  EXPECT_NEAR(a.ratio(), 2.0, 1e-6);
  // Flying cap sits at Vin.
  EXPECT_NEAR(a.voltages().cap_voltage[0], 1.0, 1e-6);
}

TEST(Analysis, DoublerChargeMultipliers) {
  ConverterAnalysis a(Topology::doubler());
  // All output charge passes through the flying cap: a_c = 1.
  EXPECT_NEAR(a.charge().cap[0], 1.0, 1e-6);
  // Each switch carries the full unit charge in its phase.
  for (double ar : a.charge().sw) EXPECT_NEAR(ar, 1.0, 1e-6);
  // Input supplies q_in = M * q_out = 2 (energy conservation).
  EXPECT_NEAR(a.charge().input_charge, 2.0, 1e-6);
}

TEST(Analysis, StepDown2to1) {
  ConverterAnalysis a(Topology::step_down_2to1());
  EXPECT_NEAR(a.ratio(), 0.5, 1e-6);
  // Classic result: a_c = 1/2 for the 2:1 step-down.
  EXPECT_NEAR(a.charge().cap[0], 0.5, 1e-6);
  EXPECT_NEAR(a.charge().input_charge, 0.5, 1e-6);
}

TEST(Analysis, StepDown3to2) {
  ConverterAnalysis a(Topology::step_down_3to2());
  EXPECT_NEAR(a.ratio(), 2.0 / 3.0, 1e-6);
  // Caps each hold Vin/3.
  for (double vc : a.voltages().cap_voltage) EXPECT_NEAR(vc, 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(a.charge().input_charge, 2.0 / 3.0, 1e-6);
}

TEST(Analysis, StepUp3to2) {
  ConverterAnalysis a(Topology::step_up_3to2());
  EXPECT_NEAR(a.ratio(), 1.5, 1e-6);
  EXPECT_NEAR(a.charge().input_charge, 1.5, 1e-6);
}

TEST(Analysis, SeriesParallelRatios) {
  for (int n = 2; n <= 5; ++n) {
    ConverterAnalysis up(Topology::series_parallel_up(n));
    EXPECT_NEAR(up.ratio(), static_cast<double>(n), 1e-6) << "1:" << n;
    ConverterAnalysis down(Topology::series_parallel_down(n));
    EXPECT_NEAR(down.ratio(), 1.0 / n, 1e-6) << n << ":1";
  }
}

TEST(Analysis, DicksonRatios) {
  for (int n = 2; n <= 5; ++n) {
    ConverterAnalysis a(Topology::dickson_up(n));
    EXPECT_NEAR(a.ratio(), static_cast<double>(n), 1e-5) << "Dickson 1:" << n;
  }
}

TEST(Analysis, SeriesParallelUpChargeMultipliers) {
  // 1:3 series-parallel: both flying caps carry the full output charge.
  ConverterAnalysis a(Topology::series_parallel_up(3));
  for (double ac : a.charge().cap) EXPECT_NEAR(ac, 1.0, 1e-6);
  EXPECT_NEAR(a.charge().input_charge, 3.0, 1e-6);
}

TEST(Analysis, SslScalesInverselyWithFrequencyAndC) {
  ConverterAnalysis a(Topology::doubler());
  const std::vector<Capacitance> caps{Capacitance{1e-9}};
  const auto r1 = a.r_ssl(caps, 1_MHz, Capacitance{1e-6});
  const auto r2 = a.r_ssl(caps, 2_MHz, Capacitance{1e-6});
  EXPECT_NEAR(r1.value() / r2.value(), 2.0, 1e-9);
  const std::vector<Capacitance> caps2{Capacitance{2e-9}};
  const auto r3 = a.r_ssl(caps2, 1_MHz, Capacitance{1e-6});
  EXPECT_GT(r1.value(), r3.value());
}

TEST(Analysis, FslIndependentOfFrequency) {
  ConverterAnalysis a(Topology::doubler());
  const std::vector<Resistance> rs{1_Ohm, 1_Ohm, 1_Ohm, 1_Ohm};
  // R_FSL = 2 * sum(R a^2) = 8 Ohm for the doubler with 1 Ohm switches.
  EXPECT_NEAR(a.r_fsl(rs).value(), 8.0, 1e-6);
}

TEST(Analysis, OptimalAllocationBeatsUniform) {
  // For the 3:2 step-down the optimal split should not be worse than a
  // uniform split of the same total capacitance.
  ConverterAnalysis a(Topology::step_down_3to2());
  const Capacitance c_total{10e-9};
  const auto opt = a.allocate_caps(c_total);
  const auto r_opt = a.r_ssl(opt, 1_MHz, Capacitance{1e-6});
  const std::vector<Capacitance> uniform(a.charge().cap.size(),
                                         Capacitance{c_total.value() / 2.0});
  const auto r_uni = a.r_ssl(uniform, 1_MHz, Capacitance{1e-6});
  EXPECT_LE(r_opt.value(), r_uni.value() * 1.0001);
}

TEST(Analysis, SwitchBlockingVoltagesDoubler) {
  ConverterAnalysis a(Topology::doubler());
  // Every switch in the doubler blocks Vin when off.
  for (double vb : a.voltages().switch_block) EXPECT_NEAR(vb, 1.0, 1e-6);
}

TEST(SizedConverter, OutputVoltageDroopsWithLoad) {
  ConverterAnalysis a(Topology::doubler());
  SizedConverter conv(std::move(a), Technology{}, Area{1.5e-6}, Area{0.05e-6});
  const auto v_light = conv.output_voltage(1.2_V, 10_uA, 100_kHz);
  const auto v_heavy = conv.output_voltage(1.2_V, 1_mA, 100_kHz);
  EXPECT_GT(v_light.value(), v_heavy.value());
  EXPECT_LT(v_light.value(), 2.4);
}

TEST(SizedConverter, EfficiencyExceeds84PercentAtDesignLoad) {
  // The paper's claim for the power IC: "converters exceed 84 %".
  ConverterAnalysis a(Topology::doubler());
  SizedConverter conv(std::move(a), Technology{}, Area{1.5e-6}, Area{0.05e-6});
  const Frequency f = conv.regulate(1.2_V, 2.1_V, 200_uA);
  ASSERT_GT(f.value(), 0.0);
  EXPECT_GT(conv.efficiency(1.2_V, 200_uA, f), 0.84);
}

TEST(SizedConverter, RegulationHitsTarget) {
  ConverterAnalysis a(Topology::doubler());
  SizedConverter conv(std::move(a), Technology{}, Area{1.5e-6}, Area{0.05e-6});
  const Frequency f = conv.regulate(1.2_V, 2.1_V, 100_uA);
  ASSERT_GT(f.value(), 0.0);
  EXPECT_NEAR(conv.output_voltage(1.2_V, 100_uA, f).value(), 2.1, 1e-3);
}

TEST(SizedConverter, RegulationUnreachableAboveIdeal) {
  ConverterAnalysis a(Topology::doubler());
  SizedConverter conv(std::move(a), Technology{}, Area{1.5e-6}, Area{0.05e-6});
  EXPECT_DOUBLE_EQ(conv.regulate(1.2_V, 2.5_V, 100_uA).value(), 0.0);
}

TEST(SizedConverter, OptimalFrequencyBalancesLosses) {
  ConverterAnalysis a(Topology::doubler());
  SizedConverter conv(std::move(a), Technology{}, Area{1.5e-6}, Area{0.05e-6});
  const Frequency f_opt = conv.optimal_frequency(1.2_V, 200_uA);
  const auto loss_opt = conv.losses(1.2_V, 200_uA, f_opt).total().value();
  const auto loss_lo = conv.losses(1.2_V, 200_uA, Frequency{f_opt.value() / 4}).total().value();
  const auto loss_hi = conv.losses(1.2_V, 200_uA, Frequency{f_opt.value() * 4}).total().value();
  EXPECT_LE(loss_opt, loss_lo);
  EXPECT_LE(loss_opt, loss_hi);
}

TEST(Optimizer, PicksStepUpForMcuRail) {
  // The Cube's 1.2 V battery -> 2.1 V microcontroller/sensor rail.
  DesignSpec spec;
  spec.vout = 2.1_V;
  spec.iout_typ = 200_uA;
  spec.iout_max = 2_mA;
  Optimizer opt(spec);
  const auto design = opt.design();
  EXPECT_GE(design.chosen.ratio, 2.0 - 1e-6);
  EXPECT_GT(design.chosen.efficiency_typ, 0.8);
  EXPECT_FALSE(design.all_candidates.empty());
}

TEST(Optimizer, PicksStepDownForRadioRail) {
  // 1.2 V battery -> 0.7 V radio rail (before the linear post-regulator).
  DesignSpec spec;
  spec.vout = Voltage{0.7};
  spec.iout_typ = 500_uA;
  spec.iout_max = 4_mA;
  Optimizer opt(spec);
  const auto design = opt.design();
  EXPECT_LT(design.chosen.ratio, 1.0);
  EXPECT_GT(design.chosen.efficiency_typ, 0.5);
}

TEST(Optimizer, ImpossibleSpecThrows) {
  DesignSpec spec;
  spec.vout = Voltage{50.0};  // no library topology reaches 50 V from 1.2 V
  EXPECT_THROW(Optimizer(spec).design(), pico::DesignError);
}

TEST(Optimizer, ReportRenders) {
  DesignSpec spec;
  spec.vout = 2.1_V;
  Optimizer opt(spec);
  const auto design = opt.design();
  std::ostringstream os;
  design.report(spec).print(os);
  const std::string table = os.str();
  EXPECT_NE(table.find("conversion ratio"), std::string::npos);
  EXPECT_NE(table.find("efficiency"), std::string::npos);
}

TEST(Analysis, FibonacciRatioIsFive) {
  ConverterAnalysis a(Topology::fibonacci_up5());
  EXPECT_NEAR(a.ratio(), 5.0, 1e-5);
  // Cap DC voltages: the Fibonacci ladder 1x, 2x, 3x.
  EXPECT_NEAR(a.voltages().cap_voltage[0], 1.0, 1e-5);
  EXPECT_NEAR(a.voltages().cap_voltage[1], 2.0, 1e-5);
  EXPECT_NEAR(a.voltages().cap_voltage[2], 3.0, 1e-5);
  // Conservation: q_in = 5 per unit output charge.
  EXPECT_NEAR(a.charge().input_charge, 5.0, 1e-5);
}

TEST(Analysis, FibonacciBeatsSeriesParallelOnCapCount) {
  // Ratio 5 from 3 caps (Fibonacci) vs 4 caps (series-parallel): the
  // Fibonacci family's selling point.
  ConverterAnalysis fib(Topology::fibonacci_up5());
  ConverterAnalysis sp(Topology::series_parallel_up(5));
  EXPECT_NEAR(fib.ratio(), sp.ratio(), 1e-5);
  EXPECT_LT(fib.topology().num_caps(), sp.topology().num_caps());
}

TEST(Topology, RejectsDegenerateElements) {
  Topology t("bad");
  const NodeId n = t.add_node();
  EXPECT_THROW(t.add_cap("C", n, n), pico::DesignError);
  EXPECT_THROW(t.add_switch("S", Phase::kA, n, n), pico::DesignError);
}

}  // namespace
}  // namespace pico::scopt
