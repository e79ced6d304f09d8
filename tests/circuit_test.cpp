// Tests for the MNA circuit engine: DC, transient, nonlinear (diode), and
// switch behaviour, checked against closed-form solutions.
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/circuit.hpp"
#include "circuits/components.hpp"
#include "circuits/references.hpp"
#include "circuits/transient.hpp"
#include "common/error.hpp"

namespace pico::circuits {
namespace {

using namespace pico::literals;

TEST(CircuitDc, VoltageDivider) {
  Circuit c;
  const Node in = c.node("in");
  const Node mid = c.node("mid");
  c.add<VoltageSource>("V1", in, kGround, 10_V);
  c.add<Resistor>("R1", in, mid, 1_kOhm);
  c.add<Resistor>("R2", mid, kGround, 3_kOhm);
  Transient tr(c, {});
  tr.solve_dc();
  EXPECT_NEAR(tr.voltage(mid), 7.5, 1e-9);
}

TEST(CircuitDc, SourceCurrentMeasurement) {
  Circuit c;
  const Node in = c.node("in");
  auto* v = c.add<VoltageSource>("V1", in, kGround, 5_V);
  c.add<Resistor>("R", in, kGround, 1_kOhm);
  Transient tr(c, {});
  tr.solve_dc();
  // Branch current flows out of the + terminal through the circuit: the
  // MNA branch variable is the current *into* the + terminal, so -5 mA.
  EXPECT_NEAR(std::abs(tr.source_current(*v)), 5e-3, 1e-9);
}

TEST(CircuitTransient, RcChargeCurve) {
  // R = 1k, C = 1 uF, tau = 1 ms; step from 0 to 1 V.
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, 1_V);
  c.add<Resistor>("R", in, out, 1_kOhm);
  c.add<Capacitor>("C", out, kGround, 1_uF);
  Transient::Options opt;
  opt.dt = 1e-6;
  Transient tr(c, opt);
  tr.run_until(1_ms);
  const double expected = 1.0 - std::exp(-1.0);
  EXPECT_NEAR(tr.voltage(out), expected, 2e-4);
  tr.run_until(10_ms);
  EXPECT_NEAR(tr.voltage(out), 1.0, 1e-4);
}

TEST(CircuitNonlinear, DiodeForwardDrop) {
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, 5_V);
  c.add<Resistor>("R", in, out, 1_kOhm);
  c.add<Diode>("D", out, kGround);
  Transient tr(c, {});
  tr.solve_dc();
  const double vd = tr.voltage(out);
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.8);
  // KCL: resistor current equals diode current.
  const double ir = (5.0 - vd) / 1000.0;
  Diode d(kGround, kGround + 1);  // parameter-only use
  EXPECT_NEAR(d.current_at(vd), ir, ir * 0.01);
}

TEST(CircuitNonlinear, DiodeBlocksReverse) {
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, Voltage{-5.0});
  c.add<Resistor>("R", in, out, 1_kOhm);
  c.add<Diode>("D", out, kGround);
  Transient tr(c, {});
  tr.solve_dc();
  // Nearly the whole -5 V appears across the diode.
  EXPECT_LT(tr.voltage(out), -4.9);
}

TEST(CircuitTransient, HalfWaveRectifierChargesCap) {
  Circuit c;
  const Node src = c.node("src");
  const Node out = c.node("out");
  c.add<VoltageSource>("Vac", src, kGround,
                       [](double t) { return 2.0 * std::sin(2.0 * M_PI * 1000.0 * t); });
  c.add<Diode>("D", src, out);
  c.add<Capacitor>("C", out, kGround, 1_uF);
  c.add<Resistor>("Rload", out, kGround, 100_kOhm);
  Transient::Options opt;
  opt.dt = 1e-6;
  Transient tr(c, opt);
  tr.run_until(5_ms);
  // Peak detection: out ~ Vpeak - Vdiode.
  EXPECT_GT(tr.voltage(out), 1.2);
  EXPECT_LT(tr.voltage(out), 2.0);
}

TEST(CircuitSwitch, OnOffResistance) {
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, 1_V);
  auto* sw = c.add<Switch>("S", in, out, 1_Ohm, 10_MOhm);
  c.add<Resistor>("Rload", out, kGround, 1_kOhm);
  Transient tr(c, {});
  tr.solve_dc();
  EXPECT_LT(tr.voltage(out), 0.001);  // off: divider with 10 MOhm
  sw->set_on(true);
  tr.solve_dc();
  EXPECT_NEAR(tr.voltage(out), 1.0 * 1000.0 / 1001.0, 1e-6);
}

TEST(CircuitSwitch, ControllerDrivesState) {
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, 1_V);
  auto* sw = c.add<Switch>("S", in, out, 1_Ohm, 10_MOhm);
  c.add<Resistor>("Rload", out, kGround, 1_kOhm);
  // Close the switch from t >= 1 ms.
  sw->set_controller([](const Vector&, double t) { return t >= 1e-3; });
  Transient::Options opt;
  opt.dt = 1e-4;
  Transient tr(c, opt);
  tr.run_until(Duration{0.9e-3});
  EXPECT_LT(tr.voltage(out), 0.01);
  tr.run_until(Duration{2e-3});
  EXPECT_GT(tr.voltage(out), 0.99 * 1000.0 / 1001.0);
}

TEST(CircuitComparatorSwitch, ActsAsIdealDiode) {
  // Synchronous-rectifier element: conducts when v(src) > v(out).
  Circuit c;
  const Node src = c.node("src");
  const Node out = c.node("out");
  c.add<VoltageSource>("Vac", src, kGround,
                       [](double t) { return 1.5 * std::sin(2.0 * M_PI * 100.0 * t); });
  auto* sw = c.add<ComparatorSwitch>("SR", src, out, src, out, 2_Ohm, 10_MOhm);
  (void)sw;
  c.add<Capacitor>("C", out, kGround, 10_uF);
  c.add<Resistor>("Rload", out, kGround, 10_kOhm);
  Transient::Options opt;
  opt.dt = 1e-5;
  Transient tr(c, opt);
  tr.run_until(50_ms);
  // Peak tracking without a diode drop.
  EXPECT_GT(tr.voltage(out), 1.3);
  EXPECT_LE(tr.voltage(out), 1.55);
}

TEST(Circuit, NodeNamesAndGroundAliases) {
  Circuit c;
  EXPECT_EQ(c.node("gnd"), kGround);
  EXPECT_EQ(c.node("GND"), kGround);
  EXPECT_EQ(c.node("0"), kGround);
  const Node a = c.node("a");
  EXPECT_EQ(c.node("a"), a);
}

TEST(Circuit, FloatingNodeIsSingular) {
  Circuit c;
  const Node a = c.node("a");
  const Node b = c.node("b");
  c.add<Resistor>("R", a, b, 1_kOhm);  // nothing ties a/b to ground
  Transient tr(c, {});
  EXPECT_THROW(tr.solve_dc(), pico::DesignError);
}

TEST(References, CurrentReferenceNominal) {
  CurrentReference ref;
  EXPECT_NEAR(ref.output(1.2_V, Temperature{300.0}).value(), 18e-9, 1e-12);
  // Collapses without headroom.
  EXPECT_DOUBLE_EQ(ref.output(0.5_V, Temperature{300.0}).value(), 0.0);
  // Mild temperature dependence.
  const double i_hot = ref.output(1.2_V, Temperature{340.0}).value();
  EXPECT_GT(i_hot, 18e-9);
  EXPECT_LT(i_hot, 22e-9);
}

TEST(References, BandgapOutput) {
  BandgapReference bg;
  EXPECT_NEAR(bg.output(1.2_V, Temperature{300.0}).value(), 0.6, 1e-6);
  // Curvature: slightly low when hot.
  EXPECT_LT(bg.output(1.2_V, Temperature{360.0}).value(), 0.6);
  EXPECT_DOUBLE_EQ(bg.output(0.8_V, Temperature{300.0}).value(), 0.0);
  EXPECT_NEAR(bg.supply_current(1.2_V).value(), 25e-9, 1e-12);
}

}  // namespace
}  // namespace pico::circuits
