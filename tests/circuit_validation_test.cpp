// Cross-engine validation: the behavioral power-train models (used by the
// fast node simulation) checked against full circuit-level MNA transients
// of the same hardware, and the Seeman–Sanders analytic output impedance
// checked against a switched netlist of the actual doubler.
#include <gtest/gtest.h>

#include "circuits/transient.hpp"
#include "power/rectifier.hpp"
#include "power/rectifier_circuits.hpp"
#include "scopt/analysis.hpp"

namespace pico::power {
namespace {

using namespace pico::literals;

harvest::ElectromagneticShaker steady_shaker(double omega) {
  return harvest::ElectromagneticShaker(
      harvest::SpeedProfile({{0.0, omega}, {100.0, omega}}));
}

// Average charging current from a circuit-level rectifier run.
double circuit_avg_current(RectifierCircuit& rc, double t_start, double t_end, double dt) {
  circuits::Transient::Options opt;
  opt.dt = dt;
  circuits::Transient tr(*rc.circuit, opt);
  tr.run_until(Duration{t_start});
  double sum = 0.0;
  long n = 0;
  while (tr.time() < t_end) {
    tr.step();
    sum += tr.source_current(*rc.battery);
    ++n;
  }
  return sum / static_cast<double>(n);
}

TEST(CircuitValidation, SynchronousRectifierMatchesBehavioral) {
  const auto shaker = steady_shaker(80.0);
  const Voltage vdc{1.25};
  const auto behavioral = SynchronousRectifier{}.rectify(shaker, vdc, 1.0, 1.5, 40000);

  auto rc = build_sync_rectifier_circuit(shaker, vdc, Resistance{2.0});
  const double circuit = circuit_avg_current(rc, 1.0, 1.5, 5e-6);

  // The behavioral model *is* the circuit equation sampled pointwise, so
  // agreement should be tight.
  EXPECT_NEAR(circuit, behavioral.avg_current.value(),
              behavioral.avg_current.value() * 0.03);
}

TEST(CircuitValidation, DiodeBridgeMatchesBehavioralWithSchottkyDrop) {
  const auto shaker = steady_shaker(80.0);
  const Voltage vdc{1.25};
  const auto behavioral = DiodeBridgeRectifier{}.rectify(shaker, vdc, 1.0, 1.5, 40000);

  auto rc = build_bridge_rectifier_circuit(shaker, vdc);
  const double circuit = circuit_avg_current(rc, 1.0, 1.5, 5e-6);

  // The behavioral model uses a fixed 0.35 V Schottky drop; the Shockley
  // junctions in the netlist drop 0.5-0.6 V at these currents, so the
  // circuit delivers somewhat less. Same order, correct direction.
  EXPECT_GT(circuit, 0.2 * behavioral.avg_current.value());
  EXPECT_LT(circuit, 1.0 * behavioral.avg_current.value());
}

TEST(CircuitValidation, BridgeConductsNothingBelowThreshold) {
  // Slow rotation: pulse peaks below vdc + 2 junction drops.
  const auto shaker = steady_shaker(25.0);
  auto rc = build_bridge_rectifier_circuit(shaker, Voltage{1.25});
  const double circuit = circuit_avg_current(rc, 1.0, 1.3, 5e-6);
  EXPECT_LT(std::abs(circuit), 2e-6);

  // ...where the synchronous rectifier still harvests.
  auto sync = build_sync_rectifier_circuit(shaker, Voltage{1.25}, Resistance{2.0});
  const double sync_i = circuit_avg_current(sync, 1.0, 1.3, 5e-6);
  EXPECT_GT(sync_i, 10e-6);
}

TEST(CircuitValidation, DoublerOutputImpedanceMatchesSeemanSanders) {
  // Switched netlist of the Fig 10a doubler in the slow-switching limit.
  const double fsw = 100e3;
  const Capacitance c_fly{10e-9};
  const Resistance r_on{5.0};
  auto dc = build_sc_doubler_circuit(1.2_V, c_fly, r_on, Capacitance{100e-9},
                                     Resistance{10e3});
  circuits::Transient::Options opt;
  opt.dt = 5e-8;
  circuits::Transient tr(*dc.circuit, opt);
  // Settle the output cap (tau ~ 100 cycles), then average one window.
  while (tr.time() < 600.0 / fsw) {
    dc.set_phase_from_time(tr.time(), fsw);
    tr.step();
  }
  double sum = 0.0;
  long n = 0;
  while (tr.time() < 700.0 / fsw) {
    dc.set_phase_from_time(tr.time(), fsw);
    tr.step();
    sum += tr.voltage(dc.vout);
    ++n;
  }
  const double vout = sum / static_cast<double>(n);
  const double iout = vout / 10e3;
  const double rout_measured = (2.4 - vout) / iout;

  scopt::ConverterAnalysis an(scopt::Topology::doubler());
  const double ssl = an.r_ssl({c_fly}, Frequency{fsw}, Capacitance{100e-9}).value();
  const double fsl = an.r_fsl({r_on, r_on, r_on, r_on}).value();
  const double rout_predicted = std::sqrt(ssl * ssl + fsl * fsl);

  EXPECT_NEAR(rout_measured, rout_predicted, rout_predicted * 0.05);
}

TEST(CircuitValidation, DoublerSslScalesInverselyWithFrequency) {
  auto measure = [](double fsw) {
    auto dc = build_sc_doubler_circuit(1.2_V, Capacitance{10e-9}, Resistance{5.0},
                                       Capacitance{100e-9}, Resistance{10e3});
    circuits::Transient::Options opt;
    opt.dt = 0.005 / fsw;  // resolve the phase
    circuits::Transient tr(*dc.circuit, opt);
    while (tr.time() < 600.0 / fsw) {
      dc.set_phase_from_time(tr.time(), fsw);
      tr.step();
    }
    double sum = 0.0;
    long n = 0;
    while (tr.time() < 700.0 / fsw) {
      dc.set_phase_from_time(tr.time(), fsw);
      tr.step();
      sum += tr.voltage(dc.vout);
      ++n;
    }
    const double vout = sum / static_cast<double>(n);
    return (2.4 - vout) / (vout / 10e3);
  };
  const double r100k = measure(100e3);
  const double r200k = measure(200e3);
  // SSL-dominated: doubling fsw halves R_out.
  EXPECT_NEAR(r100k / r200k, 2.0, 0.15);
}

}  // namespace
}  // namespace pico::power
