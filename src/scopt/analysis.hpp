// analysis.hpp — Seeman–Sanders analysis of a two-phase SC converter
// (paper ref [13], the method behind the PicoCube power IC of §7.1).
//
// From a `Topology` this derives, fully automatically:
//   * the ideal conversion ratio M = Vout/Vin (KVL across both phases),
//   * steady-state flying-cap voltages and switch blocking voltages,
//   * the charge-multiplier vectors a_c (caps) and a_r (switches) by
//     solving the per-phase KCL charge-flow system with capacitor
//     charge-periodicity constraints,
//   * the slow- and fast-switching-limit output impedances
//       R_SSL = sum_i a_ci^2 / (C_i f_sw)
//       R_FSL = 2 sum_j R_j a_rj^2          (50 % duty)
//     combined as R_out ~ sqrt(R_SSL^2 + R_FSL^2),
//   * loss/efficiency maps and the regulation frequency for a load.
//
// An implicit output bypass capacitor (off-chip in the PicoCube, on the
// switch board) carries the load during the phase when the flying network
// is disconnected; it participates in the charge analysis but not in the
// on-die sizing budget.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "scopt/topology.hpp"

namespace pico::scopt {

// Per-output-charge charge multipliers.
struct ChargeVectors {
  std::vector<double> cap;  // a_c,i for each flying cap
  std::vector<double> sw;   // a_r,j for each switch
  double out_cap = 0.0;     // multiplier of the implicit output bypass cap
  double input_charge = 0.0;  // q_in per unit q_out (== M for a lossless converter)
};

// Steady-state voltage solution (per unit Vin).
struct VoltageSolution {
  double ratio = 0.0;               // M = Vout / Vin
  std::vector<double> cap_voltage;  // flying-cap DC voltages / Vin
  std::vector<double> switch_block; // worst-case off-state |V| per switch / Vin
};

class ConverterAnalysis {
 public:
  // Analyzes the topology; throws DesignError if it is ill-posed (the
  // constraint system is inconsistent — e.g. a switch loop shorting Vin).
  explicit ConverterAnalysis(const Topology& topo);

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] double ratio() const { return volts_.ratio; }
  [[nodiscard]] const VoltageSolution& voltages() const { return volts_; }
  [[nodiscard]] const ChargeVectors& charge() const { return charge_; }

  // SSL impedance for given flying-cap values (output cap handled inside).
  [[nodiscard]] Resistance r_ssl(const std::vector<Capacitance>& caps, Frequency fsw,
                                 Capacitance c_out) const;
  // FSL impedance for given switch on-resistances (50 % duty).
  [[nodiscard]] Resistance r_fsl(const std::vector<Resistance>& r_on) const;

  // Optimal per-element allocations for a total budget (Seeman–Sanders:
  // C_i ~ a_ci, G_j ~ a_rj).
  [[nodiscard]] std::vector<Capacitance> allocate_caps(Capacitance c_total) const;
  [[nodiscard]] std::vector<Resistance> allocate_switches(Conductance g_total) const;

 private:
  void solve_voltages();
  void solve_charges();

  Topology topo_;
  VoltageSolution volts_;
  ChargeVectors charge_;
};

// ---------------------------------------------------------------------------
// Technology + sized converter: turns the abstract analysis into a design
// with real component values, parasitic losses, and efficiency maps.
// ---------------------------------------------------------------------------

// 0.13 um-class CMOS with high-density capacitors (the ST process of §7.1).
struct Technology {
  // On-die capacitor density [F/m^2] (7 fF/um^2 high-density MOS cap).
  double cap_density = 7e-3;
  // Fraction of each flying cap appearing as bottom-plate parasitic
  // (MIM-quality / shielded high-density cap).
  double bottom_plate_ratio = 0.015;
  // Switch conductance per die area at nominal gate drive [S/m^2]
  // (1 mS/um width at ~0.5 um pitch).
  double switch_conductance_density = 2e6;
  // Gate capacitance per unit switch conductance [F/S] == [s].
  double gate_time_constant = 1.5e-12;
  // Gate-drive voltage.
  double gate_drive = 1.2;
  // Controller/oscillator overhead per switching event is folded into the
  // gate term; static controller power:
  double controller_power = 50e-9;  // [W]
};

class SizedConverter {
 public:
  struct Losses {
    Power conduction{};
    Power gate{};
    Power bottom_plate{};
    Power controller{};
    [[nodiscard]] Power total() const {
      return conduction + gate + bottom_plate + controller;
    }
  };

  // Size a converter: distribute `cap_area` and `switch_area` of die
  // optimally across the elements.
  SizedConverter(ConverterAnalysis analysis, Technology tech, Area cap_area,
                 Area switch_area, Capacitance c_out = Capacitance{1e-6});

  [[nodiscard]] const ConverterAnalysis& analysis() const { return an_; }
  [[nodiscard]] double ratio() const { return an_.ratio(); }
  [[nodiscard]] const std::vector<Capacitance>& cap_values() const { return caps_; }
  [[nodiscard]] const std::vector<Resistance>& switch_resistances() const { return r_on_; }

  [[nodiscard]] Resistance r_out(Frequency fsw) const;
  [[nodiscard]] Voltage output_voltage(Voltage vin, Current iout, Frequency fsw) const;
  [[nodiscard]] Losses losses(Voltage vin, Current iout, Frequency fsw) const;
  [[nodiscard]] double efficiency(Voltage vin, Current iout, Frequency fsw) const;

  // Switching frequency that minimizes total loss for this load.
  [[nodiscard]] Frequency optimal_frequency(Voltage vin, Current iout) const;
  // Frequency-modulation regulation: frequency at which Vout == target
  // under `iout`. Returns 0 Hz if the target is unreachable (needs
  // R_out < R_FSL) — callers fall back to max frequency.
  [[nodiscard]] Frequency regulate(Voltage vin, Voltage target, Current iout) const;

  [[nodiscard]] const Technology& technology() const { return tech_; }

 private:
  ConverterAnalysis an_;
  Technology tech_;
  std::vector<Capacitance> caps_;
  std::vector<Resistance> r_on_;
  Capacitance c_out_;
  double g_total_ = 0.0;
};

}  // namespace pico::scopt
