// harvester.hpp — energy-harvester source models (paper §4.4 and refs
// [3-5]).
//
// The Cube is "source agnostic": it only requires an AC source meeting the
// storage/management specs. A `Harvester` therefore exposes the terminal
// behaviour the power train sees — an open-circuit voltage waveform behind
// a source resistance — plus convenience queries for available power.
#pragma once

#include <memory>
#include <string>

#include "common/units.hpp"
#include "harvest/profiles.hpp"

namespace pico::harvest {

class Harvester {
 public:
  virtual ~Harvester() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  // Instantaneous open-circuit terminal voltage [V].
  [[nodiscard]] virtual double open_circuit_voltage(double t) const = 0;
  // Thevenin source resistance.
  [[nodiscard]] virtual Resistance source_resistance() const = 0;
  // Maximum power deliverable into a matched load at time t.
  [[nodiscard]] virtual Power matched_power(double t) const;
  // A period hint for averaging windows (0 = aperiodic/DC).
  [[nodiscard]] virtual Duration waveform_period(double t) const = 0;

  // Conservative bound on |open_circuit_voltage(t)| for every t in
  // [t0, t1] (t0 <= t1): a model may overestimate, never underestimate.
  // The default, +infinity, means "no bound".
  [[nodiscard]] virtual double emf_bound(double t0, double t1) const;

  // Batched sampling for averaging loops: writes
  // open_circuit_voltage(t0 + (k + 0.5) * dt) for k in [k0, k1), in order
  // and bit for bit, to `out` — except that a sample whose |voc| is
  // provably <= `quiet` may be left out (quiet < 0: none may). Returns the
  // number written, at most k1 - k0. If `visited` is non-null it receives
  // the number of samples the model looked at (between the number written
  // and k1 - k0); the rest were skipped unseen. The default evaluates
  // every sample.
  [[nodiscard]] virtual int sweep_emf(double t0, double dt, int k0, int k1, double quiet,
                                      double* out, int* visited = nullptr) const;
};

// ---------------------------------------------------------------------------
// Electromagnetic shaker (the tire/bicycle scavenger).
//
// Each magnet pass per revolution rings an L-C-coil assembly, producing a
// decaying sinusoidal voltage burst whose peak scales with rotation speed.
// This reproduces the "pulsed waveform" the paper's synchronous rectifier
// ingests (§7.1).
//
// Its EMF bound is min(k * omega_max, clamp) over the window. Its sweep
// walks the speed profile with one segment cursor, skips exp/sin wherever
// the decayed ring envelope provably stays at or below `quiet`, and, once
// a ring has provably decayed, jumps to just before the next magnet pass
// without looking at the samples in between (pulse skipping: the phase
// only grows, never faster than the chunk's peak pulse rate; see
// docs/PERFORMANCE.md §8). Samples it does look at run the scalar
// open_circuit_voltage operations, so its output is the same either way.
// ---------------------------------------------------------------------------
class ElectromagneticShaker : public Harvester {
 public:
  struct Params {
    double pulses_per_rev = 2;       // magnets passing the coil per turn
    double volts_per_rad_per_s = 0.07;  // peak EMF coefficient
    Frequency ring_frequency{120.0};    // burst oscillation frequency
    Duration ring_decay{0.02};          // exponential decay constant
    Resistance coil_resistance{95.0};
    double min_omega = 2.0;          // below this the pulse is negligible
    Voltage clamp{5.0};              // mechanical/electrical peak clamp
  };

  ElectromagneticShaker(SpeedProfile profile, Params p);
  explicit ElectromagneticShaker(SpeedProfile profile);

  [[nodiscard]] std::string name() const override { return "em-shaker"; }
  [[nodiscard]] double open_circuit_voltage(double t) const override;
  [[nodiscard]] Resistance source_resistance() const override {
    return prm_.coil_resistance;
  }
  [[nodiscard]] Duration waveform_period(double t) const override;
  [[nodiscard]] double emf_bound(double t0, double t1) const override;
  [[nodiscard]] int sweep_emf(double t0, double dt, int k0, int k1, double quiet,
                              double* out, int* visited = nullptr) const override;

  [[nodiscard]] const SpeedProfile& profile() const { return profile_; }
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  // The steps of open_circuit_voltage, shared with sweep_emf so both paths
  // run the same floating-point operations. The pulse phase is the
  // rotation angle in pulses: a magnet passes each time it crosses an
  // integer.
  [[nodiscard]] double pulse_phase(double angle) const;
  [[nodiscard]] double ring_age(double omega, double phase) const;
  [[nodiscard]] double ring_voltage(double omega, double since) const;
  // The EMF bound for a (padded) peak speed w.
  [[nodiscard]] double emf_bound_at(double w) const;

  SpeedProfile profile_;
  Params prm_;
};

// ---------------------------------------------------------------------------
// Solar cell (single-diode model) for the "cladding the outside of the
// node with solar cells" variant from the introduction.
// ---------------------------------------------------------------------------
class SolarCell : public Harvester {
 public:
  struct Params {
    Area area{0.8e-4};                // ~4 faces of a 1 cm cube usable
    double efficiency_stc = 0.15;     // at 1000 W/m^2
    Voltage v_oc_stc{0.6};            // per junction; single junction cell
    double diode_ideality = 1.5;
    Temperature temperature{300.0};
    Resistance series_res{5.0};
  };

  SolarCell(IrradianceProfile profile, Params p);
  explicit SolarCell(IrradianceProfile profile);

  [[nodiscard]] std::string name() const override { return "solar"; }
  [[nodiscard]] double open_circuit_voltage(double t) const override;
  [[nodiscard]] Resistance source_resistance() const override { return prm_.series_res; }
  [[nodiscard]] Duration waveform_period(double) const override { return Duration{0.0}; }

  // Photocurrent at irradiance G [W/m^2].
  [[nodiscard]] Current photo_current(double irradiance) const;
  // I-V curve: cell current at terminal voltage v and irradiance G.
  [[nodiscard]] Current current_at(Voltage v, double irradiance) const;
  // Maximum power point at irradiance G.
  [[nodiscard]] Power mpp(double irradiance) const;
  [[nodiscard]] Power mpp_at_time(double t) const;

  [[nodiscard]] const Params& params() const { return prm_; }
  [[nodiscard]] const IrradianceProfile& profile() const { return profile_; }

 private:
  IrradianceProfile profile_;
  Params prm_;
};

}  // namespace pico::harvest
