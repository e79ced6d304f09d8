// rectifier.hpp — AC-to-DC front-end models (paper §4.5 storage board and
// §7.1 synchronous rectifier).
//
// The first element in the Cube's power train is a full-bridge rectifier
// feeding the NiMH cell; the power-interface IC replaces the junction
// diodes with comparator-driven transistors ("synchronous rectifier"),
// recovering the two diode drops — 96 % of an ideal rectifier's output at
// 450 uW input in the paper.
//
// Each model converts the harvester's open-circuit waveform into an
// average DC charging current at a given sink voltage by sampling the
// waveform over an averaging window (the waveform period is resolved with
// several hundred samples).
//
// `rectify` skips work that provably contributes exactly zero current: a
// whole window when the harvester's EMF bound does not conduct, and the
// samples the harvester's sweep proves quiet. Skipped samples would add
// +0.0 to every sum, so results are bit for bit those of the full loop.
#pragma once

#include <memory>
#include <string>

#include "common/units.hpp"
#include "harvest/harvester.hpp"

namespace pico::power {

struct RectifierResult {
  Current avg_current{};    // average DC current into the sink
  Power source_power{};     // average power drawn from the harvester EMF
  Power delivered_power{};  // avg_current * vdc
  Power loss{};             // dissipated in drops/switches/source resistance
  double conduction_fraction = 0.0;  // fraction of samples conducting
  int samples_evaluated = 0;  // samples whose current was computed; the rest were culled
  int samples_visited = 0;    // samples the harvester looked at (>= samples_evaluated)
};

class Rectifier {
 public:
  virtual ~Rectifier() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  // Instantaneous current into the DC sink for a given source EMF sample.
  // Contract: the result is >= 0 and non-decreasing in |voc| (for fixed
  // vdc and rs); `rectify` relies on it to cull samples exactly.
  [[nodiscard]] virtual double instantaneous_current(double voc, double vdc,
                                                     double rs) const = 0;
  // Extra standby/control power (comparators, gate drive) while active.
  [[nodiscard]] virtual Power control_power() const { return Power{0.0}; }

  // Average over [t0, t1]; `samples` waveform points (uniform).
  [[nodiscard]] RectifierResult rectify(const harvest::Harvester& h, Voltage vdc, double t0,
                                        double t1, int samples = 512) const;
};

// Ideal rectifier baseline: lossless absolute-value element. Only the
// source resistance limits the current.
class IdealRectifier : public Rectifier {
 public:
  [[nodiscard]] std::string name() const override { return "ideal"; }
  [[nodiscard]] double instantaneous_current(double voc, double vdc, double rs) const override;
};

// Full-bridge diode rectifier: two junction drops in the conduction path.
class DiodeBridgeRectifier : public Rectifier {
 public:
  struct Params {
    Voltage diode_drop{0.35};  // Schottky-class forward drop
  };

  DiodeBridgeRectifier();
  explicit DiodeBridgeRectifier(Params p);

  [[nodiscard]] std::string name() const override { return "diode-bridge"; }
  [[nodiscard]] double instantaneous_current(double voc, double vdc, double rs) const override;
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  Params prm_;
};

// Synchronous rectifier: comparator-controlled transistors, no junction
// drop; losses are I^2 * 2Ron plus the comparators' bias power.
class SynchronousRectifier : public Rectifier {
 public:
  struct Params {
    // Wide on-die power switches: the conduction path must stay small
    // against the ~95 Ohm coil for the 96 %-of-ideal result to hold.
    Resistance r_on{2.0};             // per transistor
    Voltage comparator_offset{5e-3};  // conduction threshold
    Power comparator_power{150e-9};   // two comparators' bias draw
  };

  SynchronousRectifier();
  explicit SynchronousRectifier(Params p);

  [[nodiscard]] std::string name() const override { return "synchronous"; }
  [[nodiscard]] double instantaneous_current(double voc, double vdc, double rs) const override;
  [[nodiscard]] Power control_power() const override { return prm_.comparator_power; }
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  Params prm_;
};

}  // namespace pico::power
