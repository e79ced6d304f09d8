// converters.hpp — DC-DC supply stages of the PicoCube (paper §4.3).
//
// The Cube needs three supplies from the 1.2 V NiMH cell:
//   * 2.1–3.6 V for the microcontroller and sensor — always on, so its
//     quiescent current dominates the 6 uW budget,
//   * 1.0 V for the radio digital logic — an MCU I/O pin through a shunt
//     regulator,
//   * 0.65 V, tightly regulated and low-noise, for the radio RF PA — an
//     LDO gated on both input and output.
//
// Each stage implements `DcDcStage`: the node's power accountant asks it
// for the input current needed to support a given output load, which is
// how quiescent and conversion losses propagate back to the battery.
#pragma once

#include <memory>
#include <string>

#include "common/units.hpp"
#include "scopt/analysis.hpp"

namespace pico::power {

class DcDcStage {
 public:
  virtual ~DcDcStage() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  // Regulated output voltage under the given conditions (0 if disabled or
  // out of regulation).
  [[nodiscard]] virtual Voltage output_voltage(Voltage vin, Current iout) const = 0;
  // Current drawn from the input source, including quiescent draw.
  [[nodiscard]] virtual Current input_current(Voltage vin, Current iout) const = 0;
  // Input-referred quiescent (no-load) power.
  [[nodiscard]] virtual Power quiescent_power(Voltage vin) const = 0;

  [[nodiscard]] double efficiency(Voltage vin, Current iout) const {
    const double pin = vin.value() * input_current(vin, iout).value();
    const double pout = output_voltage(vin, iout).value() * iout.value();
    return pin > 0.0 ? pout / pin : 0.0;
  }

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

 protected:
  bool enabled_ = true;
};

// ---------------------------------------------------------------------------
// TPS60313-class charge pump: regulated doubler with a special low-power
// ("snooze") mode giving very low quiescent current — the reason the paper
// picked it for the always-on controller/sensor supply.
// ---------------------------------------------------------------------------
class ChargePumpTps60313 : public DcDcStage {
 public:
  struct Params {
    Voltage v_regulated{3.3};
    Voltage vin_min{0.9};
    Current iq_snooze{2e-6};
    Current iq_active{28e-6};
    // Load above which the part leaves snooze mode.
    Current snooze_threshold{2e-3};
    // Charge transfer inefficiency on top of the ideal 2x pump.
    double transfer_loss = 0.05;
  };

  explicit ChargePumpTps60313(Params p);

  [[nodiscard]] std::string name() const override { return "TPS60313 charge pump"; }
  [[nodiscard]] Voltage output_voltage(Voltage vin, Current iout) const override;
  [[nodiscard]] Current input_current(Voltage vin, Current iout) const override;
  [[nodiscard]] Power quiescent_power(Voltage vin) const override;
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  Params prm_;
};

// ---------------------------------------------------------------------------
// LT3020-class micropower LDO for the radio RF rail. Gated at input *and*
// output by solid-state switches in the Cube, so when disabled it draws
// only switch leakage.
// ---------------------------------------------------------------------------
class LinearRegulatorLt3020 : public DcDcStage {
 public:
  struct Params {
    Voltage v_set{0.65};
    Voltage dropout{0.15};
    Current iq_enabled{20e-6};
    Current gate_leakage{5e-9};  // through the off input switch
  };

  LinearRegulatorLt3020();
  explicit LinearRegulatorLt3020(Params p);

  [[nodiscard]] std::string name() const override { return "LT3020 LDO"; }
  [[nodiscard]] Voltage output_voltage(Voltage vin, Current iout) const override;
  [[nodiscard]] Current input_current(Voltage vin, Current iout) const override;
  [[nodiscard]] Power quiescent_power(Voltage vin) const override;
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  Params prm_;
};

// ---------------------------------------------------------------------------
// Shunt regulator fed from a controller I/O pin: the radio digital supply.
// A series resistor from the I/O pin drops to the shunt voltage; whatever
// the load does not take, the shunt burns. Crude but tiny — viable only
// because the radio digital load is so small and briefly on.
// ---------------------------------------------------------------------------
class ShuntRegulatorStage : public DcDcStage {
 public:
  struct Params {
    Voltage v_shunt{1.0};
    Resistance r_series{5600.0};
    Current shunt_bias{1e-6};  // zener/reference bias when energized
  };

  explicit ShuntRegulatorStage(Params p);

  [[nodiscard]] std::string name() const override { return "shunt regulator"; }
  [[nodiscard]] Voltage output_voltage(Voltage vin, Current iout) const override;
  [[nodiscard]] Current input_current(Voltage vin, Current iout) const override;
  [[nodiscard]] Power quiescent_power(Voltage vin) const override;
  [[nodiscard]] const Params& params() const { return prm_; }
  // Maximum load current the series resistor can pass at a given input.
  [[nodiscard]] Current max_load(Voltage vin) const;

 private:
  Params prm_;
};

// ---------------------------------------------------------------------------
// On-die SC converter stage (§7.1): wraps a Seeman–Sanders SizedConverter
// with hysteretic frequency-modulation regulation to a target rail.
// ---------------------------------------------------------------------------
class ScConverterStage : public DcDcStage {
 public:
  ScConverterStage(std::string label, scopt::SizedConverter converter, Voltage v_target,
                   Current iout_design);

  [[nodiscard]] std::string name() const override { return label_; }
  [[nodiscard]] Voltage output_voltage(Voltage vin, Current iout) const override;
  [[nodiscard]] Current input_current(Voltage vin, Current iout) const override;
  [[nodiscard]] Power quiescent_power(Voltage vin) const override;

  [[nodiscard]] const scopt::SizedConverter& converter() const { return conv_; }
  [[nodiscard]] Frequency switching_frequency(Voltage vin, Current iout) const;

 private:
  std::string label_;
  scopt::SizedConverter conv_;
  Voltage v_target_;
  Current iout_design_;
};

}  // namespace pico::power
