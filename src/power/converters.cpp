#include "power/converters.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pico::power {

ChargePumpTps60313::ChargePumpTps60313(Params p) : prm_(p) {
  PICO_REQUIRE(prm_.v_regulated.value() > 0.0, "regulated voltage must be positive");
  PICO_REQUIRE(prm_.transfer_loss >= 0.0 && prm_.transfer_loss < 1.0,
               "transfer loss must be within [0, 1)");
}

Voltage ChargePumpTps60313::output_voltage(Voltage vin, Current iout) const {
  (void)iout;
  if (!enabled_ || vin < prm_.vin_min) return Voltage{0.0};
  // Doubler ceiling, regulated down to v_regulated.
  return Voltage{std::min(2.0 * vin.value(), prm_.v_regulated.value())};
}

Current ChargePumpTps60313::input_current(Voltage vin, Current iout) const {
  if (!enabled_ || vin < prm_.vin_min) return Current{0.0};
  const Current iq =
      iout.value() > prm_.snooze_threshold.value() ? prm_.iq_active : prm_.iq_snooze;
  // A 2x pump reflects the load current doubled; transfer loss adds on top.
  const double reflected = 2.0 * iout.value() / (1.0 - prm_.transfer_loss);
  return Current{reflected + iq.value()};
}

Power ChargePumpTps60313::quiescent_power(Voltage vin) const {
  if (!enabled_ || vin < prm_.vin_min) return Power{0.0};
  return Power{vin.value() * prm_.iq_snooze.value()};
}

// ---------------------------------------------------------------------------
// LinearRegulatorLt3020
// ---------------------------------------------------------------------------
LinearRegulatorLt3020::LinearRegulatorLt3020() : LinearRegulatorLt3020(Params{}) {}

LinearRegulatorLt3020::LinearRegulatorLt3020(Params p) : prm_(p) {
  PICO_REQUIRE(prm_.v_set.value() > 0.0, "set voltage must be positive");
}

Voltage LinearRegulatorLt3020::output_voltage(Voltage vin, Current iout) const {
  (void)iout;
  if (!enabled_) return Voltage{0.0};
  // In dropout the output follows the input minus the dropout voltage.
  return Voltage{std::min(prm_.v_set.value(), vin.value() - prm_.dropout.value())};
}

Current LinearRegulatorLt3020::input_current(Voltage vin, Current iout) const {
  if (!enabled_) return prm_.gate_leakage;
  (void)vin;
  // Series pass device: input current == output current, plus ground pin.
  return Current{iout.value() + prm_.iq_enabled.value()};
}

Power LinearRegulatorLt3020::quiescent_power(Voltage vin) const {
  if (!enabled_) return Power{vin.value() * prm_.gate_leakage.value()};
  return Power{vin.value() * prm_.iq_enabled.value()};
}

ShuntRegulatorStage::ShuntRegulatorStage(Params p) : prm_(p) {
  PICO_REQUIRE(prm_.r_series.value() > 0.0, "series resistance must be positive");
}

Current ShuntRegulatorStage::max_load(Voltage vin) const {
  const double drive = vin.value() - prm_.v_shunt.value();
  return Current{std::max(drive, 0.0) / prm_.r_series.value()};
}

Voltage ShuntRegulatorStage::output_voltage(Voltage vin, Current iout) const {
  if (!enabled_) return Voltage{0.0};
  if (iout.value() > max_load(vin).value()) {
    // Overloaded: shunt starves, output sags below regulation.
    return Voltage{std::max(vin.value() - iout.value() * prm_.r_series.value(), 0.0)};
  }
  return prm_.v_shunt;
}

Current ShuntRegulatorStage::input_current(Voltage vin, Current iout) const {
  if (!enabled_) return Current{0.0};
  // The series resistor always passes (vin - vshunt)/R; the shunt absorbs
  // what the load does not take.
  const double pass = std::max(max_load(vin).value(), iout.value());
  return Current{pass + prm_.shunt_bias.value()};
}

Power ShuntRegulatorStage::quiescent_power(Voltage vin) const {
  if (!enabled_) return Power{0.0};
  return Power{vin.value() * input_current(vin, Current{0.0}).value()};
}

// ---------------------------------------------------------------------------
// ScConverterStage
// ---------------------------------------------------------------------------
ScConverterStage::ScConverterStage(std::string label, scopt::SizedConverter converter,
                                   Voltage v_target, Current iout_design)
    : label_(std::move(label)),
      conv_(std::move(converter)),
      v_target_(v_target),
      iout_design_(iout_design) {
  PICO_REQUIRE(v_target_.value() > 0.0, "target voltage must be positive");
  PICO_REQUIRE(iout_design_.value() > 0.0, "design load must be positive");
}

Frequency ScConverterStage::switching_frequency(Voltage vin, Current iout) const {
  // Hysteretic frequency modulation: track the load; floor at the
  // frequency regulating a deep-sleep trickle so the rail never drifts
  // above target.
  const Current i = Current{std::max(iout.value(), 1e-7)};
  Frequency f = conv_.regulate(vin, v_target_, i);
  if (f.value() <= 0.0) {
    // Unreachable target: run at the design-load optimum as a fallback.
    f = conv_.optimal_frequency(vin, iout_design_);
  }
  return f;
}

Voltage ScConverterStage::output_voltage(Voltage vin, Current iout) const {
  if (!enabled_) return Voltage{0.0};
  const Frequency f = switching_frequency(vin, iout);
  const Voltage v = conv_.output_voltage(vin, Current{std::max(iout.value(), 1e-7)}, f);
  return Voltage{std::min(v.value(), v_target_.value())};
}

Current ScConverterStage::input_current(Voltage vin, Current iout) const {
  if (!enabled_) return Current{0.0};
  const Current i = Current{std::max(iout.value(), 1e-7)};
  const Frequency f = switching_frequency(vin, i);
  const auto losses = conv_.losses(vin, i, f);
  // Ideal-transformer reflection plus parasitic losses referred to vin.
  const double reflected = conv_.ratio() * i.value();
  const double parasitic = (losses.gate.value() + losses.bottom_plate.value() +
                            losses.controller.value()) /
                           vin.value();
  return Current{reflected + parasitic};
}

Power ScConverterStage::quiescent_power(Voltage vin) const {
  if (!enabled_) return Power{0.0};
  // No-load: controller + the residual switching needed to hold the rail.
  const Frequency f = switching_frequency(vin, Current{0.0});
  const auto losses = conv_.losses(vin, Current{1e-7}, f);
  return losses.gate + losses.bottom_plate + losses.controller;
}

}  // namespace pico::power
