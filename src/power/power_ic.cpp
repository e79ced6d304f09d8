#include "power/power_ic.hpp"

#include "common/error.hpp"
#include "scopt/topology.hpp"

namespace pico::power {

PowerInterfaceIc::PowerInterfaceIc() : PowerInterfaceIc(BuildOptions{}) {}

PowerInterfaceIc::PowerInterfaceIc(BuildOptions opt) : opt_(opt) {
  PICO_REQUIRE(opt_.mcu_rail.value() > 0.0 && opt_.radio_rail.value() > 0.0,
               "rail targets must be positive");
  PICO_REQUIRE(opt_.radio_sc_rail.value() > opt_.radio_rail.value(),
               "SC radio rail must leave headroom for the post-regulator");

  // The topology analyses are pure functions of constant topologies (each a
  // least-squares solve), so they are derived once and copied per build.
  static const scopt::ConverterAnalysis kDoublerAnalysis(scopt::Topology::doubler());
  static const scopt::ConverterAnalysis kStepDownAnalysis(scopt::Topology::step_down_3to2());

  // 1:2 doubler for the microcontroller/sensor rail (Fig 10a).
  mcu_conv_ = std::make_unique<ScConverterStage>(
      "SC 1:2 (mcu/sensor)",
      scopt::SizedConverter(kDoublerAnalysis, opt_.tech, opt_.die_cap_area_per_converter,
                            opt_.die_switch_area_per_converter),
      opt_.mcu_rail, opt_.mcu_design_load);

  // 3:2 step-down for the radio rail (Fig 10b).
  radio_conv_ = std::make_unique<ScConverterStage>(
      "SC 3:2 (radio)",
      scopt::SizedConverter(kStepDownAnalysis, opt_.tech, opt_.die_cap_area_per_converter,
                            opt_.die_switch_area_per_converter),
      opt_.radio_sc_rail, opt_.radio_design_load);

  // Linear post-regulator 0.7 V -> 0.65 V with an on-die (smaller Iq) LDO.
  LinearRegulatorLt3020::Params ldo;
  ldo.v_set = opt_.radio_rail;
  ldo.dropout = Voltage{opt_.radio_sc_rail.value() - opt_.radio_rail.value()};
  ldo.iq_enabled = Current{2e-6};  // integrated: far below the COTS LT3020
  ldo.gate_leakage = Current{1e-9};
  post_reg_ = std::make_unique<LinearRegulatorLt3020>(ldo);

  // The duty-cycled radio chain starts disabled.
  set_radio_chain_enabled(false);
}

void PowerInterfaceIc::set_radio_chain_enabled(bool on) {
  radio_conv_->set_enabled(on);
  post_reg_->set_enabled(on);
}

Voltage PowerInterfaceIc::mcu_rail_voltage(Voltage vbatt, Current load) const {
  return mcu_conv_->output_voltage(vbatt, load);
}

Voltage PowerInterfaceIc::radio_rail_voltage(Voltage vbatt, Current load) const {
  const Voltage v_sc = radio_conv_->output_voltage(vbatt, load);
  return post_reg_->output_voltage(v_sc, load);
}

Current PowerInterfaceIc::battery_current(Voltage vbatt, Current mcu_load,
                                          Current radio_load) const {
  // Radio load passes through the LDO (series device: same current) and is
  // then reflected through the 3:2 converter.
  const Current ldo_in = post_reg_->input_current(
      radio_conv_->output_voltage(vbatt, radio_load), radio_load);
  const Current radio_batt = radio_conv_->input_current(vbatt, ldo_in);
  const Current mcu_batt = mcu_conv_->input_current(vbatt, mcu_load);
  // References and pad-ring leakage are always on.
  const double support = iref_.supply_current(vbatt, Temperature{300.0}).value() +
                         bandgap_.supply_current(vbatt).value() + opt_.leakage.value();
  return Current{radio_batt.value() + mcu_batt.value() + support};
}

}  // namespace pico::power
