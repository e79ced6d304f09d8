// power_ic.hpp — the integrated power-interface IC of paper §7.1 (Fig 9).
//
// Architecture (Fig 9): a synchronous rectifier charges the NiMH cell
// from the electromagnetic shaker; two on-die SC converters generate
// 2.1 V (microcontroller/sensors, 1:2 doubler — Fig 10a) and ~0.7 V
// (radio, 3:2 step-down — Fig 10b); a linear post-regulator trims the
// radio rail to 0.65 V and smooths converter ripple. Analog support: an
// 18 nA self-biased current reference and a sampled bandgap. Implemented
// in 0.13 um CMOS; measured leakage ~6.5 uA (partly the pad ring).
#pragma once

#include <memory>

#include "circuits/references.hpp"
#include "common/units.hpp"
#include "power/converters.hpp"
#include "power/rectifier.hpp"
#include "scopt/analysis.hpp"

namespace pico::power {

class PowerInterfaceIc {
 public:
  struct BuildOptions {
    scopt::Technology tech{};
    Area die_cap_area_per_converter{1.2e-6};
    Area die_switch_area_per_converter{0.3e-6};
    Voltage mcu_rail{2.1};
    Voltage radio_sc_rail{0.7};
    Voltage radio_rail{0.65};
    Current mcu_design_load{200e-6};
    Current radio_design_load{2.5e-3};
    // Measured pad-ring + die leakage from the paper.
    Current leakage{6.5e-6};
    Length die_edge{2e-3};  // "approximately 2 mm on a side"
  };

  PowerInterfaceIc();
  explicit PowerInterfaceIc(BuildOptions opt);

  // Sub-blocks.
  [[nodiscard]] const SynchronousRectifier& rectifier() const { return rectifier_; }
  [[nodiscard]] ScConverterStage& mcu_converter() { return *mcu_conv_; }
  [[nodiscard]] ScConverterStage& radio_converter() { return *radio_conv_; }
  [[nodiscard]] LinearRegulatorLt3020& radio_post_regulator() { return *post_reg_; }
  [[nodiscard]] const circuits::CurrentReference& current_reference() const { return iref_; }
  [[nodiscard]] const circuits::BandgapReference& bandgap() const { return bandgap_; }

  // Total battery current for a given pair of rail loads. Radio loads pass
  // through the 3:2 converter *and* the post-regulator.
  [[nodiscard]] Current battery_current(Voltage vbatt, Current mcu_load,
                                        Current radio_load) const;
  // Voltage actually delivered on each rail.
  [[nodiscard]] Voltage mcu_rail_voltage(Voltage vbatt, Current load) const;
  [[nodiscard]] Voltage radio_rail_voltage(Voltage vbatt, Current load) const;

  // Enable/disable the duty-cycled radio chain (both stages).
  void set_radio_chain_enabled(bool on);

  [[nodiscard]] const BuildOptions& options() const { return opt_; }
  [[nodiscard]] Area die_area() const {
    return Area{opt_.die_edge.value() * opt_.die_edge.value()};
  }

 private:
  BuildOptions opt_;
  SynchronousRectifier rectifier_;
  std::unique_ptr<ScConverterStage> mcu_conv_;
  std::unique_ptr<ScConverterStage> radio_conv_;
  std::unique_ptr<LinearRegulatorLt3020> post_reg_;
  circuits::CurrentReference iref_;
  circuits::BandgapReference bandgap_;
};

}  // namespace pico::power
