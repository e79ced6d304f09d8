// rails.hpp — the PicoCube's supply rails (paper §4.3).
#pragma once

#include <string>

#include "common/units.hpp"

namespace pico::core {

enum class RailId : int {
  kVddMcu = 0,        // 2.1-3.6 V: microcontroller + sensor, always on
  kVddRadioDigital,   // 1.0 V: radio digital logic (shunt regulator)
  kVddRadioRf,        // 0.65 V: radio RF PA (LDO, gated in and out)
  kCount,
};

[[nodiscard]] std::string to_string(RailId r);

// Load currents on each rail.
struct RailLoads {
  Current mcu_sensor{};
  Current radio_digital{};
  Current radio_rf{};

  [[nodiscard]] Current& of(RailId r);
};

}  // namespace pico::core
