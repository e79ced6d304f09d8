#include "core/rails.hpp"

#include "common/error.hpp"

namespace pico::core {

std::string to_string(RailId r) {
  switch (r) {
    case RailId::kVddMcu:
      return "vdd_mcu";
    case RailId::kVddRadioDigital:
      return "vdd_radio_dig";
    case RailId::kVddRadioRf:
      return "vdd_radio_rf";
    case RailId::kCount:
      break;
  }
  return "?";
}

Current& RailLoads::of(RailId r) {
  switch (r) {
    case RailId::kVddMcu:
      return mcu_sensor;
    case RailId::kVddRadioDigital:
      return radio_digital;
    case RailId::kVddRadioRf:
      return radio_rf;
    case RailId::kCount:
      break;
  }
  throw InternalError("invalid rail");
}

}  // namespace pico::core
