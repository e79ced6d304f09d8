#include "board/stack.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/format.hpp"

namespace pico::board {

BoardStack::BoardStack(ElastomericConnector connector, Params p)
    : conn_(std::move(connector)), prm_(p) {
  PICO_REQUIRE(prm_.budget.value() > 0.0, "volume budget must be positive");
}

void BoardStack::add_level(StackLevel level) { levels_.push_back(std::move(level)); }

void BoardStack::declare_bus_signal(const std::string& name, int pad_index) {
  PICO_REQUIRE(!name.empty(), "bus signal needs a name");
  for (const auto& [n, idx] : bus_) {
    PICO_REQUIRE(n != name, "bus signal declared twice");
    PICO_REQUIRE(idx != pad_index, "two bus signals on one pad");
  }
  bus_.emplace_back(name, pad_index);
}

Length BoardStack::stack_height() const {
  double h = prm_.base_height.value();
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    h += levels_[i].pcb.params().thickness.value();
    if (i + 1 < levels_.size()) h += levels_[i].ring.height.value();
  }
  h += prm_.lid_height.value();
  return Length{h};
}

Volume BoardStack::outer_volume() const {
  const double edge = prm_.case_inner_edge.value() + 2.0 * prm_.case_wall.value();
  return Volume{edge * edge * stack_height().value()};
}

StackReport BoardStack::check() const {
  StackReport rep;
  auto fail = [&rep](std::string why) {
    rep.fits = false;
    rep.violations.push_back(std::move(why));
  };

  if (levels_.empty()) {
    fail("stack has no boards");
    return rep;
  }

  // Bottom-side components of the lowest board (the battery) must clear
  // the base gap.
  {
    const double bottom = levels_.front().pcb.max_component_height(Side::kBottom).value();
    if (bottom > prm_.base_height.value()) {
      fail(levels_.front().pcb.name() + ": bottom components need " + si(bottom, "m") +
           " but the base gap is " + si(prm_.base_height.value(), "m"));
    }
  }

  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const auto& lvl = levels_[i];
    // Boards must fit the case.
    if (lvl.pcb.params().edge.value() > prm_.case_inner_edge.value()) {
      fail(lvl.pcb.name() + " is wider than the case bore");
    }
    if (i + 1 == levels_.size()) continue;

    // Components under the next board must clear the ring height.
    const double gap = lvl.ring.height.value();
    const double top_clearance = lvl.pcb.max_component_height(Side::kTop).value();
    const double bottom_above =
        levels_[i + 1].pcb.max_component_height(Side::kBottom).value();
    if (top_clearance + bottom_above > gap) {
      fail(lvl.pcb.name() + " -> " + levels_[i + 1].pcb.name() + ": components need " +
           si((top_clearance + bottom_above), "m") + " but the ring is " + si(gap, "m"));
    }

    // Connector compression window at this gap.
    if (!conn_.deflection_ok(Length{gap})) {
      fail(lvl.pcb.name() + " -> " + levels_[i + 1].pcb.name() +
           ": connector deflection outside design rules");
    }
    // Deformation channel: ring wall to case bore must fit the bulge.
    const double channel = 0.5 * (prm_.case_inner_edge.value() - lvl.ring.outer_edge.value());
    if (conn_.deflection_ok(Length{gap})) {
      const double bulge = conn_.deformed_width(Length{gap}).value();
      if (bulge > channel + lvl.ring.wall.value()) {
        fail(lvl.pcb.name() + ": deformation channel too narrow for the connector bulge");
      }
    }
  }

  // Bus continuity: every declared signal must be on the same pad index of
  // every board.
  rep.bus_signals = static_cast<int>(bus_.size());
  for (const auto& [name, idx] : bus_) {
    for (const auto& lvl : levels_) {
      const auto found = lvl.pcb.pad_of_signal(name);
      if (!found.has_value()) {
        fail("signal " + name + " missing on " + lvl.pcb.name());
      } else if (*found != idx) {
        fail("signal " + name + " on mismatched pad of " + lvl.pcb.name());
      }
    }
  }

  // Worst-case bus resistance: bottom board to top board crosses
  // (num_boards - 1) connectors.
  if (!levels_.empty()) {
    const auto pad_len = levels_.front().pcb.params().pad_length;
    const double per_contact = conn_.pad_resistance(pad_len).value();
    rep.worst_bus_resistance =
        Resistance{per_contact * static_cast<double>(levels_.size() - 1)};
  }

  rep.total_height = stack_height();
  rep.enclosed_volume = outer_volume();
  if (rep.enclosed_volume.value() > prm_.budget.value()) {
    fail("assembly exceeds the 1 cm^3 budget: " + si(rep.enclosed_volume.value(), "m^3"));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// The PicoCube v1 assembly.
// ---------------------------------------------------------------------------
namespace {
using namespace pico::literals;

Component part(const std::string& name, double cx_mm, double cy_mm, double w_mm, double h_mm,
               Side side, double height_mm) {
  Component c;
  c.name = name;
  c.footprint = Rect::centered({cx_mm * 1e-3, cy_mm * 1e-3}, Length{w_mm * 1e-3},
                               Length{h_mm * 1e-3});
  c.side = side;
  c.height = Length{height_mm * 1e-3};
  return c;
}

void map_bus(Pcb& pcb) {
  // The 18-signal bus of the Cube: power, SPI, radio control, and the
  // remapped JTAG pins. The controller board fixes this mapping; all
  // boards replicate it.
  static const char* kSignals[] = {"VBATT", "GND1", "VDD_MCU", "GND2", "VDD_RF_IN",
                                   "VDD_RF", "VDD_DIG", "SPI_CLK", "SPI_MOSI", "SPI_MISO",
                                   "SPI_CS", "TX_DATA", "PA_EN", "SPI_PWR_EN", "SENS_INT",
                                   "JTAG_TDO", "JTAG_TDI", "JTAG_TMS"};
  int idx = 0;
  for (const char* s : kSignals) {
    pcb.assign_signal(idx, s);
    ++idx;
  }
}
}  // namespace

BoardStack make_picocube_stack() {
  BoardStack::Params params;
  params.base_height = Length{2.6e-3};  // the NiMH cell lives here
  // As-built envelope: the 1 cm^3 figure is the nominal class; the bench
  // (E9) reports the strict accounting.
  params.budget = Volume{1.55e-6};
  BoardStack stack{ElastomericConnector{}, params};

  // Storage board: bridge rectifier + filter caps on top, battery epoxied
  // underneath (the battery occupies the tall bottom gap to the case).
  Pcb storage("storage");
  map_bus(storage);
  storage.place(part("bridge-rectifier", -1.5, 1.5, 2.6, 2.6, Side::kTop, 0.8));
  storage.place(part("filter-cap-1", 1.8, 1.5, 1.6, 0.8, Side::kTop, 0.7));
  storage.place(part("filter-cap-2", 1.8, 0.0, 1.6, 0.8, Side::kTop, 0.7));
  storage.place(part("NiMH-cell", 0.0, 0.0, 6.8, 6.8, Side::kBottom, 2.2));

  // Controller board: the MSP430 and its decoupling. Signals route to the
  // nearest pad, so this board defines the bus mapping.
  Pcb controller("controller");
  map_bus(controller);
  controller.place(part("MSP430F1222", 0.0, 0.0, 6.4, 6.4, Side::kTop, 0.9));
  controller.place(part("decoupling", 0.0, -3.2, 2.0, 0.6, Side::kBottom, 0.6));
  controller.place(part("xtal-32k", 2.2, 3.2, 2.0, 0.8, Side::kBottom, 0.65));

  // Sensor board: SP12 bare dice (COB) + the charge pump on the top side.
  Pcb sensor("sensor");
  map_bus(sensor);
  sensor.place(part("SP12-analog-die", -1.8, 1.2, 2.4, 2.4, Side::kBottom, 0.5));
  sensor.place(part("SP12-digital-die", 1.2, 1.2, 2.4, 2.4, Side::kBottom, 0.5));
  sensor.place(part("TPS60313", -1.2, -0.2, 3.1, 3.1, Side::kTop, 1.1));
  sensor.place(part("pump-caps", 2.4, -0.5, 1.8, 1.2, Side::kTop, 0.9));

  // Switch board: the two radio supplies and their gates.
  Pcb sw("switch");
  map_bus(sw);
  sw.place(part("LT3020", -1.5, 1.5, 3.0, 3.0, Side::kTop, 0.8));
  sw.place(part("gate-fets", 1.8, 1.5, 2.0, 2.0, Side::kTop, 0.7));
  sw.place(part("shunt-reg", 1.8, -1.2, 1.8, 1.4, Side::kTop, 0.7));
  sw.place(part("bypass-0.65V", -1.5, -1.8, 2.2, 1.2, Side::kTop, 0.8));

  // Radio board: four layers, all electronics on the bottom, the top face
  // is entirely the patch antenna.
  Pcb::Params radio_params;
  radio_params.metal_layers = 4;
  radio_params.thickness = Length{64.8 * 25.4e-6};  // 64.8 mil
  Pcb radio("radio", radio_params);
  map_bus(radio);
  radio.place(part("fbar-tx-die", 0.0, 1.0, 1.2, 0.8, Side::kBottom, 0.4));
  radio.place(part("fbar-resonator", 1.2, 1.0, 0.9, 0.9, Side::kBottom, 0.4));
  radio.place(part("level-shifters", -1.8, -0.8, 1.5, 1.5, Side::kBottom, 0.5));
  radio.place(part("match-network", 1.6, -0.8, 1.8, 1.0, Side::kBottom, 0.6));

  // Bottom-up: storage carries the battery in the base gap; the radio and
  // its antenna face the lid.
  SpacerRing ring;  // the 8x8 mm OD ring everywhere
  stack.add_level({std::move(storage), ring});
  stack.add_level({std::move(controller), ring});
  stack.add_level({std::move(sensor), ring});
  stack.add_level({std::move(sw), ring});
  stack.add_level({std::move(radio), ring});

  int idx = 0;
  for (const char* s : {"VBATT", "GND1", "VDD_MCU", "GND2", "VDD_RF_IN", "VDD_RF",
                        "VDD_DIG", "SPI_CLK", "SPI_MOSI", "SPI_MISO", "SPI_CS", "TX_DATA",
                        "PA_EN", "SPI_PWR_EN", "SENS_INT", "JTAG_TDO", "JTAG_TDI",
                        "JTAG_TMS"}) {
    stack.declare_bus_signal(s, idx++);
  }
  return stack;
}

}  // namespace pico::board
