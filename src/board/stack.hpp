// stack.hpp — the "tube and ring" package (paper §4.2, Fig 5) and the
// five-board PicoCube assembly.
//
// Five PCBs stack vertically inside a square SLA tube. Between boards, an
// 8 x 8 mm OD plastic ring (0.4 mm wall, 2.33 mm high) serves three
// functions at once: vertical deflection stop for the elastomeric
// connectors, inner wall of the connector deformation channel, and
// inter-board spacer. The lid snap-fits to maintain compression. The
// whole assembly — boards, connectors, rings, battery — must close within
// 1 cm^3.
#pragma once

#include <string>
#include <vector>

#include "board/connector.hpp"
#include "board/pcb.hpp"
#include "common/units.hpp"

namespace pico::board {

// NOTE: the paper quotes a 2.33 mm ring; five boards with 2.33 mm gaps
// plus the battery cannot close inside a literal 1 cm^3 (the E9 bench
// makes this accounting explicit). The default here is the compact ring
// that preserves all three functions while approaching the titular
// volume; pass the paper's 2.33 mm to reproduce the published spacing.
struct SpacerRing {
  Length outer_edge{8e-3};
  Length wall{0.4e-3};
  Length height{1.5e-3};
};

// One level of the stack: a board plus the ring/connector gap above it.
struct StackLevel {
  Pcb pcb;
  SpacerRing ring;  // between this board and the next (unused on the last)
};

struct StackReport {
  bool fits = true;
  std::vector<std::string> violations;
  Length total_height{};
  Volume enclosed_volume{};
  int bus_signals = 0;
  Resistance worst_bus_resistance{};  // bottom-to-top through all contacts
};

class BoardStack {
 public:
  struct Params {
    Length case_inner_edge{10.2e-3};  // close fit around 10 mm boards
    Length case_wall{0.3e-3};
    Length lid_height{0.2e-3};
    // Bottom gap between the case floor and the lowest board — the NiMH
    // cell (epoxied under the storage board) lives here.
    Length base_height{0.6e-3};
    Volume budget{1e-6};  // the titular 1 cm^3
  };

  BoardStack(ElastomericConnector connector, Params p);

  // Boards are added bottom-up.
  void add_level(StackLevel level);
  [[nodiscard]] const std::vector<StackLevel>& levels() const { return levels_; }
  [[nodiscard]] std::size_t num_boards() const { return levels_.size(); }

  // Declare a bus signal on a pad index: every board must expose it there.
  void declare_bus_signal(const std::string& name, int pad_index);

  // Full design-rule check: component clearance under each ring, connector
  // deflection windows, bus continuity, outer volume vs the 1 cm^3 budget.
  [[nodiscard]] StackReport check() const;

  [[nodiscard]] Length stack_height() const;
  [[nodiscard]] Volume outer_volume() const;
  [[nodiscard]] const ElastomericConnector& connector() const { return conn_; }
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  ElastomericConnector conn_;
  Params prm_;
  std::vector<StackLevel> levels_;
  std::vector<std::pair<std::string, int>> bus_;
};

// Factory: the PicoCube v1 assembly — storage, controller, TPMS sensor,
// switch, and radio boards populated with their COTS parts, the 18-signal
// bus mapped, and the battery under the storage board.
BoardStack make_picocube_stack();

}  // namespace pico::board
