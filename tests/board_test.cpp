// Tests for the packaging/geometry library.
#include <gtest/gtest.h>

#include "board/connector.hpp"
#include "board/geometry.hpp"
#include "board/pcb.hpp"
#include "board/stack.hpp"
#include "common/error.hpp"

namespace pico::board {
namespace {

using namespace pico::literals;

TEST(Rect, BasicsAndOverlap) {
  const auto a = Rect::centered({0.0, 0.0}, 2_mm, 2_mm);
  EXPECT_NEAR(a.area().value(), 4e-6, 1e-12);
  const auto b = Rect::centered({0.0015, 0.0}, 2_mm, 2_mm);
  EXPECT_TRUE(a.overlaps(b));
  const auto c = Rect::centered({0.0030, 0.0}, 1_mm, 1_mm);
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.contains(Rect::centered({0.0, 0.0}, 1_mm, 1_mm)));
}

TEST(Rect, InsetAndValidity) {
  const auto a = Rect::centered({0.0, 0.0}, 10_mm, 10_mm);
  const auto in = a.inset(1.4_mm);
  EXPECT_NEAR(in.width().value(), 7.2e-3, 1e-12);
  EXPECT_TRUE(in.valid());
  EXPECT_FALSE(a.inset(6_mm).valid());
}

TEST(Connector, WiresPerPad) {
  ElastomericConnector conn;
  // The paper's standard 1.0 mm pad at 0.1 mm pitch: 10 wires.
  EXPECT_EQ(conn.wires_per_pad(1_mm), 10);
  EXPECT_EQ(conn.wires_per_pad(Length{0.35e-3}), 3);
}

TEST(Connector, PadResistanceAndCurrent) {
  ElastomericConnector conn;
  EXPECT_NEAR(conn.pad_resistance(1_mm).value(), 0.01, 1e-6);  // 0.1 Ohm / 10
  EXPECT_NEAR(conn.pad_current_limit(1_mm).value(), 1.0, 1e-9);
  // Smaller pads: fewer wires, more resistance — still milliohms.
  EXPECT_GT(conn.pad_resistance(Length{0.35e-3}).value(),
            conn.pad_resistance(1_mm).value());
}

TEST(Connector, DeflectionWindow) {
  ElastomericConnector conn;  // free height 1.7 mm, window 5..25 %
  EXPECT_TRUE(conn.deflection_ok(1.5_mm));
  EXPECT_FALSE(conn.deflection_ok(1.68_mm));  // under-compressed (1.2 %)
  EXPECT_FALSE(conn.deflection_ok(1.2_mm));   // over-compressed (29 %)
  EXPECT_THROW((void)conn.deflection_at_gap(1.68_mm), pico::DesignError);
  EXPECT_NEAR(conn.deflection_at_gap(1.5_mm), 1.0 - 1.5 / 1.7, 1e-9);
}

TEST(Connector, DeformationBulge) {
  ElastomericConnector conn;
  // Elastomers deform, not compress: the deformed width exceeds the beam.
  EXPECT_GT(conn.deformed_width(1.5_mm).value(), conn.params().beam_width.value());
}

TEST(Pcb, PlacementAreaIs7p2mm) {
  Pcb pcb("test");
  EXPECT_NEAR(pcb.placement_area().width().value(), 7.2e-3, 1e-9);
  EXPECT_NEAR(pcb.placement_area().height().value(), 7.2e-3, 1e-9);
}

TEST(Pcb, PadRingHas72Pads) {
  Pcb pcb("test");
  EXPECT_EQ(pcb.total_pads(), 72);
  EXPECT_EQ(pcb.pads().size(), 72u);
  // Pads live in the connector margin, not the placement area.
  for (const auto& pad : pcb.pads()) {
    EXPECT_FALSE(pcb.placement_area().overlaps(pad.shape))
        << "pad " << pad.index << " intrudes into the placement area";
    EXPECT_TRUE(pcb.outline().contains(pad.shape));
  }
}

TEST(Pcb, PlacementRules) {
  Pcb pcb("test");
  Component ok;
  ok.name = "chip";
  ok.footprint = Rect::centered({0.0, 0.0}, 5_mm, 5_mm);
  pcb.place(ok);

  Component overlap = ok;
  overlap.name = "chip2";
  EXPECT_FALSE(pcb.can_place(overlap));
  EXPECT_THROW(pcb.place(overlap), pico::DesignError);

  // Same footprint on the other side is fine.
  overlap.side = Side::kBottom;
  EXPECT_TRUE(pcb.can_place(overlap));

  Component outside;
  outside.name = "big";
  outside.footprint = Rect::centered({0.0, 0.0}, 8_mm, 8_mm);
  EXPECT_FALSE(pcb.can_place(outside));
}

TEST(Pcb, Sca3000BarelyFits) {
  // The paper: the 7x7 mm accelerometer "just barely fits within the
  // placement boundary".
  Pcb pcb("accel sensor");
  Component sca;
  sca.name = "SCA3000";
  sca.footprint = Rect::centered({0.0, 0.0}, 7_mm, 7_mm);
  EXPECT_TRUE(pcb.can_place(sca));
  Component too_big = sca;
  too_big.footprint = Rect::centered({0.0, 0.0}, 7.3_mm, 7.3_mm);
  EXPECT_FALSE(pcb.can_place(too_big));
}

TEST(Pcb, SignalAssignment) {
  Pcb pcb("test");
  pcb.assign_signal(0, "VBATT");
  pcb.assign_signal(5, "SPI_CLK");
  EXPECT_EQ(pcb.pad_of_signal("VBATT"), 0);
  EXPECT_EQ(pcb.pad_of_signal("SPI_CLK"), 5);
  EXPECT_FALSE(pcb.pad_of_signal("nope").has_value());
  EXPECT_THROW(pcb.assign_signal(9, "VBATT"), pico::DesignError);  // duplicate
  EXPECT_THROW(pcb.assign_signal(99, "X"), pico::DesignError);     // out of range
}

TEST(Pcb, UtilizationAndHeights) {
  Pcb pcb("test");
  Component c;
  c.name = "half";
  c.footprint = Rect::centered({0.0, 0.0}, 7.2_mm, 3.6_mm);
  c.height = Length{1.2e-3};
  pcb.place(c);
  EXPECT_NEAR(pcb.utilization(Side::kTop), 0.5, 1e-9);
  EXPECT_NEAR(pcb.max_component_height(Side::kTop).value(), 1.2e-3, 1e-12);
  EXPECT_DOUBLE_EQ(pcb.max_component_height(Side::kBottom).value(), 0.0);
}

TEST(Stack, PicocubeAssemblyPassesChecks) {
  const auto stack = make_picocube_stack();
  EXPECT_EQ(stack.num_boards(), 5u);
  const auto rep = stack.check();
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.fits);
  EXPECT_EQ(rep.bus_signals, 18);
  // Bus resistance through four connector crossings: well under an ohm.
  EXPECT_LT(rep.worst_bus_resistance.value(), 1.0);
  EXPECT_GT(rep.total_height.value(), 5e-3);
}

TEST(Stack, StrictOneCubicCentimeterDoesNotClose) {
  // Reproduction finding: with five 10 mm boards, connector gaps, and the
  // battery, the literal 1.000 cm^3 budget cannot be met — the "1 cm^3"
  // of the title is a nominal class. (See DESIGN.md.)
  const auto stack = make_picocube_stack();
  EXPECT_GT(stack.outer_volume().value(), 1.0e-6);
  EXPECT_LT(stack.outer_volume().value(), 1.6e-6);  // but it is close
}

TEST(Stack, PaperQuoted233mmRingsBustTheVolume) {
  // With the paper's quoted 2.33 mm rings the stack grows well past even
  // the relaxed envelope (and the default connector no longer spans the
  // gap, which the checks catch).
  BoardStack stack{ElastomericConnector{}, BoardStack::Params{}};
  SpacerRing big;
  big.height = Length{2.33e-3};
  for (int i = 0; i < 5; ++i) {
    stack.add_level({Pcb("b" + std::to_string(i)), big});
  }
  const auto rep = stack.check();
  EXPECT_FALSE(rep.fits);
}

TEST(Stack, DetectsTallComponentCollision) {
  BoardStack stack{ElastomericConnector{}, BoardStack::Params{}};
  Pcb lower("lower");
  Component tall;
  tall.name = "tower";
  tall.footprint = Rect::centered({0.0, 0.0}, 2_mm, 2_mm);
  tall.height = Length{1.4e-3};
  lower.place(tall);
  SpacerRing ring;  // 1.5 mm gap
  stack.add_level({std::move(lower), ring});
  Pcb upper("upper");
  Component under;
  under.name = "under";
  under.footprint = Rect::centered({0.0, 0.0}, 2_mm, 2_mm);
  under.side = Side::kBottom;
  under.height = Length{0.3e-3};
  upper.place(under);
  stack.add_level({std::move(upper), ring});
  const auto rep = stack.check();
  EXPECT_FALSE(rep.fits);
  ASSERT_FALSE(rep.violations.empty());
}

TEST(Stack, DetectsBusDiscontinuity) {
  BoardStack stack{ElastomericConnector{}, BoardStack::Params{}};
  Pcb a("a"), b("b");
  a.assign_signal(0, "VBATT");
  b.assign_signal(1, "VBATT");  // mismatched pad
  SpacerRing ring;
  stack.add_level({std::move(a), ring});
  stack.add_level({std::move(b), ring});
  stack.declare_bus_signal("VBATT", 0);
  const auto rep = stack.check();
  EXPECT_FALSE(rep.fits);
}

TEST(Stack, BatteryMustClearBaseGap) {
  BoardStack::Params p;
  p.base_height = Length{1.0e-3};  // too shallow for the cell
  BoardStack stack{ElastomericConnector{}, p};
  Pcb storage("storage");
  Component cell;
  cell.name = "NiMH";
  cell.footprint = Rect::centered({0.0, 0.0}, 6.8_mm, 6.8_mm);
  cell.side = Side::kBottom;
  cell.height = Length{2.2e-3};
  storage.place(cell);
  stack.add_level({std::move(storage), SpacerRing{}});
  const auto rep = stack.check();
  EXPECT_FALSE(rep.fits);
}

}  // namespace
}  // namespace pico::board
