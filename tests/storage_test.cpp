// Tests for the energy-storage models (paper §4.4).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "storage/capacitors.hpp"
#include "storage/nimh.hpp"

namespace pico::storage {
namespace {

using namespace pico::literals;

TEST(NiMh, PlateauIsFlat) {
  NiMhBattery b;
  // The paper's rationale: 1.2 V nominal, stable until just before empty.
  b.set_soc(0.8);
  const double v80 = b.open_circuit_voltage().value();
  b.set_soc(0.3);
  const double v30 = b.open_circuit_voltage().value();
  EXPECT_NEAR(v80, 1.28, 0.03);
  EXPECT_NEAR(v30, 1.23, 0.03);
  EXPECT_LT(v80 - v30, 0.08);  // plateau: < 80 mV across half the capacity
  // Knee: voltage collapses below 5 % SoC.
  b.set_soc(0.01);
  EXPECT_LT(b.open_circuit_voltage().value(), 1.1);
}

TEST(NiMh, TerminalVoltageSagsWithLoad) {
  NiMhBattery b;
  const double ocv = b.open_circuit_voltage().value();
  const double loaded = b.terminal_voltage(10_mA).value();
  EXPECT_NEAR(ocv - loaded, 10e-3 * b.params().internal_resistance.value(), 1e-12);
}

TEST(NiMh, ChargeDischargeConservesCharge) {
  NiMhBattery::Params p;
  p.initial_soc = 0.5;
  NiMhBattery b(p);
  const auto r1 = b.transfer(1_mA, 60_s);  // +60 mC
  EXPECT_NEAR(r1.moved.value(), 0.06, 1e-12);
  EXPECT_NEAR(b.soc(), 0.5 + 0.06 / 54.0, 1e-9);
  const auto r2 = b.transfer(Current{-1e-3}, 60_s);
  EXPECT_NEAR(r2.moved.value(), -0.06, 1e-12);
  EXPECT_NEAR(b.soc(), 0.5, 1e-9);
  EXPECT_NEAR(b.throughput().value(), 0.12, 1e-9);
}

TEST(NiMh, DischargeStopsAtEmpty) {
  NiMhBattery::Params p;
  p.initial_soc = 0.001;
  NiMhBattery b(p);
  const auto r = b.transfer(Current{-10e-3}, 3600_s);
  EXPECT_TRUE(r.hit_empty);
  EXPECT_DOUBLE_EQ(b.soc(), 0.0);
  EXPECT_TRUE(b.empty());
}

TEST(NiMh, TrickleOverchargeTurnsToHeat) {
  NiMhBattery::Params p;
  p.initial_soc = 1.0;
  NiMhBattery b(p);
  // C/10 for a 15 mAh cell is 1.5 mA: charging at 1 mA when full is all heat.
  const auto r = b.transfer(1_mA, 3600_s);
  EXPECT_TRUE(r.hit_full);
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
  EXPECT_GT(r.dissipated.value(), 0.0);
  EXPECT_GT(b.overcharge_heat().value(), 0.0);
  EXPECT_NEAR(r.moved.value(), 0.0, 1e-12);
}

TEST(NiMh, TrickleLimitIsCOver10) {
  NiMhBattery b;
  EXPECT_NEAR(b.trickle_limit().in(units::mA), 1.5, 1e-9);
}

TEST(NiMh, SustainedFastChargeIsClipped) {
  NiMhBattery::Params p;
  p.initial_soc = 0.1;
  NiMhBattery b(p);
  // Offer 100 mA (≫ C/2 = 7.5 mA); only C/2 is accepted.
  const auto r = b.transfer(100_mA, 60_s);
  EXPECT_NEAR(r.moved.value(), 7.5e-3 * 60.0, 1e-9);
}

TEST(NiMh, SelfDischargeRate) {
  NiMhBattery::Params p;
  p.initial_soc = 1.0;
  NiMhBattery b(p);
  b.idle(Duration{86400.0});  // one day
  EXPECT_NEAR(b.soc(), 0.99, 1e-6);
}

TEST(NiMh, EnergyDensityMatchesPaperClass) {
  NiMhBattery b;
  // Paper: ~220 J/g for NiMH.
  EXPECT_NEAR(b.energy_density().value() / 1000.0, 220.0, 10.0);  // J/g
}

TEST(NiMh, BurstCurrentShrinksNearEmpty) {
  NiMhBattery b;
  b.set_soc(0.9);
  const double burst_full = b.max_burst_current().value();
  b.set_soc(0.03);
  const double burst_low = b.max_burst_current().value();
  EXPECT_GT(burst_full, burst_low);
}

TEST(NiMh, StoredEnergyLessThanNominalCapacity) {
  NiMhBattery::Params p;
  p.initial_soc = 1.0;
  NiMhBattery b(p);
  EXPECT_GT(b.stored_energy().value(), 0.9 * b.capacity_energy().value());
  EXPECT_LT(b.stored_energy().value(), 1.15 * b.capacity_energy().value());
}

TEST(NiMh, RejectsBadParams) {
  NiMhBattery::Params p;
  p.initial_soc = 1.5;
  EXPECT_THROW(NiMhBattery{p}, pico::DesignError);
}

// ---------------------------------------------------------------------------
// Capacitor stores
// ---------------------------------------------------------------------------

TEST(CapacitorStore, EnergyIsHalfCVSquared) {
  auto cap = make_supercap(Capacitance{1.0}, 2_V);
  cap.set_voltage(2_V);
  EXPECT_NEAR(cap.stored_energy().value(), 2.0, 1e-9);
  EXPECT_NEAR(cap.soc(), 1.0, 1e-12);
}

TEST(CapacitorStore, ChargeIntegratesCorrectly) {
  CapacitorStore::Params p;
  p.capacitance = 1_F;
  p.v_max = 5_V;
  p.esr = Resistance{0.0 + 0.01};
  p.leakage = Current{0.0 + 1e-9};
  p.initial = 1_V;
  p.mass = Mass{1e-3};
  CapacitorStore cap(p);
  cap.transfer(1_A, 1_s);  // dv = 1 V
  EXPECT_NEAR(cap.voltage().value(), 2.0, 1e-12);
}

TEST(CapacitorStore, ClampsAtRatedVoltage) {
  CapacitorStore::Params p;
  p.capacitance = 1_F;
  p.v_max = 2_V;
  p.initial = 1.9_V;
  p.mass = Mass{1e-3};
  CapacitorStore cap(p);
  const auto r = cap.transfer(1_A, 1_s);
  EXPECT_TRUE(r.hit_full);
  EXPECT_DOUBLE_EQ(cap.voltage().value(), 2.0);
  EXPECT_GT(r.dissipated.value(), 0.0);
}

TEST(CapacitorStore, VoltageTracksStateOfCharge) {
  // The paper's objection to capacitors: V is tied to SoC.
  auto cap = make_supercap(Capacitance{0.5}, 2_V);
  cap.set_voltage(2_V);
  cap.transfer(Current{-0.1}, 5_s);  // remove half the charge
  EXPECT_NEAR(cap.voltage().value(), 1.0, 1e-9);
  EXPECT_NEAR(cap.soc(), 0.25, 1e-9);  // energy SoC drops to 25 %
}

TEST(CapacitorStore, UsableEnergyAboveConverterMinimum) {
  auto cap = make_supercap(Capacitance{1.0}, 2_V);
  cap.set_voltage(2_V);
  // Converter needs >= 1 V input: only 3/4 of the stored energy usable.
  EXPECT_NEAR(cap.usable_energy(1_V).value(), 1.5, 1e-9);
  EXPECT_NEAR(cap.stored_energy().value(), 2.0, 1e-9);
}

TEST(CapacitorStore, LeakageDischargesOverTime) {
  CapacitorStore::Params p;
  p.capacitance = Capacitance{100e-6};
  p.v_max = 5_V;
  p.initial = 5_V;
  p.leakage = 1_uA;
  p.mass = Mass{1e-3};
  CapacitorStore cap(p);
  cap.idle(100_s);  // dv = 1uA*100s/100uF = 1 V
  EXPECT_NEAR(cap.voltage().value(), 4.0, 1e-9);
}

TEST(CapacitorStore, DensityOrdering) {
  // Paper's §4.4 table: NiMH 220 J/g >> supercap 10 J/g >> capacitor 2 J/g.
  NiMhBattery nimh;
  auto sc = make_supercap();
  auto cer = make_ceramic_bank();
  const double d_nimh = nimh.energy_density().value() / 1000.0;
  const double d_sc = sc.energy_density().value() / 1000.0;
  const double d_cer = cer.energy_density().value() / 1000.0;
  EXPECT_NEAR(d_nimh, 220.0, 15.0);
  EXPECT_NEAR(d_sc, 10.0, 1.0);
  EXPECT_NEAR(d_cer, 2.0, 0.2);
  EXPECT_GT(d_nimh, d_sc);
  EXPECT_GT(d_sc, d_cer);
}

TEST(CapacitorStore, BurstCurrentBeatsBattery) {
  // The compensating advantage of capacitors (paper: "batteries typically
  // exhibit poor burst current performance relative to capacitors").
  NiMhBattery nimh;
  auto sc = make_supercap(Capacitance{0.22}, 2.5_V);
  sc.set_voltage(2.0_V);
  EXPECT_GT(sc.max_burst_current().value(), nimh.max_burst_current().value());
}

TEST(NiMh, DegradeScalesParametersAndPreservesSoc) {
  NiMhBattery::Params p;
  p.initial_soc = 0.6;
  NiMhBattery cell(p);
  const double e0 = cell.stored_energy().value();
  cell.degrade(0.5, 4.0, 3.0);
  // Proportional active-material loss: SoC unchanged, capacity halved, so
  // stored energy scales by exactly the capacity factor — aging never
  // creates energy.
  EXPECT_DOUBLE_EQ(cell.soc(), 0.6);
  EXPECT_DOUBLE_EQ(cell.capacity().value(), p.capacity.value() * 0.5);
  EXPECT_NEAR(cell.stored_energy().value(), e0 * 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(cell.params().internal_resistance.value(),
                   p.internal_resistance.value() * 4.0);
  EXPECT_DOUBLE_EQ(cell.params().self_discharge_per_day, p.self_discharge_per_day * 3.0);
}

TEST(NiMh, DegradeRejectsBadArguments) {
  NiMhBattery cell;
  EXPECT_THROW(cell.degrade(0.0, 1.0, 1.0), DesignError);   // capacity factor 0
  EXPECT_THROW(cell.degrade(1.5, 1.0, 1.0), DesignError);   // capacity gain
  EXPECT_THROW(cell.degrade(0.5, 0.9, 1.0), DesignError);   // resistance improves
  EXPECT_THROW(cell.degrade(0.5, 1.0, 0.5), DesignError);   // self-discharge improves
  EXPECT_DOUBLE_EQ(cell.capacity().value(), NiMhBattery::Params{}.capacity.value());
}

TEST(NiMh, TransferRejectsNonFiniteRequests) {
  NiMhBattery cell;
  const double nan = std::nan("");
  EXPECT_THROW(cell.transfer(Current{nan}, Duration{1.0}), DesignError);
  EXPECT_THROW(cell.transfer(Current{1e-3}, Duration{nan}), DesignError);
  EXPECT_THROW(cell.idle(Duration{-1.0}), DesignError);
}

TEST(NiMh, DischargePlusSelfDischargeClampsAtEmpty) {
  NiMhBattery::Params p;
  p.initial_soc = 1e-5;
  p.self_discharge_per_day = 10.0;  // aged-cell class leakage
  NiMhBattery cell(p);
  cell.transfer(Current{-10e-3}, Duration{5.0});  // drains past empty
  cell.idle(Duration{1000.0});                    // self-discharge races it
  EXPECT_GE(cell.soc(), 0.0);
  EXPECT_GE(cell.stored_energy().value(), 0.0);
}

}  // namespace
}  // namespace pico::storage
