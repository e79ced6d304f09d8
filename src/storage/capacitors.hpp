// capacitors.hpp — capacitor-based storage buffers (paper §4.4).
//
// Capacitors deliver bursts well but their terminal voltage tracks state
// of charge directly — the inconvenience the paper calls out, since a
// DC-DC stage then needs a wide input range. `usable_energy()` quantifies
// that: only the energy above the converter's minimum input voltage is
// reachable. Energy density is ~10 J/g for supercapacitors and ~2 J/g for
// ceramics vs 220 J/g for NiMH (paper's numbers, reproduced in bench E3).
#pragma once

#include "storage/store.hpp"

namespace pico::storage {

// Shared implementation for both capacitor classes.
class CapacitorStore : public EnergyStore {
 public:
  struct Params {
    Capacitance capacitance{0.1};
    Voltage v_max{2.5};
    Resistance esr{0.05};
    Current leakage{1e-6};
    Voltage initial{0.0};
    Mass mass{1e-3};
    std::string label = "capacitor";
  };

  explicit CapacitorStore(Params p);

  [[nodiscard]] std::string name() const override { return prm_.label; }
  [[nodiscard]] Voltage open_circuit_voltage() const override { return Voltage{v_}; }
  [[nodiscard]] Voltage terminal_voltage(Current discharge) const override;
  TransferResult transfer(Current i, Duration dt) override;
  [[nodiscard]] Energy stored_energy() const override;
  [[nodiscard]] Energy capacity_energy() const override;
  [[nodiscard]] double soc() const override;
  [[nodiscard]] Current max_burst_current() const override;
  [[nodiscard]] Mass mass() const override { return prm_.mass; }
  Energy idle(Duration dt) override;

  // Energy recoverable above a converter's minimum input voltage.
  [[nodiscard]] Energy usable_energy(Voltage v_min) const;
  [[nodiscard]] Voltage voltage() const { return Voltage{v_}; }
  void set_voltage(Voltage v);
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  Params prm_;
  double v_;
};

// A supercapacitor sized for sensor-node buffering (~10 J/g at rated V).
CapacitorStore make_supercap(Capacitance c = Capacitance{0.22}, Voltage v_max = Voltage{2.5});

// A ceramic/film bulk capacitor bank (~2 J/g at rated V).
CapacitorStore make_ceramic_bank(Capacitance c = Capacitance{100e-6},
                                 Voltage v_max = Voltage{6.3});

}  // namespace pico::storage
