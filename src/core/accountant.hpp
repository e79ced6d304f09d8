// accountant.hpp — the node's energy ledger.
//
// Devices (MCU, sensor, radio RF/digital) report their instantaneous rail
// currents whenever their state changes; between events everything is
// piecewise constant, so the accountant integrates battery energy exactly
// and records the Fig 6-style power profile. Rail currents are mapped to
// battery current through the active PowerTrain — which is how quiescent
// and conversion losses dominate the ledger, exactly as in the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/powertrain.hpp"
#include "core/rails.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "storage/nimh.hpp"

namespace pico::obs {
class MetricsRegistry;
class FlightRing;
}

namespace pico::core {

using DeviceId = std::size_t;

struct DeviceLedger {
  std::string name;
  RailId rail{};
  Current current{};     // present draw
  double energy_j = 0.0; // rail-referred energy consumed
};

class PowerAccountant {
 public:
  PowerAccountant(sim::Simulator& simulator, storage::NiMhBattery& battery,
                  PowerTrain& train, sim::TraceSet& traces);
  PowerAccountant(const PowerAccountant&) = delete;
  PowerAccountant& operator=(const PowerAccountant&) = delete;

  DeviceId add_device(std::string name, RailId rail);
  // Device state change: integrates the elapsed interval at the previous
  // currents, then applies the new value.
  void set_current(DeviceId dev, Current i);
  // Radio gating must flow through the accountant so the quiescent change
  // is integrated at the right instant.
  void set_radio_powered(bool on);
  // Harvester charging current into the battery (set by the integrator).
  void set_harvest_current(Current i);
  // Converter-degradation fault hook: every battery-current draw is scaled
  // by `multiplier` (>= 1; 1 / combined efficiency factor). Integrates the
  // elapsed interval at the previous derating before applying the new one.
  void set_converter_derate(double multiplier);
  [[nodiscard]] double converter_derate() const { return converter_derate_; }

  // Integrate up to `now` (called internally; call once at end of run).
  void settle();

  // Invoked once, the first time the battery runs dry mid-integration —
  // the node uses it to brown out (drop all supplies).
  void set_empty_callback(std::function<void()> cb) { on_empty_ = std::move(cb); }
  [[nodiscard]] bool battery_died() const { return empty_signaled_; }

  // Waveform recording on/off (on by default). Nodes the library builds and
  // throws away disable it: core::FleetAnalysis::run, the calibration runs
  // in fleet::CycleProfile::calibrate and
  // core::NeutralityAnalysis::average_node_power. Recording eight channels
  // per device event is the accountant's main time and memory cost, and
  // nobody reads those waveforms. Energy integration is unaffected; the
  // channels keep the one sample taken at construction.
  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }

  // --- Queries ---------------------------------------------------------------
  [[nodiscard]] Current battery_draw() const;
  [[nodiscard]] Power battery_power() const;
  [[nodiscard]] Voltage rail_voltage(RailId r) const;
  [[nodiscard]] const std::vector<DeviceLedger>& devices() const { return devices_; }
  [[nodiscard]] Energy battery_energy_out() const { return Energy{energy_out_}; }
  [[nodiscard]] Energy harvested_energy_in() const { return Energy{energy_in_}; }
  // Battery energy not attributable to any device: the management tax.
  [[nodiscard]] Energy management_overhead() const;
  [[nodiscard]] const RailLoads& loads() const { return loads_; }

  // --- Observability ---------------------------------------------------------
  // Number of non-empty piecewise-constant intervals integrated so far.
  [[nodiscard]] std::uint64_t integration_intervals() const { return intervals_; }
  // 0 or 1 (the empty callback latches; a node browns out at most once).
  [[nodiscard]] std::uint64_t brownout_events() const { return brownouts_; }
  // Publish counters into `m` under "<prefix>.": integration_intervals,
  // brownout_events, energy_out_j, energy_in_j. Call once at end of run;
  // counters accumulate across accountants sharing a registry. No-op when
  // observability is compiled out.
  void publish_metrics(obs::MetricsRegistry& m, const std::string& prefix = "power") const;
  // Flight-recorder tap: a kBrownout event (a = `node_id`, v = net energy
  // deficit [J]) is pushed the instant the battery-empty latch fires.
  // Null detaches. No-op when observability is compiled out.
  void set_flight(obs::FlightRing* ring, std::uint32_t node_id) {
    flight_ = ring;
    flight_node_ = node_id;
  }

 private:
  void integrate_to_now();
  void record();

  sim::Simulator& sim_;
  storage::NiMhBattery& battery_;
  PowerTrain& train_;
  sim::TraceSet& traces_;
  // Channel handles resolved once at construction: record() runs on every
  // device state change, and per-call string lookups were the fleet step
  // path's dominant heap-allocation source.
  sim::Trace* tr_p_node_ = nullptr;
  sim::Trace* tr_i_batt_ = nullptr;
  sim::Trace* tr_i_harvest_ = nullptr;
  sim::Trace* tr_v_batt_ = nullptr;
  sim::Trace* tr_soc_ = nullptr;
  sim::Trace* tr_p_mcu_ = nullptr;
  sim::Trace* tr_p_radio_rf_ = nullptr;
  sim::Trace* tr_p_radio_dig_ = nullptr;
  bool recording_ = true;
  std::vector<DeviceLedger> devices_;
  RailLoads loads_{};
  Current harvest_{};
  double converter_derate_ = 1.0;
  double last_time_ = 0.0;
  double energy_out_ = 0.0;
  double energy_in_ = 0.0;
  std::function<void()> on_empty_;
  bool empty_signaled_ = false;
  std::uint64_t intervals_ = 0;
  std::uint64_t brownouts_ = 0;
  obs::FlightRing* flight_ = nullptr;
  std::uint32_t flight_node_ = 0;
};

}  // namespace pico::core
