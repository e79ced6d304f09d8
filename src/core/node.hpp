// node.hpp — the integrated PicoCube node (the paper's system contribution).
//
// Composes the five boards' worth of models — storage, power train (COTS
// v1 or integrated IC v2), MSP430, sensor board (TPMS or accelerometer),
// switch-board sequencing, and the FBAR OOK radio — on one discrete-event
// simulation, with the power accountant integrating every quiescent and
// active microampere back to the NiMH cell.
//
// The firmware is the paper's interrupt-driven loop: deep sleep, wake on
// the sensor event, sample, format, sequence the radio rails up, transmit,
// tear down, sleep. No operating system, exactly one outstanding cycle.
#pragma once

#include <memory>
#include <optional>

#include "circuits/transient.hpp"
#include "core/accountant.hpp"
#include "core/powertrain.hpp"
#include "core/report.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "harvest/harvester.hpp"
#include "mcu/msp430.hpp"
#include "net/basestation.hpp"
#include "net/link.hpp"
#include "power/gating.hpp"
#include "power/rectifier.hpp"
#include "power/rectifier_circuits.hpp"
#include "radio/channel.hpp"
#include "radio/packet.hpp"
#include "radio/transmitter.hpp"
#include "radio/wakeup.hpp"
#include "sensors/accelerometer.hpp"
#include "sensors/stimulus.hpp"
#include "sensors/tpms.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "storage/nimh.hpp"

namespace pico::core {

struct NodeConfig {
  enum class Sensor { kTpms, kAccelerometer };
  enum class PowerVersion { kCots, kIc };

  Sensor sensor = Sensor::kTpms;
  PowerVersion power = PowerVersion::kCots;
  std::uint8_t node_id = 1;

  // TPMS digital-die event timer (the paper's six seconds).
  Duration sample_interval{6.0};
  Frequency data_rate{200e3};

  double battery_initial_soc = 0.8;

  // Physical stimulus: wheel profile for the TPMS node (also drives the
  // shaker when attached), motion script for the accelerometer node.
  std::optional<harvest::SpeedProfile> drive;
  std::optional<sensors::MotionScenario> motion;

  // Attach a harvesting path. The shaker feeds the rectifier front-end;
  // the solar variant ("cladding the outside of the node with solar
  // cells", paper §1) feeds an MPP-tracking charger.
  enum class HarvesterKind { kShaker, kSolar };
  bool attach_harvester = false;
  HarvesterKind harvester = HarvesterKind::kShaker;
  std::optional<harvest::IrradianceProfile> irradiance;
  Duration harvest_update{1.0};  // charging-current refresh window

  // Fidelity of the shaker→rectifier charging-current estimate per window:
  // the behavioral sampling model (default), or the actual MNA rectifier
  // netlist (comparator-switch bridge for the IC train, junction-diode
  // bridge for COTS) solved by circuits::Transient under the adaptive LTE
  // controller that stretches dt through the quiescent stretches between
  // shaker pulses (docs/PERFORMANCE.md).
  enum class HarvestFidelity { kBehavioral, kCircuitAdaptive };
  HarvestFidelity harvest_fidelity = HarvestFidelity::kBehavioral;

  // Fault injection.
  double oscillator_failure_prob = 0.0;
  // Scheduled fault plan (docs/ROBUSTNESS.md): harvester derating, storage
  // aging, converter degradation, channel loss, supply glitches — injected
  // through the event simulator at boot. Empty by default (no faults).
  fault::FaultPlan faults;

  // Component-parameter overrides (tolerance studies / part variation).
  std::optional<mcu::Msp430::Params> mcu_params;
  std::optional<sensors::Sp12Tpms::Params> tpms_params;
  std::optional<power::ChargePumpTps60313::Params> charge_pump_params;

  // Link-layer policy (docs/NETWORKING.md). kBeacon is the paper's §6
  // demo: fire-and-forget, a cycle succeeds when the PA finishes the
  // frame. kArq is the §7.3 architecture: the node's wake-up receiver
  // doubles as an ACK detector, and a cycle succeeds only when the base
  // station confirms delivery — retries and ACK-listen windows are
  // billed to the battery like any other load.
  struct Link {
    enum class Mode { kBeacon, kArq };
    Mode mode = Mode::kBeacon;
    net::ArqParams arq;
    radio::WakeupReceiver::Params wakeup;  // ACK detector (ARQ mode)
    // Stand-alone runs own a base station (default parameters); fleet
    // shared-medium runs attach every node to one external station instead.
    bool own_base_station = false;
    radio::Channel::Params uplink;    // node -> base station
    radio::Channel::Params downlink;  // base station -> wake-up receiver
  };
  Link link;

  std::uint64_t seed = 1;
};

// The shaker harvest front end a config selects, shared by the node, the
// fleet harvest grid and the neutrality analysis: the drive profile
// (cfg.drive, else the city cycle) and the rectifier topology (IC:
// synchronous, COTS: diode bridge).
[[nodiscard]] harvest::SpeedProfile drive_profile(const NodeConfig& cfg);
[[nodiscard]] std::unique_ptr<power::Rectifier> make_rectifier(
    NodeConfig::PowerVersion power);

class PicoCubeNode {
 public:
  // Stand-alone: the node owns its simulator. Pass `shared_sim` to put
  // several nodes (and a base station) on one timeline — the caller then
  // boots each node, runs the shared simulator, and settles each node.
  explicit PicoCubeNode(NodeConfig cfg, sim::Simulator* shared_sim = nullptr);
  PicoCubeNode(const PicoCubeNode&) = delete;
  PicoCubeNode& operator=(const PicoCubeNode&) = delete;

  // Boot the firmware (t = 0 event) and run until `until`.
  void run(Duration until);
  // Shared-timeline pieces of run(): idempotent boot, and the final
  // energy-ledger settle after the caller-driven simulation ends.
  void boot();
  void settle();

  [[nodiscard]] NodeReport report() const;

  // --- Access for benches/examples -----------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::TraceSet& traces() { return traces_; }
  [[nodiscard]] PowerAccountant& accountant() { return accountant_; }
  [[nodiscard]] const PowerAccountant& accountant() const { return accountant_; }
  // Null when the node runs without a fault plan.
  [[nodiscard]] const fault::FaultInjector* fault_injector() const {
    return fault_injector_.get();
  }
  [[nodiscard]] const storage::NiMhBattery& battery() const { return battery_; }
  [[nodiscard]] storage::NiMhBattery& battery() { return battery_; }
  [[nodiscard]] PowerTrain& power_train() { return *train_; }
  [[nodiscard]] mcu::Msp430& cpu() { return *cpu_; }
  [[nodiscard]] radio::FbarOokTransmitter& transmitter() { return *tx_; }
  [[nodiscard]] const radio::PacketCodec& codec() const { return codec_; }
  // Attach the demo receiver (or any observer) to the RF output. These
  // user slots coexist with the base-station medium hooks: the node owns
  // the transmitter's listeners and forwards to both.
  void set_frame_listener(radio::FbarOokTransmitter::FrameListener cb);
  void set_frame_start_listener(radio::FbarOokTransmitter::FrameListener cb);

  // Wire this node's uplink/downlink into an external (shared-medium)
  // base station. Returns the station port. In ARQ mode the station's
  // ACK bursts feed the node's wake-up receiver; in beacon mode frames
  // are only counted. Call before boot().
  int attach_to_base_station(net::BaseStation& bs);

  // Wire every flight-recorder tap this node owns into `recorder`:
  // accountant brownouts and link-layer ARQ give-ups into ring 0 (tagged
  // with `node_id`), fault-window opens into the recorder's storm
  // detector. Call after construction (and after any link layer exists);
  // null detaches.
  void attach_flight(obs::FlightRecorder* recorder, std::uint32_t node_id = 0);

  // Link layer / own base station (null in beacon / external-BS runs).
  [[nodiscard]] net::LinkLayer* link_layer() { return link_.get(); }
  [[nodiscard]] const net::LinkLayer* link_layer() const { return link_.get(); }
  [[nodiscard]] net::BaseStation* base_station() { return bs_.get(); }
  [[nodiscard]] const net::BaseStation* base_station() const { return bs_.get(); }

  [[nodiscard]] std::uint64_t wake_cycles() const { return wake_cycles_; }
  [[nodiscard]] std::uint64_t frames_ok() const { return frames_ok_; }
  [[nodiscard]] std::uint64_t frames_failed() const { return frames_failed_; }
  // Duration of the most recent complete sample/format/transmit cycle.
  [[nodiscard]] Duration last_cycle_time() const { return Duration{last_cycle_s_}; }
  [[nodiscard]] const NodeConfig& config() const { return cfg_; }
  [[nodiscard]] const sensors::TireEnvironment* tire_environment() const {
    return tire_env_ ? tire_env_.get() : nullptr;
  }

  // Publish this node's totals into a registry: simulator counters
  // ("sim.*"), power-accountant counters ("power.*"), firmware-level
  // counters ("node.wake_cycles", "node.frames_ok", "node.frames_failed")
  // and, for circuit-level harvest, the transient engine's ("transient.*").
  // Reads the node only, so it may be called into any number of
  // registries at any point; counters accumulate across nodes sharing a
  // registry (e.g. Monte Carlo trials).
  void publish_metrics(obs::MetricsRegistry& m) const;

 private:
  void on_interrupt();
  void tpms_cycle();
  void motion_cycle();
  // Transmits the frame staged in frame_buf_.
  void radio_send();
  void finish_cycle(bool tx_ok);
  void update_harvest();
  // Build the MNA rectifier netlist + transient engine on first use
  // (circuit-level harvest fidelities only).
  void ensure_harvest_circuit();

  NodeConfig cfg_;
  // Owned timeline for stand-alone runs; null when the node rides a
  // shared simulator (fleet shared-medium mode). `sim_` is the one the
  // node actually runs on either way.
  std::unique_ptr<sim::Simulator> owned_sim_;
  sim::Simulator& sim_;
  sim::TraceSet traces_;

  // Stimuli.
  std::unique_ptr<sensors::TireEnvironment> tire_env_;
  std::unique_ptr<sensors::MotionScenario> motion_;

  // Electrical chain.
  storage::NiMhBattery battery_;
  std::unique_ptr<PowerTrain> train_;
  PowerAccountant accountant_;

  // Boards.
  std::unique_ptr<mcu::Msp430> cpu_;
  std::unique_ptr<sensors::Sp12Tpms> tpms_;
  std::unique_ptr<sensors::Sca3000> accel_;
  std::unique_ptr<radio::FbarOokTransmitter> tx_;
  power::RadioRailSequencer sequencer_;
  radio::PacketCodec codec_;

  // Link layer (ARQ mode) and optional private base station.
  std::unique_ptr<net::LinkLayer> link_;
  std::unique_ptr<net::BaseStation> bs_;
  // Medium hooks installed by attach_to_base_station; the transmitter's
  // listeners forward to these plus the user slots below.
  radio::FbarOokTransmitter::FrameListener medium_started_;
  radio::FbarOokTransmitter::FrameListener medium_completed_;
  radio::FbarOokTransmitter::FrameListener user_frame_listener_;
  radio::FbarOokTransmitter::FrameListener user_frame_start_listener_;

  // Harvest path.
  std::unique_ptr<harvest::ElectromagneticShaker> shaker_;
  std::unique_ptr<power::Rectifier> rectifier_;
  std::unique_ptr<harvest::SolarCell> solar_;
  // Circuit-level harvest fidelity: persistent netlist + engine so the LU
  // caches and the adaptive controller's state survive across windows.
  power::RectifierCircuit harvest_rc_;
  std::unique_ptr<circuits::Transient> harvest_tr_;
  double harvest_i_prev_ = 0.0;  // battery branch current at the last accepted step
  // Behavioral estimator work (published as harvest.*): rectify windows,
  // those that evaluated no sample, samples evaluated, and samples whose
  // speed profile was looked up.
  std::uint64_t harvest_windows_ = 0;
  std::uint64_t harvest_windows_skipped_ = 0;
  std::uint64_t harvest_samples_ = 0;
  std::uint64_t harvest_visited_ = 0;

  // Fault injection (armed at boot when cfg_.faults is non-empty).
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  double harvest_derate_ = 1.0;  // combined harvester amplitude factor

  // Flight-recorder attachment, remembered so a pre-boot attach_flight
  // still reaches the boot-created fault injector.
  obs::FlightRecorder* flight_recorder_ = nullptr;
  std::uint32_t flight_node_id_ = 0;

  // Device ledger handles.
  DeviceId dev_mcu_ = 0;
  DeviceId dev_sensor_ = 0;
  DeviceId dev_radio_rf_ = 0;
  DeviceId dev_radio_dig_ = 0;
  DeviceId dev_fault_ = 0;  // supply-glitch parasitic load (faulted runs only)
  DeviceId dev_wakeup_ = 0;  // ACK-listen window draw (ARQ mode only)

  // Firmware state. The sample/packet/frame staging buffers are members so
  // a steady-state wake cycle reuses their capacity instead of allocating:
  // the firmware has exactly one outstanding cycle, so one set suffices.
  sensors::TpmsSample pending_sample_{};
  sensors::AccelSample pending_accel_{};
  radio::Packet pkt_;
  std::vector<std::uint8_t> frame_buf_;
  bool cycle_busy_ = false;
  std::uint64_t wake_cycles_ = 0;
  std::uint64_t frames_ok_ = 0;
  std::uint64_t frames_failed_ = 0;
  std::uint8_t seq_ = 0;
  double cycle_start_s_ = 0.0;
  double last_cycle_s_ = 0.0;
  bool booted_ = false;
};

}  // namespace pico::core
