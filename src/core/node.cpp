#include "core/node.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace pico::core {

namespace {
using namespace pico::literals;

// Firmware packetization compute between the sensor readout and the radio.
constexpr Duration kFormatTime{3.5e-3};
// Solar charger: MPP tracker + boost stage efficiency.
constexpr double kMppEfficiency = 0.85;

std::unique_ptr<PowerTrain> make_train(const NodeConfig& cfg) {
  if (cfg.power == NodeConfig::PowerVersion::kIc) return std::make_unique<IcPowerTrain>();
  CotsPowerTrain::Params p;
  if (cfg.charge_pump_params.has_value()) p.charge_pump = *cfg.charge_pump_params;
  return std::make_unique<CotsPowerTrain>(p);
}
}  // namespace

harvest::SpeedProfile drive_profile(const NodeConfig& cfg) {
  return cfg.drive.has_value() ? *cfg.drive : harvest::make_city_cycle();
}

std::unique_ptr<power::Rectifier> make_rectifier(NodeConfig::PowerVersion power) {
  if (power == NodeConfig::PowerVersion::kIc) {
    return std::make_unique<power::SynchronousRectifier>();
  }
  return std::make_unique<power::DiodeBridgeRectifier>();
}

PicoCubeNode::PicoCubeNode(NodeConfig cfg, sim::Simulator* shared_sim)
    : cfg_(std::move(cfg)),
      owned_sim_(shared_sim ? nullptr : std::make_unique<sim::Simulator>()),
      sim_(shared_sim ? *shared_sim : *owned_sim_),
      battery_([&] {
        storage::NiMhBattery::Params bp;
        bp.initial_soc = cfg_.battery_initial_soc;
        return storage::NiMhBattery(bp);
      }()),
      train_(make_train(cfg_)),
      accountant_(sim_, battery_, *train_, traces_),
      sequencer_(sim_) {
  // Stimuli.
  if (cfg_.sensor == NodeConfig::Sensor::kTpms || cfg_.attach_harvester) {
    const harvest::SpeedProfile profile = drive_profile(cfg_);
    tire_env_ = std::make_unique<sensors::TireEnvironment>(profile);
    if (cfg_.attach_harvester &&
        cfg_.harvester == NodeConfig::HarvesterKind::kShaker) {
      shaker_ = std::make_unique<harvest::ElectromagneticShaker>(profile);
      rectifier_ = make_rectifier(cfg_.power);
    }
  }
  if (cfg_.attach_harvester && cfg_.harvester == NodeConfig::HarvesterKind::kSolar) {
    solar_ = std::make_unique<harvest::SolarCell>(
        cfg_.irradiance.has_value() ? *cfg_.irradiance : harvest::IrradianceProfile{});
  }
  if (cfg_.sensor == NodeConfig::Sensor::kAccelerometer) {
    motion_ = std::make_unique<sensors::MotionScenario>(
        cfg_.motion.has_value() ? *cfg_.motion : sensors::MotionScenario::retreat_demo());
  }

  // Devices + ledger.
  dev_mcu_ = accountant_.add_device("MSP430", RailId::kVddMcu);
  dev_sensor_ = accountant_.add_device(
      cfg_.sensor == NodeConfig::Sensor::kTpms ? "SP12 TPMS" : "SCA3000", RailId::kVddMcu);
  dev_radio_rf_ = accountant_.add_device("radio RF (PA+osc)", RailId::kVddRadioRf);
  dev_radio_dig_ = accountant_.add_device("radio digital", RailId::kVddRadioDigital);
  if (!cfg_.faults.empty()) {
    dev_fault_ = accountant_.add_device("fault glitch", RailId::kVddMcu);
  }

  cpu_ = cfg_.mcu_params.has_value()
             ? std::make_unique<mcu::Msp430>(sim_, *cfg_.mcu_params)
             : std::make_unique<mcu::Msp430>(sim_);
  cpu_->set_current_listener(
      [this](Current i) { accountant_.set_current(dev_mcu_, i); });

  if (cfg_.sensor == NodeConfig::Sensor::kTpms) {
    sensors::Sp12Tpms::Params sp =
        cfg_.tpms_params.has_value() ? *cfg_.tpms_params : sensors::Sp12Tpms::Params{};
    sp.event_interval = cfg_.sample_interval;
    tpms_ = std::make_unique<sensors::Sp12Tpms>(sim_, *tire_env_, sp);
    tpms_->set_current_listener(
        [this](Current i) { accountant_.set_current(dev_sensor_, i); });
  } else {
    sensors::Sca3000::Params ap;
    // The IC's 2.1 V rail sits below the stock SCA3000 minimum; the demo
    // build uses the low-voltage variant.
    ap.vdd_min = Voltage{2.0};
    accel_ = std::make_unique<sensors::Sca3000>(sim_, *motion_, ap);
    accel_->set_current_listener(
        [this](Current i) { accountant_.set_current(dev_sensor_, i); });
  }

  radio::FbarOscillator::Params op;
  op.startup_failure_prob = cfg_.oscillator_failure_prob;
  radio::FbarOscillator osc{radio::FbarResonator{}, op};
  tx_ = std::make_unique<radio::FbarOokTransmitter>(sim_, osc);
  tx_->reseed_faults(cfg_.seed ^ 0x9E3779B97F4A7C15ULL);
  tx_->set_current_listener([this](Current rf, Current dig) {
    accountant_.set_current(dev_radio_rf_, rf);
    accountant_.set_current(dev_radio_dig_, dig);
  });
  // The node owns the transmitter's frame listeners and fans out to the
  // medium hooks (base-station port) and the user observer slots.
  tx_->set_frame_listener([this](const radio::RfFrame& f) {
    if (medium_completed_) medium_completed_(f);
    if (user_frame_listener_) user_frame_listener_(f);
  });
  tx_->set_frame_start_listener([this](const radio::RfFrame& f) {
    if (medium_started_) medium_started_(f);
    if (user_frame_start_listener_) user_frame_start_listener_(f);
  });

  if (cfg_.link.mode == NodeConfig::Link::Mode::kArq) {
    dev_wakeup_ = accountant_.add_device("wake-up RX (ACK)", RailId::kVddMcu);
    radio::WakeupReceiver detector{cfg_.link.wakeup, cfg_.seed ^ 0x57A7EULL};
    link_ = std::make_unique<net::LinkLayer>(sim_, *tx_, std::move(detector),
                                             cfg_.link.arq, cfg_.seed ^ 0xA11CEULL);
    link_->set_listen_bill([this](bool on) {
      // The wake-up receiver draws its listen power from the MCU rail
      // exactly while the ACK window is open.
      const double v = accountant_.rail_voltage(RailId::kVddMcu).value();
      const double amps =
          on && v > 0.0 ? cfg_.link.wakeup.listen_power.value() / v : 0.0;
      accountant_.set_current(dev_wakeup_, Current{amps});
    });
  }
  // A station of one's own works in either link mode: beacon nodes get
  // delivery (and energy-per-delivered-bit) measured, ARQ nodes also get
  // the ACK loop closed.
  if (cfg_.link.own_base_station) {
    bs_ = std::make_unique<net::BaseStation>(sim_, net::BaseStation::Params{});
    attach_to_base_station(*bs_);
  }
}

void PicoCubeNode::set_frame_listener(radio::FbarOokTransmitter::FrameListener cb) {
  user_frame_listener_ = std::move(cb);
}

void PicoCubeNode::set_frame_start_listener(radio::FbarOokTransmitter::FrameListener cb) {
  user_frame_start_listener_ = std::move(cb);
}

int PicoCubeNode::attach_to_base_station(net::BaseStation& bs) {
  radio::Channel uplink{radio::PatchAntenna{}, cfg_.link.uplink,
                        cfg_.seed ^ 0x0B1ULL};
  radio::Channel downlink{radio::PatchAntenna{}, cfg_.link.downlink,
                          cfg_.seed ^ 0x0B2ULL};
  net::BaseStation::AckSink sink;
  if (link_) {
    sink = [this](double rx_dbm) { link_->deliver_ack(rx_dbm); };
  }
  const int port = bs.attach_node(std::move(uplink), std::move(downlink),
                                  std::move(sink));
  medium_started_ = [&bs, port](const radio::RfFrame& f) {
    bs.frame_started(port, f);
  };
  medium_completed_ = [&bs, port](const radio::RfFrame& f) {
    bs.frame_completed(port, f);
  };
  return port;
}

void PicoCubeNode::boot() {
  if (booted_) return;
  booted_ = true;
  // A dead cell browns the whole node out: every supply collapses and the
  // event machinery goes quiet (device callbacks check powered()).
  accountant_.set_empty_callback([this] {
    cpu_->set_supply(Voltage{0.0});
    if (tpms_) tpms_->set_supply(Voltage{0.0});
    if (accel_) accel_->set_supply(Voltage{0.0});
    tx_->set_rf_rail(Voltage{0.0});
    tx_->set_digital_rail(Voltage{0.0});
    sequencer_.power_down();
    // A glitch load is a short across the collapsed rail: no rail, no draw.
    if (!cfg_.faults.empty()) accountant_.set_current(dev_fault_, Current{0.0});
    // An open ACK-listen window dies with its rail.
    if (link_) accountant_.set_current(dev_wakeup_, Current{0.0});
  });
  // Bring up the always-on rail and let the firmware configure itself.
  const Voltage v_mcu = accountant_.rail_voltage(RailId::kVddMcu);
  cpu_->set_supply(v_mcu);
  cpu_->set_interrupt_handler([this] { on_interrupt(); });
  if (tpms_) {
    tpms_->set_supply(v_mcu);
    tpms_->start(*cpu_);
  }
  if (accel_) {
    accel_->set_supply(v_mcu);
    accel_->enter_motion_detect(*cpu_);
  }
  // Boot code done: drop to deep sleep.
  cpu_->run_for(2_ms, [this] { cpu_->sleep(mcu::PowerState::kLpm3); });

  if ((shaker_ && rectifier_) || solar_) {
    sim_.every(cfg_.harvest_update, [this] { update_harvest(); });
    update_harvest();
  }

  if (!cfg_.faults.empty()) {
    fault::FaultHooks hooks;
    hooks.set_harvest_derate = [this](double factor) {
      harvest_derate_ = factor;
      // Re-estimate immediately so the derate takes effect mid-window —
      // except at circuit fidelity, where re-running would advance the
      // transient engine past the periodic tick; there the new factor
      // applies from the next window.
      const bool circuit =
          cfg_.harvest_fidelity != NodeConfig::HarvestFidelity::kBehavioral && !solar_;
      if (((shaker_ && rectifier_) || solar_) && !circuit) update_harvest();
    };
    hooks.age_storage = [this](double cap, double res, double sd) {
      battery_.degrade(cap, res, sd);
    };
    hooks.set_converter_derate = [this](double mult) {
      accountant_.set_converter_derate(mult);
    };
    hooks.set_frame_loss = [this](double p) { tx_->set_frame_loss(p); };
    hooks.set_glitch_load = [this](double amps) {
      // Post-brownout the rail is gone; a glitch cannot load it.
      if (accountant_.battery_died()) return;
      accountant_.set_current(dev_fault_, Current{amps});
    };
    fault_injector_ =
        std::make_unique<fault::FaultInjector>(sim_, cfg_.faults, std::move(hooks));
    fault_injector_->arm();
    // Re-apply a pre-boot flight attachment (the injector did not exist yet).
    if (flight_recorder_ != nullptr) fault_injector_->set_flight(flight_recorder_);
  }
}

void PicoCubeNode::ensure_harvest_circuit() {
  if (harvest_tr_) return;
  // The IC train's synchronous rectifier maps onto the comparator-switch
  // bridge (linear time-invariant: the adaptive engine's dt-ladder LU cache
  // engages); the COTS diode bridge uses the junction-diode netlist and the
  // Newton path.
  if (cfg_.power == NodeConfig::PowerVersion::kIc) {
    const auto* sync = dynamic_cast<const power::SynchronousRectifier*>(rectifier_.get());
    const Resistance r_on = sync ? sync->params().r_on : Resistance{2.0};
    harvest_rc_ = power::build_sync_rectifier_circuit(*shaker_,
                                                      battery_.open_circuit_voltage(), r_on);
  } else {
    harvest_rc_ =
        power::build_bridge_rectifier_circuit(*shaker_, battery_.open_circuit_voltage());
  }
  circuits::Transient::Options opt;
  opt.adaptive = true;
  opt.dt = 2e-5;      // restart size at discontinuities
  opt.dt_min = 1e-7;  // comparator-edge resolution floor
  opt.dt_max = 1e-3;  // quiescent-stretch ceiling (1000 steps/s window)
  opt.lte_tol = 5e-4;
  harvest_tr_ = std::make_unique<circuits::Transient>(*harvest_rc_.circuit, opt);
}

void PicoCubeNode::update_harvest() {
  const double t = sim_.now().value();
  if (solar_) {
    // MPP-tracked solar charger: harvested power through the tracker's
    // efficiency, delivered as a charging current at the cell voltage.
    const double p = solar_->mpp_at_time(t).value() * kMppEfficiency * harvest_derate_;
    accountant_.set_harvest_current(
        Current{p / battery_.open_circuit_voltage().value()});
    return;
  }
  const double window = cfg_.harvest_update.value();
  if (cfg_.harvest_fidelity != NodeConfig::HarvestFidelity::kBehavioral) {
    // Circuit-level estimate: integrate the battery branch current of the
    // rectifier netlist over the window (trapezoid over accepted steps —
    // exact for the engine's piecewise-linear output) and deliver the mean
    // as this window's charging current. The engine's clock tracks the
    // simulator's, so caches and controller state persist across windows.
    ensure_harvest_circuit();
    harvest_rc_.battery->set_dc(battery_.open_circuit_voltage());
    double charge = 0.0;
    double prev_t = harvest_tr_->time();
    double prev_i = harvest_i_prev_;
    harvest_tr_->run_until(Duration{t + window},
                           [&](double tt, const circuits::Vector& x) {
                             const double i = harvest_rc_.circuit->branch_current(
                                 x, harvest_rc_.battery->branch_index());
                             charge += 0.5 * (prev_i + i) * (tt - prev_t);
                             prev_t = tt;
                             prev_i = i;
                           });
    harvest_i_prev_ = prev_i;
    // A quiescent window can integrate slightly negative (reverse leakage
    // through the off-switches / diode saturation current); the PMU blocks
    // reverse current, so the accountant sees zero harvest then.
    accountant_.set_harvest_current(
        Current{std::max(0.0, charge / window) * harvest_derate_});
    return;
  }
  const auto res = rectifier_->rectify(*shaker_, battery_.open_circuit_voltage(), t,
                                       t + window, 2048);
  ++harvest_windows_;
  if (res.samples_evaluated == 0) ++harvest_windows_skipped_;
  harvest_samples_ += static_cast<std::uint64_t>(res.samples_evaluated);
  harvest_visited_ += static_cast<std::uint64_t>(res.samples_visited);
  accountant_.set_harvest_current(Current{res.avg_current.value() * harvest_derate_});
}

void PicoCubeNode::on_interrupt() {
  if (cycle_busy_) return;  // one outstanding cycle, like the real firmware
  // Defensive firmware: the sensor may have lost its rail since raising
  // the interrupt (brown-out mid-wake).
  if (tpms_ && !tpms_->powered()) return;
  if (accel_ && !accel_->powered()) return;
  cycle_busy_ = true;
  ++wake_cycles_;
  cycle_start_s_ = sim_.now().value();
  if (cfg_.sensor == NodeConfig::Sensor::kTpms) {
    tpms_cycle();
  } else {
    motion_cycle();
  }
}

void PicoCubeNode::tpms_cycle() {
  // The CPU naps in LPM0 while the SP12 converts; the readout wakes it.
  // The sample parks in a member so every closure on this chain captures
  // only `this` and stays allocation-free in steady state.
  tpms_->measure(*cpu_, [this](const sensors::TpmsSample& sample) {
    pending_sample_ = sample;
    cpu_->run_for(kFormatTime, [this] {
      pkt_.node_id = cfg_.node_id;
      pkt_.seq = seq_++;
      radio::encode_tpms_payload_into(pending_sample_, pkt_.payload);
      codec_.encode_into(pkt_, frame_buf_);
      radio_send();
    });
  });
  cpu_->sleep(mcu::PowerState::kLpm0);
}

void PicoCubeNode::motion_cycle() {
  accel_->enter_measurement();
  accel_->read_sample(*cpu_, [this](const sensors::AccelSample& sample) {
    pending_accel_ = sample;
    cpu_->run_for(kFormatTime, [this] {
      pkt_.node_id = cfg_.node_id;
      pkt_.seq = seq_++;
      pkt_.payload = radio::encode_accel_payload(pending_accel_.accel);
      codec_.encode_into(pkt_, frame_buf_);
      radio_send();
    });
  });
}

void PicoCubeNode::radio_send() {
  // Switch-board sequence: shunt + LDO energized, input gate first, output
  // gate after the clean-edge delay.
  accountant_.set_radio_powered(true);
  sequencer_.power_up([this] {
    tx_->set_digital_rail(Voltage{1.0});
    tx_->set_rf_rail(Voltage{0.65});
    if (link_) {
      // ARQ: the rails stay up for the whole exchange — retries and
      // ACK-listen windows included — and the cycle succeeds only on a
      // confirmed delivery.
      link_->send(frame_buf_, cfg_.data_rate,
                  [this](bool ok) { finish_cycle(ok); });
    } else {
      tx_->transmit(frame_buf_, cfg_.data_rate, [this](bool ok) { finish_cycle(ok); });
    }
  });
}

void PicoCubeNode::finish_cycle(bool tx_ok) {
  if (tx_ok) {
    ++frames_ok_;
  } else {
    ++frames_failed_;
  }
  tx_->set_rf_rail(Voltage{0.0});
  tx_->set_digital_rail(Voltage{0.0});
  sequencer_.power_down();
  accountant_.set_radio_powered(false);
  if (accel_) accel_->enter_motion_detect(*cpu_);
  last_cycle_s_ = sim_.now().value() - cycle_start_s_;
  cycle_busy_ = false;
  cpu_->sleep(mcu::PowerState::kLpm3);
}

void PicoCubeNode::run(Duration until) {
  boot();
  sim_.run_until(until);
  settle();
}

void PicoCubeNode::settle() { accountant_.settle(); }

NodeReport PicoCubeNode::report() const {
  NodeReport r;
  r.duration = sim_.now();
  r.battery_energy_out = accountant_.battery_energy_out();
  r.harvested_energy_in = accountant_.harvested_energy_in();
  r.average_power =
      Power{r.duration.value() > 0.0 ? r.battery_energy_out.value() / r.duration.value()
                                     : 0.0};
  // Sleep floor: management quiescent plus the sleeping loads.
  RailLoads sleep_loads;
  const Voltage vb = battery_.open_circuit_voltage();
  sleep_loads.mcu_sensor = Current{
      (cpu_ ? cpu_->params().lpm3.value() : 0.0) +
      (tpms_ ? tpms_->params().sleep_current.value() : 0.0) +
      (accel_ ? accel_->params().motion_detect_current.value() : 0.0)};
  r.sleep_floor = Power{vb.value() * train_->battery_current(vb, sleep_loads).value()};
  r.soc_start = cfg_.battery_initial_soc;
  r.soc_end = battery_.soc();
  r.wake_cycles = wake_cycles_;
  r.frames_ok = frames_ok_;
  r.frames_failed = frames_failed_;
  r.last_cycle_time = Duration{last_cycle_s_};
  r.devices = accountant_.devices();
  r.management_overhead = accountant_.management_overhead();
  r.power_train = train_->name();
  return r;
}

void PicoCubeNode::attach_flight(obs::FlightRecorder* recorder, std::uint32_t node_id) {
  flight_recorder_ = recorder;
  flight_node_id_ = node_id;
  obs::FlightRing* ring = recorder != nullptr ? &recorder->ring(0) : nullptr;
  accountant_.set_flight(ring, node_id);
  if (link_) link_->set_flight(ring, node_id);
  if (fault_injector_) fault_injector_->set_flight(recorder);
}

void PicoCubeNode::publish_metrics(obs::MetricsRegistry& m) const {
  sim_.publish_metrics(m);
  accountant_.publish_metrics(m);
  m.add(m.counter("node.wake_cycles"), static_cast<double>(wake_cycles_));
  m.add(m.counter("node.frames_ok"), static_cast<double>(frames_ok_));
  m.add(m.counter("node.frames_failed"), static_cast<double>(frames_failed_));
  if (link_) link_->publish_metrics(m);
  if (bs_) {
    bs_->publish_metrics(m);
    const auto& nc = bs_->counters();
    if (nc.delivered_payload_bits > 0) {
      m.set(m.gauge("net.energy_per_delivered_bit"),
            accountant_.battery_energy_out().value() /
                static_cast<double>(nc.delivered_payload_bits));
    }
  }
  if (fault_injector_) fault_injector_->publish_metrics(m);
  if (harvest_windows_ > 0) {
    // Behavioral harvest estimator: how much of the sampling it culled.
    m.add(m.counter("harvest.windows"), static_cast<double>(harvest_windows_));
    m.add(m.counter("harvest.windows_skipped"), static_cast<double>(harvest_windows_skipped_));
    m.add(m.counter("harvest.samples_evaluated"), static_cast<double>(harvest_samples_));
    m.add(m.counter("harvest.samples_visited"), static_cast<double>(harvest_visited_));
  }
  if (harvest_tr_) {
    // Circuit-level harvest engine: steps, LU-cache traffic and rejected
    // steps ("transient.*").
    harvest_tr_->publish_metrics(m);
  }
}

}  // namespace pico::core
