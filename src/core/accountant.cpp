#include "core/accountant.hpp"

#include <array>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace pico::core {

PowerAccountant::PowerAccountant(sim::Simulator& simulator, storage::NiMhBattery& battery,
                                 PowerTrain& train, sim::TraceSet& traces)
    : sim_(simulator), battery_(battery), train_(train), traces_(traces) {
  tr_p_node_ = &traces_.channel("p_node");
  tr_i_batt_ = &traces_.channel("i_batt");
  tr_i_harvest_ = &traces_.channel("i_harvest");
  tr_v_batt_ = &traces_.channel("v_batt", sim::Interp::kLinear);
  tr_soc_ = &traces_.channel("soc", sim::Interp::kLinear);
  tr_p_mcu_ = &traces_.channel("p_mcu_rail");
  tr_p_radio_rf_ = &traces_.channel("p_radio_rf");
  tr_p_radio_dig_ = &traces_.channel("p_radio_dig");
  record();
}

DeviceId PowerAccountant::add_device(std::string name, RailId rail) {
  devices_.push_back(DeviceLedger{std::move(name), rail, Current{0.0}, 0.0});
  return devices_.size() - 1;
}

Current PowerAccountant::battery_draw() const {
  return Current{
      train_.battery_current(battery_.terminal_voltage(Current{0.0}), loads_).value() *
      converter_derate_};
}

Voltage PowerAccountant::rail_voltage(RailId r) const {
  return train_.rail_voltage(r, battery_.terminal_voltage(battery_draw()), loads_);
}

void PowerAccountant::integrate_to_now() {
  const double now = sim_.now().value();
  const double dt = now - last_time_;
  if (dt <= 0.0) {
    last_time_ = now;
    return;
  }
  const Voltage vb = battery_.open_circuit_voltage();
  const Current draw{train_.battery_current(vb, loads_).value() * converter_derate_};
  // Net battery current: harvest in, load out (signs: + charges).
  const Current net{harvest_.value() - draw.value()};
  const auto moved = battery_.transfer(net, Duration{dt});
  battery_.idle(Duration{dt});  // self-discharge in parallel
  ++intervals_;
  if (moved.hit_empty) {
    // The cell emptied mid-interval: the loads received only the charge it
    // could source plus the harvest flowing straight through. Billing the
    // full demand would let energy_out exceed what physically existed.
    const double supplied_q = harvest_.value() * dt + std::max(0.0, -moved.moved.value());
    energy_out_ += vb.value() * std::min(draw.value() * dt, supplied_q);
  } else {
    energy_out_ += vb.value() * draw.value() * dt;
  }
  energy_in_ += vb.value() * harvest_.value() * dt;
  // Device-level (rail-referred) energies. A rail's voltage depends only on
  // (rail, vb, loads_) and the train's gating, all fixed over the interval,
  // so price each rail once and bill every device on it from that value.
  std::array<double, static_cast<std::size_t>(RailId::kCount)> v_rail{};
  for (std::size_t r = 0; r < v_rail.size(); ++r) {
    v_rail[r] = train_.rail_voltage(static_cast<RailId>(r), vb, loads_).value();
  }
  for (auto& d : devices_) {
    d.energy_j += v_rail[static_cast<std::size_t>(d.rail)] * d.current.value() * dt;
  }
  last_time_ = now;
  if (moved.hit_empty && !empty_signaled_) {
    empty_signaled_ = true;
    // At most one brownout per battery death.
    ++brownouts_;
    if (flight_ != nullptr) {
      flight_->push({now, obs::FlightEventKind::kBrownout, flight_node_, 0,
                     energy_out_ - energy_in_});
    }
    // Brown-out: the node drops its supplies. Fired only after the books
    // for this interval close — the callback's own set_current() calls
    // re-enter integrate_to_now(), which must see dt == 0.
    if (on_empty_) on_empty_();
  }
}

void PowerAccountant::record() {
  if (!recording_) return;
  const Duration now = sim_.now();
  const Voltage vb = battery_.open_circuit_voltage();
  const Current draw{train_.battery_current(vb, loads_).value() * converter_derate_};
  tr_p_node_->record(now, vb.value() * draw.value());
  tr_i_batt_->record(now, draw.value());
  tr_i_harvest_->record(now, harvest_.value());
  tr_v_batt_->record(now, vb.value());
  tr_soc_->record(now, battery_.soc());
  tr_p_mcu_->record(now,
                    train_.rail_voltage(RailId::kVddMcu, vb, loads_).value() *
                        loads_.mcu_sensor.value());
  tr_p_radio_rf_->record(now,
                         train_.rail_voltage(RailId::kVddRadioRf, vb, loads_).value() *
                             loads_.radio_rf.value());
  tr_p_radio_dig_->record(
      now, train_.rail_voltage(RailId::kVddRadioDigital, vb, loads_).value() *
               loads_.radio_digital.value());
}

void PowerAccountant::set_current(DeviceId dev, Current i) {
  PICO_REQUIRE(dev < devices_.size(), "unknown device id");
  PICO_REQUIRE(i.value() >= 0.0, "device current must be non-negative");
  integrate_to_now();
  auto& d = devices_[dev];
  loads_.of(d.rail) += Current{i.value() - d.current.value()};
  // Guard against negative rail totals from floating-point residue.
  if (loads_.of(d.rail).value() < 0.0) loads_.of(d.rail) = Current{0.0};
  d.current = i;
  record();
}

void PowerAccountant::set_radio_powered(bool on) {
  integrate_to_now();
  train_.set_radio_powered(on);
  record();
}

void PowerAccountant::set_harvest_current(Current i) {
  PICO_REQUIRE(i.value() >= 0.0, "harvest current must be non-negative");
  integrate_to_now();
  harvest_ = i;
  record();
}

void PowerAccountant::set_converter_derate(double multiplier) {
  PICO_REQUIRE(std::isfinite(multiplier) && multiplier >= 1.0,
               "converter derate multiplier must be finite and >= 1");
  integrate_to_now();
  converter_derate_ = multiplier;
  record();
}

void PowerAccountant::settle() {
  integrate_to_now();
  record();
}

Energy PowerAccountant::management_overhead() const {
  double devices_total = 0.0;
  for (const auto& d : devices_) devices_total += d.energy_j;
  return Energy{energy_out_ - devices_total};
}

void PowerAccountant::publish_metrics(obs::MetricsRegistry& m, const std::string& prefix) const {
  m.add(m.counter(prefix + ".integration_intervals"), static_cast<double>(intervals_));
  m.add(m.counter(prefix + ".brownout_events"), static_cast<double>(brownouts_));
  m.add(m.counter(prefix + ".energy_out_j"), energy_out_);
  m.add(m.counter(prefix + ".energy_in_j"), energy_in_);
}

}  // namespace pico::core
