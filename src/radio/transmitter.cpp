#include "radio/transmitter.hpp"

#include "common/error.hpp"

namespace pico::radio {

FbarOokTransmitter::FbarOokTransmitter(sim::Simulator& simulator, FbarOscillator oscillator)
    : FbarOokTransmitter(simulator, std::move(oscillator), Params{}) {}

FbarOokTransmitter::FbarOokTransmitter(sim::Simulator& simulator, FbarOscillator oscillator,
                                       Params p)
    : sim_(simulator), osc_(std::move(oscillator)), prm_(p) {
  PICO_REQUIRE(prm_.pa_efficiency > 0.0 && prm_.pa_efficiency < 1.0,
               "PA efficiency must be within (0, 1)");
}

Current FbarOokTransmitter::carrier_on_current() const {
  // DC power while the carrier is on: P_tx / efficiency at the RF rail.
  const double p_dc = prm_.tx_power.value() / prm_.pa_efficiency;
  return Current{p_dc / prm_.rf_supply.value()};
}

Power FbarOokTransmitter::dc_power_at_duty(double duty) const {
  PICO_REQUIRE(duty >= 0.0 && duty <= 1.0, "duty must be within [0, 1]");
  return Power{prm_.tx_power.value() / prm_.pa_efficiency * duty};
}

Duration FbarOokTransmitter::airtime(std::size_t frame_bytes, Frequency rate) const {
  return Duration{osc_.startup_time().value() +
                  static_cast<double>(frame_bytes) * 8.0 / rate.value()};
}

void FbarOokTransmitter::set_rf_rail(Voltage v) {
  rf_rail_ = v;
  if (rf_rail_.value() < prm_.rf_supply.value() * 0.9 && busy_) {
    // Rail collapsed mid-frame: abort. The pending byte ticker sees the
    // generation bump and goes quiet; the failure still surfaces at the
    // frame's original completion time, as it did when the completion event
    // was pre-scheduled.
    ++tx_generation_;
    busy_ = false;
    set_rf_current(0.0);
    if (done_) {
      sim_.schedule_at(tx_end_, [done = std::move(done_)] { done(false); });
      done_ = nullptr;
    }
  }
}

void FbarOokTransmitter::set_digital_rail(Voltage v) { digital_rail_ = v; }

bool FbarOokTransmitter::rails_good() const {
  return rf_rail_.value() >= prm_.rf_supply.value() * 0.9 &&
         digital_rail_.value() >= prm_.digital_supply.value() * 0.9;
}

void FbarOokTransmitter::set_current_listener(CurrentListener cb) {
  listener_ = std::move(cb);
}

void FbarOokTransmitter::set_frame_listener(FrameListener cb) {
  frame_listener_ = std::move(cb);
}

void FbarOokTransmitter::set_frame_start_listener(FrameListener cb) {
  frame_start_listener_ = std::move(cb);
}

void FbarOokTransmitter::set_frame_loss(double p) {
  PICO_REQUIRE(p >= 0.0 && p <= 1.0, "frame loss probability must be within [0, 1]");
  frame_loss_ = p;
}

void FbarOokTransmitter::set_rf_current(double amps) {
  rf_current_ = amps;
  if (listener_) {
    const double dig = rails_good() && busy_ ? prm_.digital_current.value() : 0.0;
    listener_(Current{rf_current_}, Current{dig});
  }
}

void FbarOokTransmitter::transmit(const std::vector<std::uint8_t>& frame, Frequency rate,
                                  DoneFn done) {
  PICO_REQUIRE(!frame.empty(), "cannot transmit an empty frame");
  PICO_REQUIRE(rate.value() > 0.0 && rate.value() <= prm_.max_data_rate.value(),
               "data rate outside the transmitter's range");
  PICO_REQUIRE(!busy_, "transmitter is busy");
  if (!rails_good()) {
    if (done) done(false);
    return;
  }
  busy_ = true;
  const std::uint64_t gen = ++tx_generation_;

  // Oscillator startup: injectable failure.
  if (osc_.params().startup_failure_prob > 0.0 &&
      rng_.chance(osc_.params().startup_failure_prob)) {
    sim_.schedule_in(osc_.startup_time(), [this, gen, done] {
      if (gen != tx_generation_) return;
      busy_ = false;
      set_rf_current(0.0);
      if (done) done(false);
    });
    set_rf_current(osc_.params().core_current.value());
    return;
  }

  // Startup: oscillator core only.
  set_rf_current(osc_.params().core_current.value());

  // The occupied-air interval starts now: the startup chirp jams the
  // channel before the first data bit. The frame object is a pooled member:
  // assign() reuses its byte capacity, and the done callback parks in a
  // member slot, so a steady-state frame performs no heap allocations.
  cur_frame_.start = sim_.now();
  cur_frame_.startup = osc_.startup_time();
  cur_frame_.data_rate = rate;
  cur_frame_.tx_power = prm_.tx_power;
  cur_frame_.bytes.assign(frame.begin(), frame.end());
  done_ = std::move(done);
  tx_start_ = sim_.now();
  byte_time_s_ = 8.0 / rate.value();
  i_on_ = carrier_on_current().value();
  tx_byte_ = 0;
  tx_end_ = Duration{tx_start_.value() + osc_.startup_time().value() +
                     static_cast<double>(cur_frame_.bytes.size()) * byte_time_s_};
  if (frame_start_listener_) frame_start_listener_(cur_frame_);
  schedule_byte_tick(gen, 0);
}

void FbarOokTransmitter::schedule_byte_tick(std::uint64_t gen, std::size_t k) {
  // Same float grouping as the old pre-scheduled form (startup + k*T added
  // to the frame start), so event timestamps are bit-identical.
  const double off = osc_.startup_time().value() + static_cast<double>(k) * byte_time_s_;
  sim_.schedule_at(Duration{tx_start_.value() + off}, [this, gen] { byte_tick(gen); });
}

void FbarOokTransmitter::byte_tick(std::uint64_t gen) {
  if (gen != tx_generation_) return;  // aborted; set_rf_rail owns the failure
  const std::size_t k = tx_byte_++;
  if (k < cur_frame_.bytes.size()) {
    const std::uint8_t byte = cur_frame_.bytes[k];
    int ones = 0;
    for (int b = 0; b < 8; ++b) ones += (byte >> b) & 1;
    const double duty = ones / 8.0;
    set_rf_current(osc_.params().core_current.value() + i_on_ * duty);
    schedule_byte_tick(gen, k + 1);
    return;
  }
  // One past the last byte: frame complete.
  busy_ = false;
  ++frames_sent_;
  set_rf_current(0.0);
  // Move the callback out first: done() may start the next transmit (ARQ
  // retry), which repopulates the member slot.
  DoneFn done = std::move(done_);
  done_ = nullptr;
  // Channel-fade fault: the frame was transmitted in full (energy spent)
  // but faded on air. Guarding the draw keeps nominal RNG sequences
  // untouched.
  if (frame_loss_ > 0.0 && rng_.chance(frame_loss_)) {
    ++frames_lost_;
    if (done) done(false);
    return;
  }
  if (frame_listener_) frame_listener_(cur_frame_);
  if (done) done(true);
}

}  // namespace pico::radio
