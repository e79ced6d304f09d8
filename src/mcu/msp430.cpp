#include "mcu/msp430.hpp"

#include "common/error.hpp"

namespace pico::mcu {

Msp430::Msp430(sim::Simulator& simulator) : Msp430(simulator, Params{}) {}

Msp430::Msp430(sim::Simulator& simulator, Params p) : sim_(simulator), prm_(p) {
  PICO_REQUIRE(prm_.mclk.value() > 0.0, "MCLK must be positive");
  PICO_REQUIRE(prm_.spi_clock.value() > 0.0, "SPI clock must be positive");
}

Current Msp430::supply_current() const {
  if (!powered() || state_ == PowerState::kOff) return Current{0.0};
  double i = 0.0;
  switch (state_) {
    case PowerState::kActive:
      i = prm_.active_base.value() + prm_.active_per_hz * prm_.mclk.value();
      break;
    case PowerState::kLpm0:
      i = prm_.lpm0.value();
      break;
    case PowerState::kLpm3:
      i = prm_.lpm3.value();
      break;
    case PowerState::kLpm4:
      i = prm_.lpm4.value();
      break;
    case PowerState::kOff:
      return Current{0.0};
  }
  if (spi_busy_) i += prm_.spi_extra.value();
  // First-order supply scaling around the datasheet reference point.
  const double scale = vdd_.value() / prm_.vref.value();
  return Current{i * scale};
}

void Msp430::set_supply(Voltage v) {
  PICO_REQUIRE(v.value() >= 0.0, "supply voltage must be non-negative");
  const bool was_powered = powered();
  vdd_ = v;
  if (!was_powered && powered()) {
    enter_state(PowerState::kActive);  // power-on reset: boot code runs
  } else if (was_powered && !powered()) {
    enter_state(PowerState::kOff);
    spi_busy_ = false;
  } else {
    notify();
  }
}

void Msp430::set_current_listener(CurrentListener cb) { listener_ = std::move(cb); }

void Msp430::notify() {
  if (listener_) listener_(supply_current());
}

void Msp430::enter_state(PowerState s) {
  if (state_ == s) {
    notify();
    return;
  }
  const double now = sim_.now().value();
  if (state_ == PowerState::kActive) active_seconds_ += now - active_since_;
  if (s == PowerState::kActive) active_since_ = now;
  state_ = s;
  notify();
}

void Msp430::run_for(Duration d, std::function<void()> done) {
  PICO_REQUIRE(powered(), "cannot execute without a valid supply");
  PICO_REQUIRE(d.value() >= 0.0, "execution time must be non-negative");
  enter_state(PowerState::kActive);
  sim_.schedule_in(d, [this, cb = std::move(done)] {
    if (!powered()) return;  // brown-out during execution
    if (cb) cb();
  });
}

void Msp430::sleep(PowerState s) {
  PICO_REQUIRE(s != PowerState::kActive, "sleep target must be a low-power state");
  if (!powered()) return;
  enter_state(s);
}

Duration Msp430::spi_duration(std::size_t bytes) const {
  return Duration{static_cast<double>(bytes) * 8.0 / prm_.spi_clock.value()};
}

void Msp430::spi_transfer(std::size_t bytes, std::function<void()> done) {
  PICO_REQUIRE(powered(), "SPI requires a powered MCU");
  PICO_REQUIRE(!spi_busy_, "SPI master is busy");
  enter_state(PowerState::kActive);
  spi_busy_ = true;
  notify();
  sim_.schedule_in(spi_duration(bytes), [this, cb = std::move(done)] {
    spi_busy_ = false;
    notify();
    if (!powered()) return;
    if (cb) cb();
  });
}

void Msp430::request_interrupt() {
  if (!powered()) return;
  const bool was_sleeping = state_ != PowerState::kActive;
  const Duration latency = was_sleeping ? prm_.wake_latency : Duration{0.0};
  sim_.schedule_in(latency, [this] {
    if (!powered()) return;
    enter_state(PowerState::kActive);
    // The wake-up current step may itself brown the node out (the energy
    // accountant drains the battery inside the listener cascade).
    if (!powered()) return;
    if (handler_) handler_();
  });
}

void Msp430::set_interrupt_handler(InterruptHandler h) { handler_ = std::move(h); }

}  // namespace pico::mcu
