#include "sensors/tpms.hpp"

#include "common/error.hpp"

namespace pico::sensors {

Sp12Tpms::Sp12Tpms(sim::Simulator& simulator, const TireEnvironment& env, Params p)
    : sim_(simulator), env_(env), prm_(p) {
  PICO_REQUIRE(prm_.event_interval.value() > 0.0, "event interval must be positive");
  PICO_REQUIRE(prm_.channels >= 1, "at least one channel required");
}

void Sp12Tpms::start(mcu::Msp430& cpu) {
  PICO_REQUIRE(powered(), "sensor must be powered before starting");
  if (running_) return;
  running_ = true;
  sim_.every(prm_.event_interval, [this, &cpu] {
    if (!powered()) return;
    cpu.request_interrupt();
  });
}

Duration Sp12Tpms::conversion_time() const {
  return Duration{prm_.convert_time_per_channel.value() * prm_.channels};
}

void Sp12Tpms::measure(mcu::Msp430& cpu, std::function<void(const TpmsSample&)> done) {
  PICO_REQUIRE(powered(), "sensor must be powered to measure");
  PICO_REQUIRE(!converting_, "measurement already in progress");
  converting_ = true;
  // Park the callback and (later) the sample in members: the scheduled
  // closures then capture at most (this, &cpu) and fit std::function's
  // small-object buffer instead of heap-allocating every wake cycle.
  done_ = std::move(done);
  notify();
  sim_.schedule_in(conversion_time(), [this, &cpu] {
    converting_ = false;
    notify();
    if (!powered()) return;
    // Readout over SPI; the sample is timestamped at conversion end.
    const double t = sim_.now().value();
    sample_.timestamp = sim_.now();
    sample_.temperature = env_.temperature(t);
    sample_.pressure = env_.pressure(t, sample_.temperature);
    sample_.accel = env_.radial_accel(t);
    sample_.supply = vdd_;
    cpu.spi_transfer(prm_.spi_frame_bytes, [this] {
      ++samples_;
      // Move out first: the callback chain may start the next measurement.
      auto cb = std::move(done_);
      done_ = nullptr;
      if (cb) cb(sample_);
    });
  });
}

Current Sp12Tpms::supply_current() const {
  if (!powered()) return Current{0.0};
  return converting_ ? prm_.convert_current : prm_.sleep_current;
}

void Sp12Tpms::set_current_listener(CurrentListener cb) { listener_ = std::move(cb); }

void Sp12Tpms::set_supply(Voltage v) {
  vdd_ = v;
  if (!powered()) converting_ = false;
  notify();
}

void Sp12Tpms::notify() {
  if (listener_) listener_(supply_current());
}

}  // namespace pico::sensors
