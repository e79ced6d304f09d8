#include "sensors/accelerometer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pico::sensors {

Sca3000::Sca3000(sim::Simulator& simulator, const MotionScenario& scenario, Params p)
    : sim_(simulator), scenario_(scenario), prm_(p), threshold_(p.default_threshold) {
  PICO_REQUIRE(prm_.detect_poll.value() > 0.0, "detect poll rate must be positive");
}

void Sca3000::enter_motion_detect(mcu::Msp430& cpu) {
  enter_motion_detect(cpu, prm_.default_threshold);
}

void Sca3000::enter_motion_detect(mcu::Msp430& cpu, Acceleration threshold) {
  PICO_REQUIRE(powered(), "sensor must be powered");
  PICO_REQUIRE(threshold.value() > 0.0, "threshold must be positive");
  threshold_ = threshold;
  mode_ = Mode::kMotionDetect;
  notify();
  if (!polling_) {
    polling_ = true;
    poll_id_ = sim_.every(Duration{1.0 / prm_.detect_poll.value()},
                          [this, &cpu] { poll_motion(cpu); });
  }
}

void Sca3000::poll_motion(mcu::Msp430& cpu) {
  if (mode_ != Mode::kMotionDetect || !powered()) return;
  const double t = sim_.now().value();
  const Accel3 a = scenario_.at(t);
  // Deviation from static gravity.
  const double dev = std::fabs(a.magnitude() - 9.80665);
  if (dev > threshold_.value() && (t - last_event_time_) >= prm_.debounce.value()) {
    last_event_time_ = t;
    ++motion_events_;
    cpu.request_interrupt();
  }
}

void Sca3000::enter_measurement() {
  PICO_REQUIRE(powered(), "sensor must be powered");
  mode_ = Mode::kMeasurement;
  notify();
}

void Sca3000::read_sample(mcu::Msp430& cpu, std::function<void(const AccelSample&)> done) {
  PICO_REQUIRE(mode_ == Mode::kMeasurement, "read_sample requires measurement mode");
  sim_.schedule_in(prm_.conversion_time, [this, &cpu, cb = std::move(done)] {
    if (!powered()) return;
    AccelSample s;
    s.timestamp = sim_.now();
    s.accel = scenario_.at(sim_.now().value());
    cpu.spi_transfer(prm_.spi_frame_bytes, [cb, s] {
      if (cb) cb(s);
    });
  });
}

Current Sca3000::supply_current() const {
  if (!powered()) return Current{0.0};
  switch (mode_) {
    case Mode::kOff:
      return Current{0.0};
    case Mode::kMotionDetect:
      return prm_.motion_detect_current;
    case Mode::kMeasurement:
      return prm_.measurement_current;
  }
  return Current{0.0};
}

void Sca3000::set_current_listener(CurrentListener cb) { listener_ = std::move(cb); }

void Sca3000::set_supply(Voltage v) {
  vdd_ = v;
  if (!powered() && mode_ != Mode::kOff) {
    mode_ = Mode::kOff;
    if (polling_) {
      sim_.cancel(poll_id_);
      polling_ = false;
    }
  }
  notify();
}

void Sca3000::notify() {
  if (listener_) listener_(supply_current());
}

}  // namespace pico::sensors
