// accelerometer.hpp — VTI SCA3000-E01-class 3-axis accelerometer
// (paper §4.5 and the §6 demo).
//
// The demo exploits its motion-detect mode: per-axis thresholds raise an
// interrupt when exceeded, so the whole node deep-sleeps on the table and
// wakes only when a visitor picks it up. In measurement mode the part
// streams X/Y/Z samples over SPI.
#pragma once

#include <functional>

#include "common/units.hpp"
#include "mcu/msp430.hpp"
#include "sensors/stimulus.hpp"
#include "sim/simulator.hpp"

namespace pico::sensors {

struct AccelSample {
  Duration timestamp{};
  Accel3 accel;
};

class Sca3000 {
 public:
  enum class Mode { kOff, kMotionDetect, kMeasurement };

  struct Params {
    Current motion_detect_current{10e-6};
    Current measurement_current{120e-6};
    Frequency detect_poll{25.0};       // internal detection rate
    Acceleration default_threshold{2.0};  // above |g| deviation
    Duration debounce{0.4};            // min spacing between wake events
    std::size_t spi_frame_bytes = 6;   // X/Y/Z, 2 bytes each
    Duration conversion_time{0.6e-3};
    Voltage vdd_min{2.35};             // SCA3000 needs 2.35-3.6 V
  };

  Sca3000(sim::Simulator& simulator, const MotionScenario& scenario, Params p);
  Sca3000(const Sca3000&) = delete;
  Sca3000& operator=(const Sca3000&) = delete;

  // Configure motion-detect mode: threshold on the deviation from 1 g.
  // Raises the MCU's sensor-event interrupt (debounced) while motion
  // persists.
  void enter_motion_detect(mcu::Msp430& cpu, Acceleration threshold);
  void enter_motion_detect(mcu::Msp430& cpu);
  void enter_measurement();
  [[nodiscard]] Mode mode() const { return mode_; }

  // Read one X/Y/Z frame (measurement mode).
  void read_sample(mcu::Msp430& cpu, std::function<void(const AccelSample&)> done);

  [[nodiscard]] Current supply_current() const;
  using CurrentListener = std::function<void(Current)>;
  void set_current_listener(CurrentListener cb);
  void set_supply(Voltage v);
  [[nodiscard]] bool powered() const { return vdd_.value() >= prm_.vdd_min.value() * 0.99; }

  [[nodiscard]] const Params& params() const { return prm_; }
  [[nodiscard]] std::uint64_t motion_events() const { return motion_events_; }

 private:
  void notify();
  void poll_motion(mcu::Msp430& cpu);

  sim::Simulator& sim_;
  const MotionScenario& scenario_;
  Params prm_;
  Mode mode_ = Mode::kOff;
  Voltage vdd_{0.0};
  Acceleration threshold_{2.0};
  double last_event_time_ = -1e18;
  sim::EventId poll_id_ = 0;
  bool polling_ = false;
  CurrentListener listener_;
  std::uint64_t motion_events_ = 0;
};

}  // namespace pico::sensors
