// tpms.hpp — Sensonor SP12-class tire-pressure sensor (paper §4.5).
//
// The SP12 is two bare dice (analog + digital) wire-bonded chip-on-board.
// The digital die runs a free internal timer that interrupts the
// microcontroller every six seconds; between events the sensor sleeps with
// only that timer running and the MSP430 stays in deep sleep. A sample
// covers four channels: tire pressure, temperature, acceleration, and
// supply voltage.
#pragma once

#include <functional>

#include "common/units.hpp"
#include "mcu/msp430.hpp"
#include "sensors/stimulus.hpp"
#include "sim/simulator.hpp"

namespace pico::sensors {

struct TpmsSample {
  Duration timestamp{};
  Pressure pressure{};
  Temperature temperature{};
  Acceleration accel{};
  Voltage supply{};
};

class Sp12Tpms {
 public:
  struct Params {
    Duration event_interval{6.0};       // digital-die timer period
    Current sleep_current{0.25e-6};      // timer-only standby
    Current convert_current{200e-6};    // during a conversion burst
    Duration convert_time_per_channel{2.0e-3};
    int channels = 4;
    std::size_t spi_frame_bytes = 8;    // result readout frame
    Voltage vdd_min{1.9};
  };

  Sp12Tpms(sim::Simulator& simulator, const TireEnvironment& env, Params p);
  Sp12Tpms(const Sp12Tpms&) = delete;
  Sp12Tpms& operator=(const Sp12Tpms&) = delete;

  // Start the internal event timer; each expiry raises the MCU's
  // sensor-event interrupt. Call after the sensor rail is up.
  void start(mcu::Msp430& cpu);

  // Full measurement sequence: conversions (sensor current burst) followed
  // by the SPI readout through `cpu`; `done` receives the sample.
  void measure(mcu::Msp430& cpu, std::function<void(const TpmsSample&)> done);

  // Supply bookkeeping for the power accountant.
  [[nodiscard]] Current supply_current() const;
  using CurrentListener = std::function<void(Current)>;
  void set_current_listener(CurrentListener cb);
  void set_supply(Voltage v);
  [[nodiscard]] bool powered() const { return vdd_.value() >= prm_.vdd_min.value() * 0.99; }

  [[nodiscard]] Duration conversion_time() const;
  [[nodiscard]] const Params& params() const { return prm_; }
  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }

 private:
  void notify();

  sim::Simulator& sim_;
  const TireEnvironment& env_;
  Params prm_;
  Voltage vdd_{0.0};
  bool converting_ = false;
  bool running_ = false;
  CurrentListener listener_;
  std::uint64_t samples_ = 0;
  // In-flight measurement state (one outstanding measure at a time).
  std::function<void(const TpmsSample&)> done_;
  TpmsSample sample_{};
};

}  // namespace pico::sensors
