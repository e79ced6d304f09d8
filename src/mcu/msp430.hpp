// msp430.hpp — behavioral model of the TI MSP430F1222 microcontroller
// (paper §4.5).
//
// The paper chose this part for its sub-microwatt deep-sleep (LPM3) mode:
// between sensor events only a 32 kHz timer runs and the CPU sleeps. The
// model captures exactly what the node energy budget needs:
//   * power states with datasheet-class currents (active / LPM0 / LPM3 /
//     LPM4) and supply-voltage scaling,
//   * wake latency from deep sleep,
//   * a busy-execution primitive (`run_for`) that holds the CPU in active
//     mode on the event simulator,
//   * SPI master transfer timing (the sensor interface),
//   * the sensor-event interrupt line (TPMS digital die / accelerometer
//     motion detect), which wakes the CPU and dispatches to firmware.
//
// Firmware is a callback object — the paper's "entirely interrupt driven"
// C code maps onto `InterruptHandler`.
#pragma once

#include <functional>
#include <string>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace pico::mcu {

enum class PowerState {
  kOff,
  kActive,
  kLpm0,  // CPU off, clocks on
  kLpm3,  // deep sleep, 32 kHz timer alive
  kLpm4,  // everything off, external interrupt only
};

class Msp430 {
 public:
  struct Params {
    Frequency mclk{800e3};          // DCO default
    Voltage vref{2.2};              // datasheet current reference point
    Current active_base{40e-6};
    double active_per_hz = 0.25e-9; // +250 uA per MHz
    Current lpm0{32e-6};
    Current lpm3{0.5e-6};           // the sub-uW headline (at 2.2 V)
    Current lpm4{0.1e-6};
    Duration wake_latency{6e-6};
    Frequency spi_clock{250e3};
    Current spi_extra{30e-6};       // USART engine while shifting
    Voltage vdd_min{1.8};
  };

  Msp430(sim::Simulator& simulator, Params p);
  explicit Msp430(sim::Simulator& simulator);
  Msp430(const Msp430&) = delete;
  Msp430& operator=(const Msp430&) = delete;

  // --- Power -------------------------------------------------------------
  [[nodiscard]] PowerState state() const { return state_; }
  // Instantaneous supply current at the present state and supply voltage.
  [[nodiscard]] Current supply_current() const;
  void set_supply(Voltage v);
  [[nodiscard]] Voltage supply() const { return vdd_; }
  [[nodiscard]] bool powered() const { return vdd_.value() >= prm_.vdd_min.value() * 0.99; }

  // Notified whenever the supply current changes (state/SPI transitions).
  using CurrentListener = std::function<void(Current)>;
  void set_current_listener(CurrentListener cb);

  // --- Execution ---------------------------------------------------------
  // Enter active mode for `d`, then invoke `done` (still active).
  void run_for(Duration d, std::function<void()> done);
  // Drop into a low-power mode (typically at the end of an ISR).
  void sleep(PowerState s);

  // --- SPI master ----------------------------------------------------------
  // Shift `bytes` bytes at spi_clock; `done` runs at completion. CPU is
  // held active for the duration.
  void spi_transfer(std::size_t bytes, std::function<void()> done);
  [[nodiscard]] Duration spi_duration(std::size_t bytes) const;
  [[nodiscard]] bool spi_busy() const { return spi_busy_; }

  // --- Interrupts ----------------------------------------------------------
  using InterruptHandler = std::function<void()>;
  void set_interrupt_handler(InterruptHandler h);
  // Assert the sensor-event line; wakes the CPU (with latency) if sleeping,
  // LPM4 included: the line is an external interrupt.
  void request_interrupt();

  [[nodiscard]] const Params& params() const { return prm_; }
  // Cumulative busy time (for utilization reporting).
  [[nodiscard]] Duration total_active_time() const { return Duration{active_seconds_}; }

 private:
  void enter_state(PowerState s);
  void notify();

  sim::Simulator& sim_;
  Params prm_;
  PowerState state_ = PowerState::kOff;
  Voltage vdd_{0.0};
  bool spi_busy_ = false;
  CurrentListener listener_;
  InterruptHandler handler_;
  double active_seconds_ = 0.0;
  double active_since_ = 0.0;
};

}  // namespace pico::mcu
