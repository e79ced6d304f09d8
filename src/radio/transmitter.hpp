// transmitter.hpp — the FBAR-based OOK transmitter (paper §4.6, ref [11]).
//
// Measured properties reproduced by this model: 1.863 GHz channel, 46 %
// efficiency at 1.2 mW (0.8 dBm) transmit power, 650 mV supply, direct
// modulation by power-cycling the FBAR oscillator and PA, 1.35 mW DC draw
// at 50 % OOK, data rates up to 330 kbps (bounded by oscillator startup).
//
// Transmission runs on the event simulator byte-by-byte: the RF-rail
// current for each byte is the carrier-on current scaled by that byte's
// '1'-bit density, so the integrated energy is exact while the Fig 6
// power profile stays compact.
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "radio/fbar.hpp"
#include "radio/packet.hpp"
#include "sim/simulator.hpp"

namespace pico::radio {

// A transmitted frame as it leaves the PA: what the channel propagates.
//
// `start` is the beginning of the occupied-air interval — the instant the
// oscillator core powers up. The FBAR startup chirp occupies the channel
// (and jams other nodes) just like data bits do, so collision windows,
// receiver airtime accounting and FbarOokTransmitter::airtime() all agree
// on [start, start + airtime()].
struct RfFrame {
  Duration start{};
  Duration startup{};  // FBAR oscillator startup preceding the first bit
  Frequency data_rate{};
  Power tx_power{};  // carrier-on RF power at the antenna port
  std::vector<std::uint8_t> bytes;

  // Total occupied-air interval: oscillator startup + data bits.
  [[nodiscard]] Duration airtime() const {
    return Duration{startup.value() +
                    static_cast<double>(bytes.size()) * 8.0 / data_rate.value()};
  }
};

class FbarOokTransmitter {
 public:
  struct Params {
    Power tx_power{1.2e-3};       // 0.8 dBm carrier
    double pa_efficiency = 0.46;
    Voltage rf_supply{0.65};
    Voltage digital_supply{1.0};
    Current digital_current{200e-6};  // modulator/SPI interface logic
    Frequency max_data_rate{330e3};
  };

  FbarOokTransmitter(sim::Simulator& simulator, FbarOscillator oscillator, Params p);
  FbarOokTransmitter(sim::Simulator& simulator, FbarOscillator oscillator);
  FbarOokTransmitter(const FbarOokTransmitter&) = delete;
  FbarOokTransmitter& operator=(const FbarOokTransmitter&) = delete;

  // Carrier-on DC current on the 0.65 V rail.
  [[nodiscard]] Current carrier_on_current() const;
  // Average DC power at a given OOK duty (the paper quotes 1.35 mW @ 50 %).
  [[nodiscard]] Power dc_power_at_duty(double duty) const;
  // Time to send a frame (startup + bits).
  [[nodiscard]] Duration airtime(std::size_t frame_bytes, Frequency rate) const;

  // Rail state, driven by the switch-board sequencer.
  void set_rf_rail(Voltage v);
  void set_digital_rail(Voltage v);
  [[nodiscard]] bool rails_good() const;

  // Transmit an encoded frame; `done(ok)` fires at completion. Fails (ok =
  // false) if rails drop mid-frame or the oscillator fails to start.
  using DoneFn = std::function<void(bool)>;
  void transmit(const std::vector<std::uint8_t>& frame, Frequency rate, DoneFn done);
  [[nodiscard]] bool busy() const { return busy_; }

  // RF-rail current listener (power accountant) and frame listener
  // (channel/receiver).
  using CurrentListener = std::function<void(Current /*rf*/, Current /*digital*/)>;
  void set_current_listener(CurrentListener cb);
  using FrameListener = std::function<void(const RfFrame&)>;
  void set_frame_listener(FrameListener cb);
  // Fires synchronously when a frame starts occupying the air (oscillator
  // power-up), before the outcome is known. A shared-medium receiver needs
  // this to register occupancy: frames that later fade or abort still
  // jammed the channel while they were on air.
  void set_frame_start_listener(FrameListener cb);

  [[nodiscard]] const Params& params() const { return prm_; }
  [[nodiscard]] const FbarOscillator& oscillator() const { return osc_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  // Frames fully transmitted (energy spent) but lost to a channel fade.
  [[nodiscard]] std::uint64_t frames_lost() const { return frames_lost_; }
  // Deterministic fault injection uses this stream.
  void reseed_faults(std::uint64_t seed) { rng_.reseed(seed); }
  // Channel-fade fault hook: each completed frame is lost with probability
  // `p` — the PA still burns the full airtime's energy, but the frame never
  // reaches a listener and the completion callback reports failure. The
  // loss draw happens only while p > 0, so nominal runs consume exactly the
  // same fault-RNG sequence as before the hook existed.
  void set_frame_loss(double p);

 private:
  void set_rf_current(double amps);
  // Self-advancing byte ticker: tick k sets the RF current for byte k and
  // schedules tick k+1; tick N (one past the last byte) completes the
  // frame. Each tick's closure captures only (this, gen) — 16 bytes, inside
  // std::function's small-object buffer — so a steady-state frame costs no
  // heap allocations (the frame bytes and the done callback live in pooled
  // members).
  void schedule_byte_tick(std::uint64_t gen, std::size_t k);
  void byte_tick(std::uint64_t gen);

  sim::Simulator& sim_;
  FbarOscillator osc_;
  Params prm_;
  Voltage rf_rail_{0.0};
  Voltage digital_rail_{0.0};
  bool busy_ = false;
  double rf_current_ = 0.0;
  CurrentListener listener_;
  FrameListener frame_listener_;
  FrameListener frame_start_listener_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t tx_generation_ = 0;
  double frame_loss_ = 0.0;
  Rng rng_{0xF00DF00D};
  // In-flight frame state, reused across transmissions.
  RfFrame cur_frame_{};
  DoneFn done_;
  Duration tx_start_{};
  Duration tx_end_{};
  double byte_time_s_ = 0.0;
  double i_on_ = 0.0;
  std::size_t tx_byte_ = 0;
};

}  // namespace pico::radio
