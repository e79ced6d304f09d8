// link.hpp — stop-and-wait ARQ on top of the FBAR OOK transmitter.
//
// The paper's demo link is fire-and-forget beaconing: the node transmits
// and hopes. §7.3 sketches the alternative — a wake-up receiver cheap
// enough to leave on lets the base station close the loop. This layer
// implements that: after each data frame the node opens an ACK-listen
// window on its wake-up receiver; the base station answers a decoded
// frame with a wake-up code burst. No ACK within the timeout means
// retransmit after a seeded randomized backoff, up to a bounded retry
// budget.
//
// State machine (one outstanding frame — stop-and-wait):
//
//   IDLE --send()--> TX ---tx ok----> LISTEN --ack--> IDLE  (done(true))
//    ^                |  (tx fail)       |
//    |                v                  | timeout
//    +---<--- FAIL/GIVE-UP <-- retries --+--> BACKOFF --> TX
//
// Every joule is billed: TX retries run through the transmitter's
// current listener like first attempts, and the ACK-listen window is
// metered through `set_listen_bill` so the power accountant sees the
// wake-up receiver's standing draw exactly while the window is open.
//
// Determinism: one Rng seeded at construction drives backoff draws and
// false-wake draws; all scheduling happens on the owning simulator's
// timeline, so a fixed seed reproduces the exact retry/backoff history.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "radio/transmitter.hpp"
#include "radio/wakeup.hpp"
#include "sim/simulator.hpp"

namespace pico::obs {
class FlightRing;
}

namespace pico::net {

struct ArqParams {
  // ACK-listen window opened after the frame completes. Must cover the
  // base station's turnaround plus the wake-code burst.
  Duration ack_timeout{8e-3};
  int max_retries = 3;          // retransmissions after the first attempt
  // Randomized backoff before retry k (1-based) is drawn uniformly from
  // [0, min(backoff_base * 2^(k-1), backoff_cap)).
  Duration backoff_base{25e-3};
  Duration backoff_cap{200e-3};
};

class LinkLayer {
 public:
  struct Counters {
    std::uint64_t tx_attempts = 0;   // every frame put on air (incl. retries)
    std::uint64_t retries = 0;       // attempts beyond the first per frame
    std::uint64_t acked = 0;         // frames confirmed delivered
    std::uint64_t failed = 0;        // frames given up after max_retries
    std::uint64_t tx_errors = 0;     // transmitter-level failures (rails, osc)
    std::uint64_t ack_timeouts = 0;  // listen windows that expired silent
    std::uint64_t false_acks = 0;    // comparator noise fired the correlator
    std::uint64_t missed_acks = 0;   // burst arrived but correlator missed it
    double ack_listen_s = 0.0;       // cumulative open listen-window time
  };

  // `ack_detector` is the node's wake-up receiver, reused as the ACK
  // detector (ACK = wake-up code burst, §7.3).
  LinkLayer(sim::Simulator& sim, radio::FbarOokTransmitter& tx,
            radio::WakeupReceiver ack_detector, ArqParams p, std::uint64_t seed);

  // Energy hook: called with `true` when the ACK-listen window opens and
  // `false` when it closes. The node maps this onto the accountant
  // device carrying the wake-up receiver's listen current.
  using ListenBill = std::function<void(bool /*listening*/)>;
  void set_listen_bill(ListenBill cb);

  // Send one encoded frame with delivery confirmation. `done(ok)` fires
  // when the frame is ACKed (true) or abandoned (false). One frame may
  // be in flight at a time (stop-and-wait).
  using DoneFn = std::function<void(bool)>;
  void send(std::vector<std::uint8_t> frame, Frequency rate, DoneFn done);

  // Downlink delivery: the base station's ACK burst arrives at `rx_dbm`
  // (one downlink fading draw, made by the sender). Ignored unless the
  // listen window is open. Runs the wake-up correlator, so a weak burst
  // can be missed — which reads as an ACK timeout and costs a retry.
  void deliver_ack(double rx_dbm);

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] bool listening() const { return listening_; }
  [[nodiscard]] const ArqParams& params() const { return prm_; }
  [[nodiscard]] const Counters& counters() const { return c_; }
  [[nodiscard]] const radio::WakeupReceiver& ack_detector() const { return wakeup_; }

  // net.* metric family (tx_attempts, retries, acked, ...).
  void publish_metrics(obs::MetricsRegistry& m) const;

  // Flight-recorder tap: a kArqExhausted event (a = `node_id`, b =
  // attempts made) is pushed when a frame burns its whole retry budget.
  // Null detaches.
  void set_flight(obs::FlightRing* ring, std::uint32_t node_id) {
    flight_ = ring;
    flight_node_ = node_id;
  }

 private:
  void attempt();
  void open_listen();
  void close_listen();
  void on_timeout();

  sim::Simulator& sim_;
  radio::FbarOokTransmitter& tx_;
  radio::WakeupReceiver wakeup_;
  ArqParams prm_;
  Rng rng_;
  ListenBill listen_bill_;

  bool busy_ = false;
  bool listening_ = false;
  std::vector<std::uint8_t> frame_;
  Frequency rate_{};
  DoneFn done_;
  int attempt_ = 0;  // attempts made for the in-flight frame
  double listen_opened_at_ = 0.0;
  sim::EventId timeout_event_{};
  obs::FlightRing* flight_ = nullptr;
  std::uint32_t flight_node_ = 0;
  Counters c_;
};

}  // namespace pico::net
