#include "net/link.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/flight.hpp"

namespace pico::net {

LinkLayer::LinkLayer(sim::Simulator& sim, radio::FbarOokTransmitter& tx,
                     radio::WakeupReceiver ack_detector, ArqParams p, std::uint64_t seed)
    : sim_(sim), tx_(tx), wakeup_(std::move(ack_detector)), prm_(p), rng_(seed) {
  PICO_REQUIRE(prm_.ack_timeout.value() > 0.0, "ack_timeout must be positive");
  PICO_REQUIRE(prm_.max_retries >= 0, "max_retries must be non-negative");
  PICO_REQUIRE(prm_.backoff_base.value() >= 0.0, "backoff_base must be non-negative");
  PICO_REQUIRE(prm_.backoff_cap.value() >= prm_.backoff_base.value(),
               "backoff_cap must be at least backoff_base");
}

void LinkLayer::set_listen_bill(ListenBill cb) { listen_bill_ = std::move(cb); }

void LinkLayer::send(std::vector<std::uint8_t> frame, Frequency rate, DoneFn done) {
  PICO_REQUIRE(!busy_, "link layer is busy (stop-and-wait: one frame in flight)");
  PICO_REQUIRE(!frame.empty(), "cannot send an empty frame");
  busy_ = true;
  frame_ = std::move(frame);
  rate_ = rate;
  done_ = std::move(done);
  attempt_ = 0;
  attempt();
}

void LinkLayer::attempt() {
  ++attempt_;
  ++c_.tx_attempts;
  if (attempt_ > 1) ++c_.retries;
  tx_.transmit(frame_, rate_, [this](bool ok) {
    if (!ok) {
      // Transmitter-level failure (rail collapse, oscillator startup):
      // no energy went on air for the ACK to confirm. A frame faded by
      // the channel-loss fault also lands here — the PA spent the
      // energy, but the base station never saw the frame, so the link
      // layer learns about it the same way: silence. Either way the
      // retry budget applies.
      ++c_.tx_errors;
      on_timeout();
      return;
    }
    open_listen();
  });
}

void LinkLayer::open_listen() {
  listening_ = true;
  listen_opened_at_ = sim_.now().value();
  if (listen_bill_) listen_bill_(true);
  timeout_event_ = sim_.schedule_in(prm_.ack_timeout, [this] { on_timeout(); },
                                    "arq ack timeout");
  // Comparator noise can fire the correlator during the window: a false
  // ACK is indistinguishable from a real one and silently loses the
  // frame. Drawn once per window against the expected false-wake count.
  const double p_false = std::min(
      1.0, wakeup_.params().false_wake_rate_hz * prm_.ack_timeout.value());
  if (p_false > 0.0 && rng_.chance(p_false)) {
    const double at = rng_.uniform(0.0, prm_.ack_timeout.value());
    sim_.schedule_in(Duration{at}, [this] {
      if (!listening_) return;
      ++c_.false_acks;
      close_listen();
      const bool had_frame = busy_;
      busy_ = false;
      ++c_.acked;  // the node believes it was delivered
      if (had_frame && done_) {
        auto done = std::move(done_);
        done_ = nullptr;
        done(true);
      }
    }, "arq false ack");
  }
}

void LinkLayer::close_listen() {
  if (!listening_) return;
  listening_ = false;
  c_.ack_listen_s += sim_.now().value() - listen_opened_at_;
  if (listen_bill_) listen_bill_(false);
  if (timeout_event_ != 0) {
    sim_.cancel(timeout_event_);
    timeout_event_ = 0;
  }
}

void LinkLayer::deliver_ack(double rx_dbm) {
  if (!listening_) return;  // window closed: burst wasted
  if (!wakeup_.try_wake(rx_dbm)) {
    // The burst arrived but the correlator missed it (weak downlink).
    // The window stays open — maybe noise rescues it, usually the
    // timeout fires and the node pays a retry for a frame that was
    // actually delivered (the base station will see a duplicate).
    ++c_.missed_acks;
    return;
  }
  close_listen();
  busy_ = false;
  ++c_.acked;
  if (done_) {
    auto done = std::move(done_);
    done_ = nullptr;
    done(true);
  }
}

void LinkLayer::on_timeout() {
  if (listening_) {
    ++c_.ack_timeouts;
    timeout_event_ = 0;  // we are inside the timeout event
    close_listen();
  }
  if (attempt_ > prm_.max_retries) {
    busy_ = false;
    ++c_.failed;
    if (flight_ != nullptr) {
      flight_->push({sim_.now().value(), obs::FlightEventKind::kArqExhausted,
                     flight_node_, static_cast<std::uint32_t>(attempt_), 0.0});
    }
    if (done_) {
      auto done = std::move(done_);
      done_ = nullptr;
      done(false);
    }
    return;
  }
  // Randomized binary-exponential backoff, capped.
  const double window = std::min(
      prm_.backoff_base.value() * static_cast<double>(1ULL << (attempt_ - 1)),
      prm_.backoff_cap.value());
  const double delay = window > 0.0 ? rng_.uniform(0.0, window) : 0.0;
  sim_.schedule_in(Duration{delay}, [this] { attempt(); }, "arq backoff");
}

void LinkLayer::publish_metrics(obs::MetricsRegistry& m) const {
  const auto c = [&m](const char* name, double v) { m.add(m.counter(name), v); };
  c("net.tx_attempts", static_cast<double>(c_.tx_attempts));
  c("net.retries", static_cast<double>(c_.retries));
  c("net.acked", static_cast<double>(c_.acked));
  c("net.failed", static_cast<double>(c_.failed));
  c("net.ack_timeouts", static_cast<double>(c_.ack_timeouts));
  c("net.false_acks", static_cast<double>(c_.false_acks));
  c("net.missed_acks", static_cast<double>(c_.missed_acks));
  c("net.ack_listen_s", c_.ack_listen_s);
}

}  // namespace pico::net
