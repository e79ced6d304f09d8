// Tests for the acknowledged link layer: stop-and-wait ARQ on the wake-up
// receiver, the base station's capture/collision resolution and dedup, and
// the shared-medium fleet mode's thread-count invariance.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/fleet.hpp"
#include "core/node.hpp"
#include "net/basestation.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "radio/channel.hpp"
#include "radio/packet.hpp"
#include "radio/receiver.hpp"
#include "radio/transmitter.hpp"
#include "radio/wakeup.hpp"
#include "sim/simulator.hpp"

namespace pico::net {
namespace {

using namespace pico::literals;

// --- ARQ link layer ---------------------------------------------------------

struct ArqFixture : ::testing::Test {
  sim::Simulator sim;
  radio::FbarOokTransmitter tx{sim, radio::FbarOscillator{radio::FbarResonator{}}};

  radio::WakeupReceiver::Params quiet_wakeup() {
    radio::WakeupReceiver::Params wp;
    wp.false_wake_rate_hz = 0.0;  // deterministic: no comparator noise
    return wp;
  }

  LinkLayer make_link(ArqParams p = {}) {
    tx.set_digital_rail(1_V);
    tx.set_rf_rail(Voltage{0.65});
    return LinkLayer{sim, tx, radio::WakeupReceiver{quiet_wakeup(), 11}, p, 4711};
  }
};

TEST_F(ArqFixture, AckStopsRetriesAfterFirstAttempt) {
  LinkLayer link = make_link();
  // A strong ACK burst lands 1 ms after each frame finishes on air.
  tx.set_frame_listener([&](const radio::RfFrame&) {
    sim.schedule_in(1_ms, [&] { link.deliver_ack(-20.0); }, "test ack");
  });
  int done_ok = -1;
  link.send({0xAA, 0x55, 0x01}, 200_kHz, [&](bool ok) { done_ok = ok ? 1 : 0; });
  EXPECT_TRUE(link.busy());
  sim.run_until(2_s);
  EXPECT_EQ(done_ok, 1);
  EXPECT_FALSE(link.busy());
  EXPECT_FALSE(link.listening());
  const auto& c = link.counters();
  EXPECT_EQ(c.tx_attempts, 1u);
  EXPECT_EQ(c.retries, 0u);
  EXPECT_EQ(c.acked, 1u);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(c.ack_timeouts, 0u);
  // The listen window was open from frame end to the ACK (~1 ms), not the
  // full timeout.
  EXPECT_GT(c.ack_listen_s, 0.0);
  EXPECT_LT(c.ack_listen_s, link.params().ack_timeout.value());
}

TEST_F(ArqFixture, SilentChannelRetriesThenGivesUp) {
  LinkLayer link = make_link();
  int done_ok = -1;
  link.send({0xDE, 0xAD}, 200_kHz, [&](bool ok) { done_ok = ok ? 1 : 0; });
  sim.run_until(5_s);
  EXPECT_EQ(done_ok, 0);
  const auto& c = link.counters();
  const auto attempts = static_cast<std::uint64_t>(1 + link.params().max_retries);
  EXPECT_EQ(c.tx_attempts, attempts);
  EXPECT_EQ(c.retries, attempts - 1);
  EXPECT_EQ(c.ack_timeouts, attempts);  // every window expired silent
  EXPECT_EQ(c.acked, 0u);
  EXPECT_EQ(c.failed, 1u);
  // Every expired window was open for the full timeout.
  EXPECT_NEAR(c.ack_listen_s,
              static_cast<double>(attempts) * link.params().ack_timeout.value(),
              1e-9);
}

TEST_F(ArqFixture, AckOnSecondAttemptCostsExactlyOneRetry) {
  LinkLayer link = make_link();
  int frames_on_air = 0;
  tx.set_frame_listener([&](const radio::RfFrame&) {
    if (++frames_on_air == 2) {
      sim.schedule_in(1_ms, [&] { link.deliver_ack(-20.0); }, "test ack");
    }
  });
  int done_ok = -1;
  link.send({0x42}, 200_kHz, [&](bool ok) { done_ok = ok ? 1 : 0; });
  sim.run_until(5_s);
  EXPECT_EQ(done_ok, 1);
  EXPECT_EQ(frames_on_air, 2);
  const auto& c = link.counters();
  EXPECT_EQ(c.tx_attempts, 2u);
  EXPECT_EQ(c.retries, 1u);
  EXPECT_EQ(c.ack_timeouts, 1u);
  EXPECT_EQ(c.acked, 1u);
}

TEST_F(ArqFixture, WeakAckBurstIsMissedAndCostsRetries) {
  LinkLayer link = make_link();
  // The burst arrives, but 30 dB under the wake-up receiver's sensitivity
  // the correlator cannot fire — which must read as a timeout, not an ACK.
  tx.set_frame_listener([&](const radio::RfFrame&) {
    sim.schedule_in(1_ms, [&] { link.deliver_ack(-90.0); }, "weak ack");
  });
  int done_ok = -1;
  link.send({0x13, 0x37}, 200_kHz, [&](bool ok) { done_ok = ok ? 1 : 0; });
  sim.run_until(5_s);
  EXPECT_EQ(done_ok, 0);
  const auto& c = link.counters();
  EXPECT_GT(c.missed_acks, 0u);
  EXPECT_EQ(c.acked, 0u);
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.retries, static_cast<std::uint64_t>(link.params().max_retries));
}

TEST_F(ArqFixture, ListenBillTogglesMatchWindowTime) {
  LinkLayer link = make_link();
  double opened_at = -1.0;
  double billed_s = 0.0;
  int toggles = 0;
  link.set_listen_bill([&](bool on) {
    ++toggles;
    if (on) {
      ASSERT_LT(opened_at, 0.0);  // never double-opened
      opened_at = sim.now().value();
    } else {
      ASSERT_GE(opened_at, 0.0);  // never double-closed
      billed_s += sim.now().value() - opened_at;
      opened_at = -1.0;
    }
  });
  link.send({0x99, 0x88, 0x77}, 200_kHz, [](bool) {});
  sim.run_until(5_s);
  // Windows come in balanced open/close pairs and the billed time is
  // exactly what the layer accounted.
  EXPECT_LT(opened_at, 0.0);
  EXPECT_EQ(toggles % 2, 0);
  EXPECT_EQ(toggles / 2, 1 + link.params().max_retries);
  EXPECT_NEAR(billed_s, link.counters().ack_listen_s, 1e-12);
}

TEST_F(ArqFixture, MetricsCarryArqCounters) {
  LinkLayer link = make_link();
  link.send({0x01}, 200_kHz, [](bool) {});
  sim.run_until(5_s);
  obs::MetricsRegistry m;
  link.publish_metrics(m);
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.value("net.tx_attempts"),
            static_cast<double>(link.counters().tx_attempts));
  EXPECT_EQ(snap.value("net.retries"),
            static_cast<double>(link.counters().retries));
  EXPECT_EQ(snap.value("net.ack_timeouts"),
            static_cast<double>(link.counters().ack_timeouts));
}

// --- Base station: capture, collision, dedup --------------------------------

struct BsFixture : ::testing::Test {
  sim::Simulator sim;
  radio::PacketCodec codec;

  radio::Channel channel_at(double meters, std::uint64_t seed) {
    radio::Channel::Params cp;
    cp.distance = Length{meters};
    return radio::Channel{radio::PatchAntenna{}, cp, seed};
  }

  radio::RfFrame frame_at(double start_s, std::uint8_t seq) {
    radio::Packet p;
    p.node_id = 1;
    p.seq = seq;
    p.payload = {0x10, 0x20, 0x30};
    radio::RfFrame f;
    f.start = Duration{start_s};
    f.data_rate = 200_kHz;
    f.tx_power = Power{1.2e-3};
    f.bytes = codec.encode(p);
    return f;
  }
};

TEST_F(BsFixture, StrongFrameCapturesWeakFrameCollides) {
  BaseStation bs{sim, BaseStation::Params{}};
  // 0.3 m vs 3.0 m is a 20 dB power gap — over the 6 dB capture margin.
  const int near = bs.attach_node(channel_at(0.3, 1), channel_at(0.3, 2), nullptr);
  const int far = bs.attach_node(channel_at(3.0, 3), channel_at(3.0, 4), nullptr);
  auto f_near = frame_at(0.0, 1);
  auto f_far = frame_at(0.0, 1);  // fully overlapping on air
  bs.frame_started(near, f_near);
  bs.frame_started(far, f_far);
  bs.frame_completed(near, f_near);
  bs.frame_completed(far, f_far);
  const auto& c = bs.counters();
  EXPECT_EQ(c.frames_on_air, 2u);
  EXPECT_EQ(c.frames_completed, 2u);
  EXPECT_EQ(c.captured, 1u);
  EXPECT_EQ(c.collided, 1u);
  // The capture survived demodulation at its SINR (~20 dB).
  EXPECT_EQ(c.delivered, 1u);
  // Both frames occupied the medium.
  EXPECT_NEAR(c.airtime_s, 2.0 * f_near.airtime().value(), 1e-12);
}

TEST_F(BsFixture, ComparablePowersCollideBothWays) {
  BaseStation bs{sim, BaseStation::Params{}};
  const int a = bs.attach_node(channel_at(1.0, 1), channel_at(1.0, 2), nullptr);
  const int b = bs.attach_node(channel_at(1.0, 3), channel_at(1.0, 4), nullptr);
  auto fa = frame_at(0.0, 1);
  auto fb = frame_at(0.0, 1);
  bs.frame_started(a, fa);
  bs.frame_started(b, fb);
  bs.frame_completed(a, fa);
  bs.frame_completed(b, fb);
  EXPECT_EQ(bs.counters().collided, 2u);
  EXPECT_EQ(bs.counters().captured, 0u);
  EXPECT_EQ(bs.counters().delivered, 0u);
}

TEST_F(BsFixture, DuplicateSequenceIsDroppedAndReAcked) {
  BaseStation bs{sim, BaseStation::Params{}};
  int acks = 0;
  const int port = bs.attach_node(channel_at(1.0, 1), channel_at(1.0, 2),
                                  [&](double rx_dbm) {
                                    ++acks;
                                    EXPECT_GT(rx_dbm, -60.0);  // 1 m downlink
                                  });
  // Same sequence number twice, non-overlapping: a retransmission whose
  // ACK the node missed.
  auto first = frame_at(0.0, 7);
  auto retx = frame_at(1.0, 7);
  bs.frame_started(port, first);
  bs.frame_completed(port, first);
  bs.frame_started(port, retx);
  bs.frame_completed(port, retx);
  sim.run_until(5_s);  // flush the scheduled ACK bursts
  const auto& c = bs.counters();
  EXPECT_EQ(c.delivered, 1u);
  EXPECT_EQ(c.dup_rx, 1u);
  EXPECT_EQ(c.acks_sent, 2u);  // the duplicate is re-ACKed, not ignored
  EXPECT_EQ(acks, 2);
  // Only the unique frame's payload counts toward delivered bits.
  EXPECT_EQ(c.delivered_payload_bits, 3u * 8u);
}

TEST_F(BsFixture, FadedLinkFallsBelowSquelch) {
  BaseStation bs{sim, BaseStation::Params{}};
  const int port = bs.attach_node(channel_at(100.0, 1), channel_at(100.0, 2), nullptr);
  auto f = frame_at(0.0, 1);
  bs.frame_started(port, f);
  bs.frame_completed(port, f);
  const auto& c = bs.counters();
  EXPECT_EQ(c.below_squelch, 1u);
  EXPECT_EQ(c.delivered, 0u);
  EXPECT_EQ(c.acks_sent, 0u);
}

TEST_F(BsFixture, AckBurstDurationFollowsCodeAndChipRate) {
  BaseStation bs{sim, BaseStation::Params{}};
  const auto& p = bs.params();
  EXPECT_DOUBLE_EQ(bs.ack_burst_duration().value(),
                   static_cast<double>(p.ack_code_bits) / p.ack_chip_rate.value());
}

// --- Node-level ARQ end-to-end ----------------------------------------------

TEST(NetNode, ArqNodeDeliversAndReportsEnergyPerBit) {
  core::NodeConfig nc;
  nc.sensor = core::NodeConfig::Sensor::kTpms;
  nc.drive = harvest::make_city_cycle();
  nc.seed = 77;
  nc.link.mode = core::NodeConfig::Link::Mode::kArq;
  nc.link.own_base_station = true;
  core::PicoCubeNode node(nc);
  node.run(60_s);
  ASSERT_NE(node.link_layer(), nullptr);
  ASSERT_NE(node.base_station(), nullptr);
  EXPECT_GT(node.link_layer()->counters().acked, 0u);
  EXPECT_GT(node.base_station()->counters().delivered, 0u);
  obs::MetricsRegistry m;
  node.publish_metrics(m);
  const auto snap = m.snapshot();
  EXPECT_GT(snap.value("net.acked"), 0.0);
  EXPECT_GT(snap.value("net.delivered"), 0.0);
  EXPECT_GT(snap.value("net.energy_per_delivered_bit"), 0.0);
}

TEST(NetNode, RecordingOffChangesNothingButTraces) {
  // Waveform recording is output only: switching it off must leave every
  // energy, device ledger and interval count bit-identical, and the traces
  // must hold only the sample the accountant takes at construction.
  auto run = [](bool recording) {
    core::NodeConfig nc;
    nc.sensor = core::NodeConfig::Sensor::kTpms;
    nc.drive = harvest::make_city_cycle();
    nc.seed = 77;
    nc.link.mode = core::NodeConfig::Link::Mode::kArq;
    nc.link.own_base_station = true;
    auto node = std::make_unique<core::PicoCubeNode>(nc);
    node->accountant().set_recording(recording);
    node->run(120_s);
    return node;
  };
  const auto on = run(true);
  const auto off = run(false);
  const core::NodeReport a = on->report();
  const core::NodeReport b = off->report();
  EXPECT_EQ(a.battery_energy_out.value(), b.battery_energy_out.value());
  EXPECT_EQ(a.harvested_energy_in.value(), b.harvested_energy_in.value());
  EXPECT_EQ(a.average_power.value(), b.average_power.value());
  EXPECT_EQ(a.sleep_floor.value(), b.sleep_floor.value());
  EXPECT_EQ(a.management_overhead.value(), b.management_overhead.value());
  EXPECT_EQ(a.soc_end, b.soc_end);
  EXPECT_EQ(a.wake_cycles, b.wake_cycles);
  EXPECT_EQ(a.frames_ok, b.frames_ok);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].name, b.devices[i].name);
    EXPECT_EQ(a.devices[i].energy_j, b.devices[i].energy_j) << a.devices[i].name;
    EXPECT_EQ(a.devices[i].current.value(), b.devices[i].current.value()) << a.devices[i].name;
  }
  EXPECT_EQ(on->accountant().integration_intervals(), off->accountant().integration_intervals());
  EXPECT_GT(a.wake_cycles, 0u);
  EXPECT_GT(on->link_layer()->counters().acked, 0u);

  // The accountant's channels.
  for (const char* name : {"p_node", "i_batt", "i_harvest", "v_batt", "soc", "p_mcu_rail",
                           "p_radio_rf", "p_radio_dig"}) {
    ASSERT_NE(off->traces().find(name), nullptr) << name;
    EXPECT_EQ(off->traces().find(name)->size(), 1u) << name;
    EXPECT_GT(on->traces().find(name)->size(), 1u) << name;
  }
}

// --- Shared-medium fleet: determinism ---------------------------------------

core::FleetConfig shared_fleet(bool arq) {
  core::FleetConfig cfg;
  cfg.nodes = 4;
  cfg.sim_time = Duration{120.0};
  cfg.arq = arq;
  cfg.wakeup.false_wake_rate_hz = 0.0;
  return cfg;
}

std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
           std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t, double,
           double>
fingerprint(const core::FleetResult& r) {
  return {r.frames_total,    r.frames_collided, r.frames_captured,
          r.frames_delivered, r.dup_rx,          r.tx_attempts,
          r.retries,          r.acked,           r.energy_out_j,
          r.energy_per_delivered_bit_j};
}

TEST(NetSharedMedium, RepeatedRunsAreIdentical) {
  // One timeline, no hidden state: the same config run three times gives
  // bitwise-identical results.
  const auto cfg = shared_fleet(/*arq=*/true);
  const auto r1 = core::FleetAnalysis::run(cfg);
  const auto r2 = core::FleetAnalysis::run(cfg);
  const auto r3 = core::FleetAnalysis::run(cfg);
  EXPECT_EQ(fingerprint(r1), fingerprint(r2));
  EXPECT_EQ(fingerprint(r1), fingerprint(r3));
  // And the run did real work: frames flowed and were acknowledged.
  EXPECT_GT(r1.frames_total, 0u);
  EXPECT_GT(r1.acked, 0u);
  EXPECT_GT(r1.energy_per_delivered_bit_j, 0.0);
}

TEST(NetSharedMedium, BeaconModeDeliversWithoutArqTraffic) {
  const auto r = core::FleetAnalysis::run(shared_fleet(/*arq=*/false));
  EXPECT_GT(r.frames_total, 0u);
  EXPECT_GT(r.frames_delivered, 0u);
  // No link layer: no attempts, retries or ACKs are counted.
  EXPECT_EQ(r.tx_attempts, 0u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.acked, 0u);
  EXPECT_EQ(r.dup_rx, 0u);
  ASSERT_EQ(r.intervals_s.size(), 4u);
  for (double s : r.intervals_s) EXPECT_NEAR(s, 6.0, 0.1);
}

TEST(NetSharedMedium, FourWheelsTwoHoursPinTheE15Table) {
  // E15's four-wheel paper check, pinned exactly: the default fleet (four
  // nodes, seed 99) on the shared timeline for two hours puts 4797 frames
  // on air and none collides.
  core::FleetConfig cfg;
  cfg.sim_time = Duration{7200.0};
  const auto r = core::FleetAnalysis::run(cfg);
  EXPECT_EQ(r.frames_total, 4797u);
  EXPECT_EQ(r.frames_collided, 0u);
  // The four drawn timers (6.0138, 5.9573, 6.0277, 6.0077 s), bit for bit.
  EXPECT_EQ(r.intervals_s, (std::vector<double>{0x1.80e2c70824410p+2, 0x1.7d44126602038p+2,
                                                0x1.81c56647fbbbap+2, 0x1.807dc79f94af0p+2}));
}

TEST(NetSharedMedium, ArqReferencePinned) {
  // The ARQ reference the fleet kernel is measured against, pinned
  // exactly: 16 ARQ nodes on the shared timeline for 15 minutes.
  core::FleetConfig cfg;
  cfg.nodes = 16;
  cfg.sim_time = Duration{900.0};
  cfg.arq = true;
  cfg.seed = 2008;
  const auto r = core::FleetAnalysis::run(cfg);
  EXPECT_EQ(r.frames_total, 2446u);
  EXPECT_EQ(r.frames_collided, 58u);
  EXPECT_EQ(r.frames_captured, 0u);
  EXPECT_EQ(r.frames_delivered, 2388u);
  EXPECT_EQ(r.dup_rx, 0u);
  EXPECT_EQ(r.tx_attempts, 2446u);
  EXPECT_EQ(r.retries, 58u);
  EXPECT_EQ(r.acked, 2388u);
  EXPECT_EQ(r.arq_failed, 0u);
  EXPECT_EQ(r.delivered_payload_bits, 152832u);
  EXPECT_EQ(r.energy_out_j, 0x1.c9266d5bdfa21p-4);
  EXPECT_EQ(r.energy_per_delivered_bit_j, 0x1.880fcdb5474bfp-21);
}

}  // namespace
}  // namespace pico::net
