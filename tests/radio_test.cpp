// Tests for the radio chain: packets, FBAR, transmitter, antenna, channel,
// receiver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "radio/antenna.hpp"
#include "radio/channel.hpp"
#include "radio/fbar.hpp"
#include "radio/packet.hpp"
#include "radio/receiver.hpp"
#include "radio/transmitter.hpp"

namespace pico::radio {
namespace {

using namespace pico::literals;

// --- Packets ---------------------------------------------------------------

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE("123456789") == 0x29B1.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(data, sizeof data), 0x29B1);
}

TEST(PacketCodec, RoundTrip) {
  PacketCodec codec;
  Packet p;
  p.node_id = 7;
  p.seq = 42;
  p.payload = {1, 2, 3, 4, 5};
  const auto frame = codec.encode(p);
  EXPECT_EQ(frame.size(), codec.frame_bytes(p));
  const auto decoded = codec.decode(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, p);
}

TEST(PacketCodec, DetectsCorruption) {
  PacketCodec codec;
  Packet p;
  p.payload = {9, 9, 9};
  auto frame = codec.encode(p);
  frame[frame.size() - 3] ^= 0x10;  // flip a payload bit
  EXPECT_FALSE(codec.decode(frame).has_value());
}

TEST(PacketCodec, SurvivesPreambleDamage) {
  PacketCodec codec;
  Packet p;
  p.node_id = 3;
  p.payload = {0xAB};
  auto frame = codec.encode(p);
  frame[0] ^= 0xFF;  // preamble byte destroyed; sync scan must still work
  const auto decoded = codec.decode(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->node_id, 3);
}

TEST(PacketCodec, RejectsOversizePayload) {
  PacketCodec codec;
  Packet p;
  p.payload.assign(100, 0);
  EXPECT_THROW(codec.encode(p), pico::DesignError);
}

TEST(PacketCodec, EmptyPayloadOk) {
  PacketCodec codec;
  Packet p;
  const auto decoded = codec.decode(codec.encode(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(Bits, RoundTrip) {
  const std::vector<std::uint8_t> bytes{0xDE, 0xAD, 0x01};
  EXPECT_EQ(bits_to_bytes(bytes_to_bits(bytes)), bytes);
}

TEST(PayloadCodec, TpmsRoundTrip) {
  sensors::TpmsSample s;
  s.pressure = Pressure{231500.0};
  s.temperature = Temperature{298.65};
  s.accel = Acceleration{830.0};
  s.supply = Voltage{2.487};
  std::vector<std::uint8_t> p;
  encode_tpms_payload_into(s, p);
  EXPECT_EQ(p.size(), 8u);
  const auto d = decode_tpms_payload(p);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(d->pressure.value(), s.pressure.value(), 100.0);   // 0.1 kPa quantization
  EXPECT_NEAR(d->temperature.value(), s.temperature.value(), 0.01);
  EXPECT_NEAR(d->accel.value(), s.accel.value(), 0.1);
  EXPECT_NEAR(d->supply.value(), s.supply.value(), 0.001);
}

TEST(PayloadCodec, AccelRoundTrip) {
  sensors::Accel3 a{1.25, -3.5, 9.81};
  const auto p = encode_accel_payload(a);
  EXPECT_EQ(p.size(), 6u);
  const auto d = decode_accel_payload(p);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(d->x, a.x, 0.01);
  EXPECT_NEAR(d->y, a.y, 0.01);
  EXPECT_NEAR(d->z, a.z, 0.01);
}

TEST(PayloadCodec, WrongSizeRejected) {
  EXPECT_FALSE(decode_tpms_payload({1, 2, 3}).has_value());
  EXPECT_FALSE(decode_accel_payload({1, 2, 3}).has_value());
}

// --- FBAR -------------------------------------------------------------------

TEST(Fbar, StartupTimeMicroseconds) {
  FbarOscillator osc{FbarResonator{}};
  // Q=1200 at 1.863 GHz: tau ~ 0.2 us, startup ~ 2 us.
  EXPECT_GT(osc.startup_time().value(), 0.5e-6);
  EXPECT_LT(osc.startup_time().value(), 10e-6);
}

// --- Transmitter --------------------------------------------------------------

struct TxFixture : ::testing::Test {
  sim::Simulator sim;
  FbarOokTransmitter tx{sim, FbarOscillator{FbarResonator{}}};

  void rails_up() {
    tx.set_digital_rail(1_V);
    tx.set_rf_rail(Voltage{0.65});
  }
};

TEST_F(TxFixture, PaperHeadlineNumbers) {
  // 46% efficiency at 1.2 mW -> 2.6 mW DC; 50% OOK -> 1.3 mW.
  EXPECT_NEAR(tx.dc_power_at_duty(1.0).value(), 2.6e-3, 0.05e-3);
  EXPECT_NEAR(tx.dc_power_at_duty(0.5).value(), 1.3e-3, 0.05e-3);
  EXPECT_NEAR(watts_to_dbm(tx.params().tx_power), 0.8, 0.05);
  EXPECT_NEAR(tx.carrier_on_current().value(), 2.6e-3 / 0.65, 1e-4);
}

TEST_F(TxFixture, RefusesWithoutRails) {
  bool ok = true;
  tx.transmit({0xAA, 0x55}, 200_kHz, [&](bool r) { ok = r; });
  EXPECT_FALSE(ok);
}

TEST_F(TxFixture, TransmitTimingAndFrameListener) {
  rails_up();
  bool ok = false;
  RfFrame seen;
  tx.set_frame_listener([&](const RfFrame& f) { seen = f; });
  const std::vector<std::uint8_t> frame{0xAA, 0xAA, 0x2D, 0xD4, 0x01};
  tx.transmit(frame, 100_kHz, [&](bool r) { ok = r; });
  EXPECT_TRUE(tx.busy());
  // 5 bytes at 100 kbps = 400 us plus ~2 us startup.
  sim.run_until(300_us);
  EXPECT_FALSE(ok);
  sim.run_until(500_us);
  EXPECT_TRUE(ok);
  EXPECT_FALSE(tx.busy());
  EXPECT_EQ(seen.bytes, frame);
  EXPECT_EQ(tx.frames_sent(), 1u);
}

TEST_F(TxFixture, CurrentFollowsOokDuty) {
  rails_up();
  double max_rf = 0.0;
  tx.set_current_listener([&](Current rf, Current) {
    max_rf = std::max(max_rf, rf.value());
  });
  tx.transmit({0xFF, 0x00}, 330_kHz, {});
  sim.run_until(1_ms);
  // 0xFF byte: full carrier current + core.
  const double expect =
      tx.carrier_on_current().value() + tx.oscillator().params().core_current.value();
  EXPECT_NEAR(max_rf, expect, 1e-6);
}

TEST_F(TxFixture, EnergyMatchesDutyIntegral) {
  rails_up();
  // Accumulate charge via listener on an alternating frame (50% duty).
  double last_t = 0.0;
  double last_i = 0.0;
  double charge = 0.0;
  tx.set_current_listener([&](Current rf, Current) {
    const double now = sim.now().value();
    charge += last_i * (now - last_t);
    last_t = now;
    last_i = rf.value();
  });
  const std::vector<std::uint8_t> frame(10, 0xAA);  // exactly 50% ones
  bool done = false;
  tx.transmit(frame, 200_kHz, [&](bool) { done = true; });
  sim.run_until(1_ms);
  ASSERT_TRUE(done);
  const double bit_time = 80.0 / 200e3;
  const double expected = tx.carrier_on_current().value() * 0.5 * bit_time +
                          tx.oscillator().params().core_current.value() *
                              (bit_time + tx.oscillator().startup_time().value());
  EXPECT_NEAR(charge, expected, expected * 0.02);
}

TEST_F(TxFixture, RailCollapseAborts) {
  rails_up();
  bool ok = true;
  bool done = false;
  tx.transmit(std::vector<std::uint8_t>(20, 0xAA), 100_kHz, [&](bool r) {
    ok = r;
    done = true;
  });
  sim.schedule_at(500_us, [&] { tx.set_rf_rail(Voltage{0.0}); });
  sim.run_until(5_ms);
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
}

TEST_F(TxFixture, DataRateLimitEnforced) {
  rails_up();
  EXPECT_THROW(tx.transmit({0x01}, 400_kHz, {}), pico::DesignError);
}

TEST_F(TxFixture, OscillatorFaultInjection) {
  FbarOscillator::Params op;
  op.startup_failure_prob = 1.0;
  FbarOokTransmitter flaky{sim, FbarOscillator{FbarResonator{}, op}};
  flaky.set_digital_rail(1_V);
  flaky.set_rf_rail(Voltage{0.65});
  bool ok = true;
  flaky.transmit({0xAA}, 100_kHz, [&](bool r) { ok = r; });
  sim.run_until(1_ms);
  EXPECT_FALSE(ok);
  EXPECT_EQ(flaky.frames_sent(), 0u);
}

// --- Antenna & channel --------------------------------------------------------

TEST(Antenna, ShippedDesignIsCompromised) {
  PatchAntenna shipped;  // 50 mil, eps_r 10.2
  PatchAntenna::Params ideal_p;
  ideal_p.thickness = Length{70 * 25.4e-6};
  PatchAntenna ideal(ideal_p);
  EXPECT_LT(shipped.efficiency(), ideal.efficiency());
  // Both are electrically small on an 8 mm board at 1.863 GHz.
  EXPECT_FALSE(shipped.fits_board());
}

TEST(Antenna, EfficiencyMonotoneInThickness) {
  double prev = 0.0;
  for (double mil : {20.0, 35.0, 50.0, 70.0, 100.0}) {
    PatchAntenna::Params p;
    p.thickness = Length{mil * 25.4e-6};
    const double eff = PatchAntenna(p).efficiency();
    EXPECT_GT(eff, prev);
    prev = eff;
  }
}

TEST(Antenna, FriisPathLoss) {
  // FSPL at 1.863 GHz over 1 m ~ 37.9 dB.
  const auto loss_db = [](Length d) { return ratio_to_db(friis_path_loss(1.863_GHz, d)); };
  EXPECT_NEAR(loss_db(1_m), 37.85, 0.2);
  // +20 dB per decade of distance.
  EXPECT_NEAR(loss_db(10_m) - loss_db(1_m), 20.0, 1e-6);
}

TEST(Channel, MinusSixtyDbmAtOneMeter) {
  // The paper's measured signal strength: ~-60 dBm at 1 m.
  Channel ch{PatchAntenna{}};
  const double dbm = ch.received_power_dbm(Power{1.2e-3});
  EXPECT_NEAR(dbm, -60.0, 3.0);
}

TEST(Channel, PowerFallsWithDistance) {
  Channel near{PatchAntenna{}};
  Channel::Params cp;
  cp.distance = 2_m;
  Channel far{PatchAntenna{}, cp};
  const double at1 = near.received_power_dbm(Power{1.2e-3});
  const double at2 = far.received_power_dbm(Power{1.2e-3});
  EXPECT_NEAR(at1 - at2, 6.0, 0.1);
}

TEST(Channel, OrientationMatters) {
  Channel ch{PatchAntenna{}};
  Channel::Params cp;
  cp.tx_alignment = 0.05;
  Channel off_axis{PatchAntenna{}, cp};
  const double aligned = ch.received_power_dbm(Power{1.2e-3});
  const double misaligned = off_axis.received_power_dbm(Power{1.2e-3});
  EXPECT_LT(misaligned, aligned - 10.0);
}

// --- Receiver -----------------------------------------------------------------

TEST(Receiver, DecodesCleanFrameAtOneMeter) {
  SuperregenReceiver rx{Channel{PatchAntenna{}}};
  PacketCodec codec;
  Packet p;
  p.node_id = 1;
  p.seq = 9;
  p.payload = {1, 2, 3, 4, 5, 6};
  RfFrame f;
  f.data_rate = 200_kHz;
  f.tx_power = Power{1.2e-3};
  f.bytes = codec.encode(p);
  const auto r = rx.receive(f);
  EXPECT_TRUE(r.detected);
  ASSERT_TRUE(r.packet.has_value());
  EXPECT_EQ(*r.packet, p);
  EXPECT_EQ(rx.frames_decoded(), 1u);
}

TEST(Receiver, OutOfRangeNotDetected) {
  Channel::Params cp;
  cp.distance = Length{100.0};
  SuperregenReceiver rx{Channel{PatchAntenna{}, cp}};
  RfFrame f;
  f.data_rate = 200_kHz;
  f.tx_power = Power{1.2e-3};
  f.bytes = {0xAA, 0xAA};
  const auto r = rx.receive(f);
  EXPECT_FALSE(r.detected);
  EXPECT_FALSE(r.packet.has_value());
}

TEST(Receiver, BerFormula) {
  EXPECT_DOUBLE_EQ(SuperregenReceiver::ook_ber(0.0), 0.5);
  EXPECT_NEAR(SuperregenReceiver::ook_ber(2.0), 0.5 * std::exp(-1.0), 1e-12);
  EXPECT_LT(SuperregenReceiver::ook_ber(40.0), 1e-8);
}

// --- Fading coherence (regression: one frame, one shadowing draw) -----------

TEST(Channel, SampleLinkFieldsDeriveFromOneShadowingDraw) {
  Channel::Params cp;
  cp.shadowing_sigma_db = 8.0;
  Channel ch{PatchAntenna{}, cp, 1234};
  const double noise_w = ch.noise_power(200_kHz).value();
  for (int i = 0; i < 64; ++i) {
    const auto s = ch.sample_link(Power{1.2e-3}, 200_kHz);
    // Every field of the sample is the same realization.
    EXPECT_NEAR(s.rx_dbm, watts_to_dbm(s.p_rx), 1e-9);
    EXPECT_NEAR(s.snr, s.p_rx.value() / noise_w, s.snr * 1e-12);
  }
}

TEST(Channel, SampleLinkConsumesExactlyOneDraw) {
  // Stream alignment: a sample_link call advances the shadowing RNG by
  // exactly one draw, so legacy received_power sequences stay
  // bit-identical when calls are swapped one-for-one.
  Channel::Params cp;
  cp.shadowing_sigma_db = 6.0;
  Channel a{PatchAntenna{}, cp, 777};
  Channel b{PatchAntenna{}, cp, 777};
  const double a1 = a.received_power(Power{1.2e-3}).value();
  const double a2 = a.received_power(Power{1.2e-3}).value();
  const double b1 = b.sample_link(Power{1.2e-3}, 200_kHz).p_rx.value();
  const double b2 = b.received_power(Power{1.2e-3}).value();
  EXPECT_DOUBLE_EQ(a1, b1);
  EXPECT_DOUBLE_EQ(a2, b2);
}

TEST(Channel, ShadowingOffIsDeterministic) {
  // sigma = 0 touches no RNG: every call returns the closed-form value.
  Channel ch{PatchAntenna{}};
  const auto s1 = ch.sample_link(Power{1.2e-3}, 200_kHz);
  const auto s2 = ch.sample_link(Power{1.2e-3}, 200_kHz);
  EXPECT_DOUBLE_EQ(s1.p_rx.value(), s2.p_rx.value());
  EXPECT_DOUBLE_EQ(s1.snr, s2.snr);
}

TEST(Receiver, DetectionAndBerShareOneFadingDraw) {
  // Regression for the double-draw bug: with shadowing on, a frame's
  // squelch decision and its SNR (hence BER) must come from the same
  // fading realization — snr_db == rx_dbm - noise_dbm identically.
  Channel::Params cp;
  cp.distance = Length{3.0};
  cp.shadowing_sigma_db = 10.0;  // deep fades: squelch flips frame-to-frame
  Channel probe{PatchAntenna{}, cp, 31};
  const double noise_dbm = watts_to_dbm(probe.noise_power(200_kHz));
  SuperregenReceiver rx{Channel{PatchAntenna{}, cp, 31},
                        SuperregenReceiver::Params{}, 5};
  RfFrame f;
  f.data_rate = 200_kHz;
  f.tx_power = Power{1.2e-3};
  f.bytes = {0xAA, 0xAA, 0x2D, 0xD4, 0x42};
  int detected = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const auto r = rx.receive(f);
    if (!r.detected) continue;
    ++detected;
    EXPECT_NEAR(r.snr_db, r.rx_power_dbm - noise_dbm, 1e-9);
  }
  // The fade must actually exercise both sides of the squelch for the
  // coherence check to mean anything.
  EXPECT_GT(detected, 0);
  EXPECT_LT(detected, trials);
  EXPECT_EQ(rx.frames_seen(), static_cast<std::uint64_t>(trials));
  EXPECT_EQ(rx.frames_detected(), static_cast<std::uint64_t>(detected));
}

// --- On-air interval (startup chirp occupies the channel) -------------------

TEST_F(TxFixture, OnAirIntervalsAgreeAcrossTxFrameAndReceiver) {
  rails_up();
  SuperregenReceiver rx{Channel{PatchAntenna{}}};
  RfFrame started;
  RfFrame completed;
  tx.set_frame_start_listener([&](const RfFrame& f) { started = f; });
  tx.set_frame_listener([&](const RfFrame& f) { completed = f; });
  const std::vector<std::uint8_t> frame(12, 0xA5);
  const double t0 = sim.now().value();
  bool done = false;
  tx.transmit(frame, 200_kHz, [&](bool ok) { done = ok; });
  sim.run_until(5_ms);
  ASSERT_TRUE(done);
  const double t_done = tx.oscillator().startup_time().value() +
                        static_cast<double>(frame.size()) * 8.0 / 200e3;
  // The frame's occupied-air interval starts at the transmit call
  // (oscillator power-up) and spans startup + bits...
  EXPECT_DOUBLE_EQ(started.start.value(), t0);
  EXPECT_DOUBLE_EQ(started.startup.value(), tx.oscillator().startup_time().value());
  // ...and all three accountings of its length agree exactly:
  const double air = tx.airtime(frame.size(), 200_kHz).value();
  EXPECT_DOUBLE_EQ(started.airtime().value(), air);        // fleet windows
  EXPECT_DOUBLE_EQ(completed.airtime().value(), air);      // channel copy
  const auto r = rx.receive(completed);
  (void)r;
  EXPECT_DOUBLE_EQ(rx.airtime_seen().value(), air);        // receiver ledger
  // The completion event lands exactly at the end of the interval.
  EXPECT_NEAR(started.start.value() + air, t0 + t_done, 1e-12);
}

// --- Squelch counter semantics (seen >= detected >= decoded) ----------------

TEST(Receiver, CounterLadderSeenDetectedDecoded) {
  PacketCodec codec;
  Packet p;
  p.payload = {1, 2, 3};
  RfFrame f;
  f.data_rate = 200_kHz;
  f.tx_power = Power{1.2e-3};
  f.bytes = codec.encode(p);

  // Below squelch: seen, not detected, airtime still accrues (the frame
  // occupied the medium whether or not this receiver could hear it).
  Channel::Params far;
  far.distance = Length{100.0};
  SuperregenReceiver rx_far{Channel{PatchAntenna{}, far}};
  const auto r1 = rx_far.receive(f);
  EXPECT_FALSE(r1.detected);
  EXPECT_EQ(rx_far.frames_seen(), 1u);
  EXPECT_EQ(rx_far.frames_detected(), 0u);
  EXPECT_EQ(rx_far.frames_decoded(), 0u);
  EXPECT_DOUBLE_EQ(rx_far.airtime_seen().value(), f.airtime().value());

  // Clean link: every rung increments.
  SuperregenReceiver rx_near{Channel{PatchAntenna{}}};
  const auto r2 = rx_near.receive(f);
  EXPECT_TRUE(r2.detected);
  ASSERT_TRUE(r2.packet.has_value());
  EXPECT_EQ(rx_near.frames_seen(), 1u);
  EXPECT_EQ(rx_near.frames_detected(), 1u);
  EXPECT_EQ(rx_near.frames_decoded(), 1u);
}

// --- PER vs distance against the closed-form BER ----------------------------

TEST(Receiver, PerVsDistanceTracksOokBerPrediction) {
  // Seeded, tolerance-banded: measured packet-error rate along a distance
  // sweep must track 1 - (1-BER)^n with BER from the closed-form ook_ber
  // at the (deterministic, shadowing-off) link SNR. Only bits after the
  // preamble are load-bearing: the codec's sync scan survives preamble
  // damage.
  PacketCodec codec;
  Packet p;
  p.payload.assign(16, 0x5A);
  RfFrame f;
  f.data_rate = 330_kHz;
  f.tx_power = Power{1.2e-3};
  f.bytes = codec.encode(p);
  const double eff_bits = static_cast<double>(
      (f.bytes.size() - codec.params().preamble_bytes) * 8);

  const int trials = 300;
  int transition_points = 0;
  double prev_per = -1.0;
  for (const double d : {1.4, 1.7, 2.0, 2.4, 2.9}) {
    Channel::Params cp;
    cp.distance = Length{d};
    cp.tx_alignment = 0.4;
    cp.noise_figure_db = 36.0;
    Channel probe{PatchAntenna{}, cp};
    const double snr = probe.sample_link(f.tx_power, f.data_rate).snr;
    const double predicted =
        1.0 - std::pow(1.0 - SuperregenReceiver::ook_ber(snr), eff_bits);

    SuperregenReceiver rx{Channel{PatchAntenna{}, cp},
                          SuperregenReceiver::Params{}, 4242};
    int lost = 0;
    for (int i = 0; i < trials; ++i) {
      if (!rx.receive(f).packet.has_value()) ++lost;
    }
    const double measured = static_cast<double>(lost) / trials;

    if (predicted > 0.05 && predicted < 0.95) {
      ++transition_points;
      // 3-sigma binomial sampling band plus modeling slack.
      const double band =
          0.06 + 3.0 * std::sqrt(predicted * (1.0 - predicted) / trials);
      EXPECT_NEAR(measured, predicted, band) << "d = " << d << " m";
    } else if (predicted <= 0.05) {
      EXPECT_LE(measured, 0.15) << "d = " << d << " m";
    } else {
      EXPECT_GE(measured, 0.85) << "d = " << d << " m";
    }
    // PER must be monotone in distance along the sweep.
    EXPECT_GE(measured, prev_per - 0.05) << "d = " << d << " m";
    prev_per = measured;
  }
  // The sweep must cross the waterfall, or the band checks proved nothing.
  EXPECT_GE(transition_points, 1);
}

TEST(Receiver, PacketErrorRateRisesNearSensitivityEdge) {
  // At low SNR (forced by a noisy, misaligned link) CRC rejects frames.
  Channel::Params cp;
  cp.distance = Length{2.0};
  cp.tx_alignment = 0.4;
  cp.noise_figure_db = 36.0;  // deliberately poor: SNR ~ 10 dB
  SuperregenReceiver rx{Channel{PatchAntenna{}, cp}, SuperregenReceiver::Params{}, 99};
  PacketCodec codec;
  Packet p;
  p.payload.assign(16, 0x5A);
  RfFrame f;
  f.data_rate = 330_kHz;
  f.tx_power = Power{1.2e-3};
  f.bytes = codec.encode(p);
  int decoded = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const auto r = rx.receive(f);
    decoded += r.packet.has_value() ? 1 : 0;
  }
  EXPECT_LT(decoded, trials);  // some loss
  EXPECT_GT(decoded, 0);       // but not a dead link
}

}  // namespace
}  // namespace pico::radio
