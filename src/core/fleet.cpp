#include "core/fleet.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pico::core {

double FleetAnalysis::aloha_collision_probability(int nodes, Duration airtime,
                                                  Duration interval) {
  PICO_REQUIRE(nodes >= 1, "need at least one node");
  PICO_REQUIRE(interval.value() > 0.0, "interval must be positive");
  // Unslotted ALOHA vulnerability window: 2*tau around each frame, (N-1)
  // independent interferers at rate 1/T.
  const double load = 2.0 * (nodes - 1) * airtime.value() / interval.value();
  return 1.0 - std::exp(-load);
}

std::vector<double> draw_beacon_intervals(std::uint64_t seed, std::size_t nodes,
                                          double nominal_s, double tolerance) {
  Rng rng(seed);
  std::vector<double> intervals(nodes);
  for (double& interval : intervals) {
    // Each node's timer runs at its own RC-tolerance period.
    interval = nominal_s * (1.0 + rng.normal(0.0, tolerance));
    PICO_REQUIRE(interval > 0.0, "drawn interval must stay positive");
  }
  return intervals;
}

FleetResult FleetAnalysis::run(const FleetConfig& cfg) {
  PICO_REQUIRE(cfg.nodes >= 1, "need at least one node");
  PICO_REQUIRE(cfg.sim_time.value() > 0.0, "simulation time must be positive");
  FleetResult res;
  res.nodes = cfg.nodes;
  res.intervals_s = draw_beacon_intervals(cfg.seed, static_cast<std::size_t>(cfg.nodes),
                                          cfg.nominal_interval.value(), cfg.interval_tolerance);

  // One timeline: N nodes plus the base station interleave on a single
  // event queue, so the run is sequential and deterministic.
  sim::Simulator sim;
  // Pre-size the event pools and station ports: a node keeps only a
  // handful of events live at once (wake timer, rail sequencing, the
  // transmitter's byte ticker), so steady state never grows the queue.
  sim.reserve(static_cast<std::size_t>(cfg.nodes) * 8 + 64);
  net::BaseStation bs(sim, cfg.base);
  bs.reserve_ports(static_cast<std::size_t>(cfg.nodes));
  std::vector<std::unique_ptr<PicoCubeNode>> nodes;
  nodes.reserve(static_cast<std::size_t>(cfg.nodes));
  for (int n = 0; n < cfg.nodes; ++n) {
    NodeConfig nc;
    nc.node_id = static_cast<std::uint8_t>(n + 1);
    nc.drive = harvest::make_city_cycle();
    nc.sample_interval = Duration{res.intervals_s[static_cast<std::size_t>(n)]};
    nc.data_rate = cfg.data_rate;
    nc.seed = cfg.seed + static_cast<std::uint64_t>(n) * 7919;
    nc.faults = cfg.faults;
    nc.link.mode = cfg.arq ? NodeConfig::Link::Mode::kArq
                           : NodeConfig::Link::Mode::kBeacon;
    nc.link.arq = cfg.arq_params;
    nc.link.wakeup = cfg.wakeup;
    nc.link.own_base_station = false;  // the fleet's station is shared
    nc.link.uplink = cfg.uplink;
    nc.link.downlink = cfg.downlink;
    auto node = std::make_unique<PicoCubeNode>(std::move(nc), &sim);
    // The nodes are discarded after the run, so nobody reads their
    // waveforms; recording them cost about half the timeline's wall time.
    node->accountant().set_recording(false);
    node->attach_to_base_station(bs);
    nodes.push_back(std::move(node));
  }
  for (auto& node : nodes) node->boot();
  sim.run_until(cfg.sim_time);
  for (auto& node : nodes) node->settle();

  const net::BaseStation::Counters& c = bs.counters();
  res.frames_total = c.frames_on_air;
  res.frames_collided = c.collided;
  res.frames_captured = c.captured;
  res.frames_delivered = c.delivered;
  res.dup_rx = c.dup_rx;
  res.delivered_payload_bits = c.delivered_payload_bits;
  if (c.frames_on_air > 0) {
    res.collision_rate = static_cast<double>(c.collided) /
                         static_cast<double>(c.frames_on_air);
    res.mean_airtime =
        Duration{c.airtime_s / static_cast<double>(c.frames_on_air)};
  }
  res.aloha_prediction =
      aloha_collision_probability(cfg.nodes, res.mean_airtime, cfg.nominal_interval);

  for (const auto& node : nodes) {
    if (const net::LinkLayer* link = node->link_layer()) {
      res.tx_attempts += link->counters().tx_attempts;
      res.retries += link->counters().retries;
      res.acked += link->counters().acked;
      res.arq_failed += link->counters().failed;
    }
    res.energy_out_j += node->accountant().battery_energy_out().value();
  }
  if (c.delivered_payload_bits > 0) {
    res.energy_per_delivered_bit_j =
        res.energy_out_j / static_cast<double>(c.delivered_payload_bits);
  }
  return res;
}

}  // namespace pico::core
