#include "core/neutrality.hpp"

#include "common/error.hpp"

namespace pico::core {

Power NeutralityAnalysis::average_node_power(NodeConfig cfg, Duration sim_time) {
  cfg.attach_harvester = false;  // measure consumption alone
  PicoCubeNode node(std::move(cfg));
  node.accountant().set_recording(false);  // only the report is read
  node.run(sim_time);
  return node.report().average_power;
}

Power NeutralityAnalysis::average_harvest_power(const harvest::Harvester& h,
                                                const power::Rectifier& rect, Voltage vbatt,
                                                Duration window) {
  const auto res = rect.rectify(h, vbatt, 0.0, window.value(), 4096);
  return res.delivered_power;
}

NeutralityAnalysis::Result NeutralityAnalysis::balance(const NodeConfig& cfg,
                                                       Duration sim_time) {
  Result r;
  r.consumption = average_node_power(cfg, sim_time);

  const harvest::SpeedProfile profile = drive_profile(cfg);
  const harvest::ElectromagneticShaker shaker(profile);
  const Duration window{profile.duration() > 0.0 ? profile.duration() : 60.0};
  r.harvest =
      average_harvest_power(shaker, *make_rectifier(cfg.power), Voltage{1.25}, window);
  r.net = r.harvest - r.consumption;
  r.neutral = r.net.value() >= 0.0;
  return r;
}

Duration NeutralityAnalysis::sustainable_interval(NodeConfig cfg, Duration min_interval,
                                                  Duration max_interval) {
  PICO_REQUIRE(min_interval.value() > 0.0 && max_interval > min_interval,
               "interval bracket must satisfy 0 < min < max");
  auto net_at = [&](double interval_s) {
    NodeConfig c = cfg;
    c.sample_interval = Duration{interval_s};
    // Simulate long enough for >= 10 cycles to average out.
    const Duration sim_time{std::max(10.0 * interval_s, 60.0)};
    return balance(c, sim_time).net.value();
  };
  if (net_at(max_interval.value()) < 0.0) return Duration{0.0};  // hopeless
  if (net_at(min_interval.value()) >= 0.0) return min_interval;  // everything works
  const double cross = bisect(net_at, min_interval.value(), max_interval.value(), 0.05, 24);
  return Duration{cross};
}

}  // namespace pico::core
