#include "fleet/kernel.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "harvest/harvester.hpp"
#include "power/rectifier.hpp"

namespace pico::fleet {

CycleProfile CycleProfile::calibrate(const core::NodeConfig& cfg) {
  // Calibration node: same firmware, but stripped of everything that is
  // modeled separately in the kernel (harvest, faults, the shared air).
  // The wake cycle itself — beacon, or the full ARQ retry chain — is
  // untouched.
  core::NodeConfig nc = cfg;
  nc.attach_harvester = false;
  nc.faults = {};
  nc.oscillator_failure_prob = 0.0;
  const bool arq = cfg.link.mode == core::NodeConfig::Link::Mode::kArq;
  nc.link = {};
  if (arq) {
    nc.link.mode = core::NodeConfig::Link::Mode::kArq;
    nc.link.arq = cfg.link.arq;
    nc.link.wakeup = cfg.link.wakeup;
    // No base station: no ACK ever arrives, so a run capped at k retries
    // burns exactly k retries every cycle — that is what makes E(k)
    // measurable by differencing.
    nc.link.own_base_station = false;
    PICO_REQUIRE(cfg.link.arq.max_retries >= 0, "ARQ retry budget must be non-negative");
  }
  PICO_REQUIRE(nc.sample_interval.value() > 0.0, "calibration needs a positive interval");

  CycleProfile p;
  const double interval = nc.sample_interval.value();
  const auto run_energy = [&](const core::NodeConfig& rc, double until, bool extract) {
    core::PicoCubeNode node(rc);
    node.accountant().set_recording(false);  // energies only; nobody reads its waveforms
    if (extract) {
      // Battery constants for the depletion ledger, read before the run
      // touches the cell: the budget is the OCV-integrated energy actually
      // extractable from the initial SoC, and self-discharge is the drain
      // idle() applies without ever billing the accountant.
      const storage::NiMhBattery& cell = node.battery();
      p.battery_budget_j = cell.stored_energy().value();
      p.self_discharge_w = cell.params().self_discharge_per_day / 86400.0 *
                           cell.capacity().value() *
                           cell.open_circuit_voltage().value();
      node.set_frame_start_listener([&](const radio::RfFrame& f) {
        if (p.frame_bytes != 0) return;
        // First wake fires at t = interval (the SP12 event timer).
        p.tx_offset_s = f.start.value() - interval;
        p.airtime_s = f.airtime().value();
        p.frame_bytes = f.bytes.size();
      });
    }
    node.run(Duration{until});
    if (extract) {
      PICO_REQUIRE(p.frame_bytes != 0, "calibration run produced no frame");
      p.sleep_power_w = node.report().sleep_floor.value();
      p.cycle_duration_s = node.last_cycle_time().value();
      p.battery_ocv_v = node.battery().open_circuit_voltage().value();
      const std::size_t overhead = node.codec().overhead_bytes();
      const std::size_t preamble = node.codec().params().preamble_bytes;
      PICO_REQUIRE(p.frame_bytes > overhead, "frame shorter than codec overhead");
      p.payload_bits = (p.frame_bytes - overhead) * 8;
      p.decode_bits = (p.frame_bytes - preamble) * 8;
    }
    return node.report().battery_energy_out.value();
  };
  // One complete cycle vs two: the difference cancels the boot transient,
  // leaving exactly one interval of floor plus one cycle of extra energy.
  const auto pair_cycle_energy = [&](const core::NodeConfig& rc, bool extract) {
    const double e_one = run_energy(rc, interval * 1.5, extract);
    const double e_two = run_energy(rc, interval * 2.5, false);
    return (e_two - e_one) - p.sleep_power_w * interval;
  };

  if (!arq) {
    p.cycle_energy_j = pair_cycle_energy(nc, true);
  } else {
    p.arq = true;
    p.max_retries = static_cast<std::uint32_t>(cfg.link.arq.max_retries);
    p.ack_timeout_s = cfg.link.arq.ack_timeout.value();
    p.backoff_base_s = cfg.link.arq.backoff_base.value();
    p.backoff_cap_s = cfg.link.arq.backoff_cap.value();
    p.retry_cycle_energy_j.reserve(p.max_retries + 1);
    for (std::uint32_t k = 0; k <= p.max_retries; ++k) {
      core::NodeConfig rc = nc;
      rc.link.arq.max_retries = static_cast<int>(k);
      // Extract the frame constants from the single-attempt run; the
      // chain-level constants (airtime, offset) are per attempt.
      const double ek = pair_cycle_energy(rc, k == 0);
      PICO_REQUIRE(ek > 0.0 && std::isfinite(ek),
                   "calibrated ARQ cycle energy must be positive and finite");
      PICO_REQUIRE(p.retry_cycle_energy_j.empty() || ek > p.retry_cycle_energy_j.back(),
                   "ARQ cycle energy must grow with the retry count");
      p.retry_cycle_energy_j.push_back(ek);
    }
    p.cycle_energy_j = p.retry_cycle_energy_j.front();
    // The kernel fires whole chains at each wake: the worst-case chain
    // (every attempt lost, every backoff at its cap) must finish before
    // the next wake or per-wake billing would overlap.
    double span = p.tx_offset_s;
    for (std::uint32_t k = 0; k <= p.max_retries; ++k) {
      span += p.airtime_s + p.ack_timeout_s;
      if (k < p.max_retries)
        span += std::min(p.backoff_base_s * static_cast<double>(1u << k), p.backoff_cap_s);
    }
    PICO_REQUIRE(span < interval, "ARQ retry chain must fit within one wake interval");
  }
  PICO_REQUIRE(p.cycle_energy_j > 0.0, "calibrated cycle energy must be positive");
  // Non-finite constants would silently poison every downstream energy
  // balance (same contract the ckpt layer enforces on restore).
  PICO_REQUIRE(std::isfinite(p.sleep_power_w) && p.sleep_power_w >= 0.0,
               "calibrated sleep power must be finite and non-negative");
  PICO_REQUIRE(std::isfinite(p.battery_budget_j) && p.battery_budget_j > 0.0,
               "calibrated battery budget must be finite and positive");
  PICO_REQUIRE(std::isfinite(p.self_discharge_w) && p.self_discharge_w >= 0.0,
               "calibrated self-discharge power must be finite and non-negative");
  PICO_REQUIRE(std::isfinite(p.cycle_energy_j), "calibrated cycle energy must be finite");
  return p;
}

HarvestIntegral::HarvestIntegral(const core::NodeConfig& cfg, double horizon_s) {
  PICO_REQUIRE(horizon_s > 0.0, "harvest horizon must be positive");
  window_s_ = cfg.harvest_update.value();
  PICO_REQUIRE(window_s_ > 0.0, "harvest window must be positive");
  // The grid below is the shaker path; billing it to any other harvester
  // would be silently wrong.
  PICO_REQUIRE(cfg.harvester == core::NodeConfig::HarvesterKind::kShaker,
               "fleet harvest models only the shaker harvester: node.harvester = kSolar "
               "with attach_harvester is not supported");

  // Same estimator the scalar behavioral node runs every window: shaker
  // EMF into the power train's rectifier topology against the battery's
  // initial OCV (the OCV drift over a run is far below the estimator's
  // own fidelity).
  const harvest::ElectromagneticShaker shaker(core::drive_profile(cfg));
  const std::unique_ptr<power::Rectifier> rectifier = core::make_rectifier(cfg.power);
  storage::NiMhBattery::Params bp;
  bp.initial_soc = cfg.battery_initial_soc;
  const Voltage ocv = storage::NiMhBattery(bp).open_circuit_voltage();

  const auto windows = static_cast<std::size_t>(std::ceil(horizon_s / window_s_));
  cum_.assign(windows + 1, 0.0);
  for (std::size_t k = 0; k < windows; ++k) {
    const double t0 = static_cast<double>(k) * window_s_;
    const auto res = rectifier->rectify(shaker, ocv, t0, t0 + window_s_, 2048);
    cum_[k + 1] = cum_[k] + res.avg_current.value() * window_s_;
  }
}

double HarvestIntegral::charge_between(double t0, double t1) const {
  if (cum_.empty() || t1 <= t0) return 0.0;
  const double hi = static_cast<double>(cum_.size() - 1) * window_s_;
  // A query past the grid must not clamp: crediting zero harvest for the
  // tail of a run longer than the horizon corrupts the energy balance of
  // every node. Callers size the grid from the actual fleet horizon.
  PICO_REQUIRE(t0 >= 0.0 && t1 <= hi,
               "harvest integral query outside the precomputed horizon");
  // Piecewise-constant current per window: linear interpolation of the
  // cumulative grid is exact.
  const auto at = [&](double t) {
    const double w = t / window_s_;
    const auto k = static_cast<std::size_t>(w);
    const std::size_t kk = std::min(k, cum_.size() - 2);
    const double frac = w - static_cast<double>(kk);
    return cum_[kk] + frac * (cum_[kk + 1] - cum_[kk]);
  };
  return at(t1) - at(t0);
}

bool WakeHeap::ordered() const {
  for (std::size_t i = 1; i < h_.size(); ++i) {
    if (less(h_[i], h_[(i - 1) / 2])) return false;
  }
  return true;
}

void WakeHeap::sift_down(std::size_t i) {
  // Floyd's bottom-up sift. Walk the smaller-child path from i to a leaf,
  // pulling each child up into the hole, then climb back to where the
  // displaced entry belongs. (key, index) is a total order and the
  // entries on that path increase, so the entry lands in exactly the
  // slot the textbook top-down sift picks and every other path entry
  // ends one level up, as it would there: slots() does not move. A wake's
  // next key nearly always sinks to a leaf, so the descent trades the
  // textbook's unpredictable stop-or-continue branch per level for one
  // branch-free child select, and the climb usually stops at once.
  Entry* const h = h_.data();
  const std::size_t n = h_.size();
  const Entry moving = h[i];
  const std::size_t root = i;
  for (std::size_t c = 2 * i + 1; c + 1 < n; c = 2 * i + 1) {
    c += static_cast<std::size_t>(less(h[c + 1], h[c]));
    h[i] = h[c];
    i = c;
  }
  if (2 * i + 1 < n) {  // a lone left child on the last level
    h[i] = h[2 * i + 1];
    i = 2 * i + 1;
  }
  while (i > root) {
    const std::size_t p = (i - 1) / 2;
    if (!less(moving, h[p])) break;
    h[i] = h[p];
    i = p;
  }
  h[i] = moving;
}

}  // namespace pico::fleet
