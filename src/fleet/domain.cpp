#include "fleet/domain.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "ckpt/codec.hpp"
#include "ckpt/state.hpp"
#include "common/error.hpp"
#include "obs/flight.hpp"
#include "radio/receiver.hpp"

namespace pico::fleet {

namespace {

// The one order of every air run — pending frames, outboxes, the routed
// inbox, carry and the air picture: start time, then global node id.
constexpr auto start_then_id = [](const auto& a, const auto& b) {
  return a.start_s != b.start_s ? a.start_s < b.start_s : a.global_node < b.global_node;
};

}  // namespace

double KernelModel::harvest_charge(double t0, double t1) const {
  if (harvest == nullptr || harvest->empty() || t1 <= t0) return 0.0;
  // A derate segment at factor F removes (1 - F) of its own charge.
  double charge = harvest->charge_between(t0, t1);
  derate.for_each_segment(t0, t1, [&](double a, double b, double factor) {
    charge += (factor - 1.0) * harvest->charge_between(a, b);
  });
  return std::max(0.0, charge);
}

double KernelModel::rx_power_w(double d_m) const {
  // Friis scales as d^2: one 1 m reference path loss serves every link.
  return tx_power_w * eirp_gain / (path_loss_1m * d_m * d_m);
}

std::size_t KernelModel::frame_bound(std::size_t nodes) const {
  if (nodes == 0) return 0;
  return static_cast<std::size_t>(frames_per_node * static_cast<double>(nodes)) + 16;
}

double KernelModel::worst_frames_per_node(double epoch_s, double min_interval_s,
                                          std::size_t attempts_per_wake) {
  return (epoch_s / std::max(min_interval_s, 1e-6) + 2.0) *
         static_cast<double>(std::max<std::size_t>(attempts_per_wake, 1));
}

void Domain::Scratch::fit(std::size_t own_nodes, std::size_t imported_nodes,
                          const KernelModel& m) {
  const std::size_t own = m.frame_bound(own_nodes);
  const std::size_t in = m.frame_bound(imported_nodes);
  records.reserve(2 * own + in);  // carry + pending + inbox
  inbox.reserve(in);
}

void Domain::reserve_nodes(std::size_t n) {
  node_.reserve(n);
  alive_.reserve(n);
  death_t_s_.reserve(n);
}

void Domain::add_node(std::uint32_t global_id, double interval_s, double first_wake_s,
                      Rng rng, double dist_own_m, double dist_left_m,
                      double dist_right_m) {
  PICO_REQUIRE(interval_s > 0.0, "node interval must be positive");
  PICO_REQUIRE(dist_own_m > 0.0, "node must be at a positive gateway distance");
  Node nd;
  nd.next_wake_s = first_wake_s;
  nd.interval_s = interval_s;
  nd.dist_own_m = dist_own_m;
  nd.dist_left_m = dist_left_m;
  nd.dist_right_m = dist_right_m;
  nd.rng = rng;
  nd.global_id = global_id;
  node_.push_back(nd);
  alive_.push_back(1);
  death_t_s_.push_back(std::numeric_limits<double>::infinity());
  if (dist_left_m >= 0.0) ++band_left_;
  if (dist_right_m >= 0.0) ++band_right_;
  heap_.invalidate();
}

void Domain::reserve(const KernelModel& m) {
  const std::size_t frames = m.frame_bound(nodes());
  pending_.reserve(frames);
  carry_.reserve(frames);
  outbox_left_.reserve(m.frame_bound(band_left_));
  outbox_right_.reserve(m.frame_bound(band_right_));
}

void Domain::advance(double epoch_end_s, const KernelModel& m,
                     obs::FlightRing* flight) {
  outbox_left_.clear();
  outbox_right_.clear();
  if (!heap_.built()) {
    heap_.build(node_.size(), [&](std::size_t i) { return node_[i].next_wake_s; });
    reserve(m);
  }
  // Pop wakes in global (time, id) order. Each node's wakes fire in its
  // own time order and randomness is per-node, so a node's draw sequence
  // does not depend on how epochs slice the run; pending_ and the
  // outboxes come out (start, id)-sorted by construction — ARQ chains can
  // interleave across that order, so the ARQ case re-sorts below.
  //
  // Retired nodes never re-enter the calendar: retirement parks the key
  // at +inf, so the heap itself is the alive set.
  while (!heap_.empty()) {
    const double wake = heap_.top_key();
    if (wake > epoch_end_s) break;
    const std::uint32_t i = heap_.top();
    Node& nd = node_[i];
    if (m.check_depletion && retire_if_depleted(i, wake, m, flight)) {
      heap_.replace_top(nd.next_wake_s);  // +inf now
      prefetch_top();
      continue;
    }
    nd.next_wake_s += nd.interval_s;
    heap_.replace_top(nd.next_wake_s);
    prefetch_top();
    fire_wake(i, wake, m, flight);
  }
  if (m.profile.arq) {
    // Chains fired at later wakes can start before a long backoff tail of
    // an earlier chain: restore the (start, id) invariant the merge-based
    // resolve and the neighbor inbox merges rely on. Keys never tie — a
    // node's attempts are spaced by at least airtime + ack timeout.
    std::sort(outbox_left_.begin(), outbox_left_.end(), start_then_id);
    std::sort(outbox_right_.begin(), outbox_right_.end(), start_then_id);
  }
}

void Domain::prefetch_top() const {
  // On sparse and ARQ fleets the next wake's record is cold: start its
  // miss now so it overlaps this wake. A 112-byte record at a 16-byte
  // aligned address touches two or three cache lines; these three
  // addresses hit each of them.
  const auto* p = reinterpret_cast<const char*>(&node_[heap_.top()]);
  __builtin_prefetch(p);
  __builtin_prefetch(p + 64);
  __builtin_prefetch(p + sizeof(Node) - 1);
}

void Domain::fire_wake(std::uint32_t i, double wake, const KernelModel& m,
                       obs::FlightRing* flight) {
  Node& nd = node_[i];
  ++nd.cycles;
  ++c_.wake_cycles;
  // Per-attempt draws in a fixed order — loss, shadowing, decode, then
  // the retry backoff — so the per-node stream is identical no matter how
  // epochs or shards slice the run. Conditional draws follow the scalar
  // discipline: nominal runs consume no fault randomness, and a beacon
  // wake is exactly one attempt with no backoff draw.
  Rng& rng = nd.rng;
  const std::uint32_t max_retries = m.profile.arq ? m.profile.max_retries : 0;
  double attempt_start = wake + m.profile.tx_offset_s;
  std::uint32_t used = 0;
  bool last_lost = false;
  for (std::uint32_t a = 0;; ++a) {
    const double start = attempt_start;
    const double end = start + m.profile.airtime_s;
    bool lost = false;
    const double lp = m.loss.level(end);
    if (lp > 0.0) lost = rng.chance(lp);
    double shadow = 1.0;
    if (m.shadowing_sigma_db > 0.0) {
      shadow = db_to_ratio(rng.normal(0.0, m.shadowing_sigma_db));
    }
    const double u = rng.uniform();
    const auto sq = nd.seq++;
    used = a;
    last_lost = lost;
    if (start <= m.sim_time_s) {  // else: run ends before the PA fires
      const double p_rx = m.rx_power_w(nd.dist_own_m) * shadow;
      pending_.push_back(Frame{start, end, p_rx, u, i, nd.global_id, sq, lost});
      ++c_.frames_on_air;
      if constexpr (obs::kEnabled) {
        // Sampled on the cumulative count (frame 1, 1+N, 1+2N, ...): the
        // subset is a pure function of the domain's frame sequence.
        if (flight != nullptr && ((c_.frames_on_air - 1) & flight_tx_mask_) == 0) {
          flight->push(
              {start, obs::FlightEventKind::kFrameTx, nd.global_id, sq, p_rx});
        }
      }
      c_.airtime_s += m.profile.airtime_s;
      if (lost) ++c_.frames_lost;
      if (nd.dist_left_m >= 0.0) {
        outbox_left_.push_back(
            {start, end, m.rx_power_w(nd.dist_left_m) * shadow, nd.global_id});
        ++c_.edge_exports;
      }
      if (nd.dist_right_m >= 0.0) {
        outbox_right_.push_back(
            {start, end, m.rx_power_w(nd.dist_right_m) * shadow, nd.global_id});
        ++c_.edge_exports;
      }
    }
    // Stop-and-wait: only a channel-jammed attempt retries (no ACK can be
    // modeled without cross-domain feedback); a clean attempt ends the
    // chain even if the gateway later resolves it as a collision.
    if (!lost || a == max_retries) break;
    const double cap = std::min(
        m.profile.backoff_base_s * static_cast<double>(1u << a), m.profile.backoff_cap_s);
    const double backoff = cap > 0.0 ? rng.uniform(0.0, cap) : 0.0;
    attempt_start = end + m.profile.ack_timeout_s + backoff;
  }
  // Bill the tabulated energy of the outcome the chain actually had.
  const double cycle_j = m.profile.cycle_energy_for(used);
  nd.cycle_energy_j += cycle_j;
  c_.cycle_energy_j += cycle_j;
  if (m.profile.arq) {
    c_.arq_retries += used;
    if (last_lost) ++c_.arq_gaveup;
  }
}

bool Domain::retire_if_depleted(std::uint32_t i, double wake, const KernelModel& m,
                                obs::FlightRing* flight) {
  Node& nd = node_[i];
  // Cumulative ledger at this wake, before the cycle fires: everything
  // billed so far plus the sleep floor and the battery's own
  // self-discharge (never billed, but just as fatal), against the
  // harvest income.
  const double floor_w = m.profile.sleep_power_w + m.profile.self_discharge_w;
  const double out_now = floor_w * wake + nd.cycle_energy_j;
  const double in_now = m.profile.battery_ocv_v * m.harvest_charge(0.0, wake);
  const double deficit_now = out_now - in_now - m.profile.battery_budget_j;
  if (deficit_now <= 0.0) return false;

  // The balance crossed the budget somewhere since the previous wake
  // (its cycle energy has been constant since): interpolate the crossing.
  // Harvest is piecewise-window, not linear, but the one-interval
  // tolerance of the retirement contract absorbs that.
  double t_d = wake;
  const double prev = std::max(0.0, wake - nd.interval_s);
  if (prev < wake) {
    const double out_p = floor_w * prev + nd.cycle_energy_j;
    const double in_p = m.profile.battery_ocv_v * m.harvest_charge(0.0, prev);
    const double d_p = out_p - in_p - m.profile.battery_budget_j;
    if (d_p >= 0.0) {
      t_d = prev;  // already dead when the previous cycle closed its books
    } else {
      t_d = prev + (wake - prev) * (-d_p) / (deficit_now - d_p);
    }
  }

  alive_[i] = 0;
  nd.next_wake_s = std::numeric_limits<double>::infinity();
  death_t_s_[i] = t_d;
  ++c_.nodes_dead;
  // The energy bill (through t_d and not a joule longer) is deferred to
  // finalize(), which walks nodes in index order: retirement happens in
  // calendar (time-major) order, and double accumulation must not depend
  // on it.
  if constexpr (obs::kEnabled) {
    if (flight != nullptr) {
      const double out_d = floor_w * t_d + nd.cycle_energy_j;
      const double in_d = m.profile.battery_ocv_v * m.harvest_charge(0.0, t_d);
      flight->push({t_d, obs::FlightEventKind::kBrownout, nd.global_id, 0, out_d - in_d});
    }
  }
  return true;
}

void Domain::resolve(double epoch_end_s, const KernelModel& m, Scratch& s,
                     obs::FlightRing* flight) {
  // Assemble this epoch's air picture by merging three already-sorted
  // runs — carried records, pending own frames (lost frames still jam),
  // and the routed inbox — instead of sorting from scratch. All three are
  // (start, id)-sorted: pending by calendar construction, the inbox by
  // route_inbox's merge, and carry because it filters last epoch's sorted
  // records. Keys are globally unique (a frame enters the air picture
  // exactly once), so the merged order is fully determined.
  if (m.profile.arq && !pending_.empty()) {
    // ARQ chains interleave across the calendar's pop order (a retry of
    // an early wake can start after a later wake's first attempt), and a
    // chain begun last epoch can reach into this one past frames already
    // kept. Restore the (start, id) invariant here. (start, gid) never
    // ties: a node's attempts are spaced by at least airtime + ack timeout.
    std::sort(pending_.begin(), pending_.end(), start_then_id);
  }
  std::vector<AirRecord>& records = s.records;
  const std::vector<AirRecord>& inbox = s.inbox;
  records.clear();
  if (carry_.empty() && inbox.empty()) {
    // Sparse-fleet common case: nothing carried, nothing imported — the
    // air picture is the pending run projected verbatim (same records,
    // same order as the merge below would emit).
    for (const Frame& f : pending_) {
      records.push_back({f.start_s, f.end_s, f.p_rx_w, f.global_node});
    }
  } else {
    const std::size_t nc = carry_.size();
    const std::size_t np = pending_.size();
    const std::size_t ni = inbox.size();
    std::size_t i = 0;
    std::size_t j = 0;
    std::size_t k = 0;
    const auto less = [](double as, std::uint32_t an, double bs, std::uint32_t bn) {
      return as != bs ? as < bs : an < bn;
    };
    while (i < nc || j < np || k < ni) {
      int pick = -1;
      double bs = 0.0;
      std::uint32_t bn = 0;
      if (i < nc) {
        pick = 0;
        bs = carry_[i].start_s;
        bn = carry_[i].global_node;
      }
      if (j < np) {
        const double st = pending_[j].start_s;
        const std::uint32_t g = pending_[j].global_node;
        if (pick < 0 || less(st, g, bs, bn)) {
          pick = 1;
          bs = st;
          bn = g;
        }
      }
      if (k < ni && (pick < 0 || less(inbox[k].start_s, inbox[k].global_node, bs, bn))) {
        pick = 2;
      }
      if (pick == 0) {
        records.push_back(carry_[i++]);
      } else if (pick == 1) {
        const Frame& f = pending_[j++];
        records.push_back({f.start_s, f.end_s, f.p_rx_w, f.global_node});
      } else {
        records.push_back(inbox[k++]);
      }
    }
  }

  // Resolve own frames ending inside the epoch; keep the rest pending.
  // pending_ is start-ordered, so the overlap window's left edge only
  // moves forward: a monotone cursor replaces the per-frame binary
  // search, visiting the same first index std::lower_bound would.
  std::size_t keep = 0;
  std::size_t lo = 0;
  const std::size_t nrec = records.size();
  for (Frame& f : pending_) {
    if (f.end_s > epoch_end_s) {
      pending_[keep++] = f;
      continue;
    }
    if (f.lost) continue;  // burned the energy, never reached the gateway
    ++c_.frames_completed;

    const std::uint32_t gid = f.global_node;
    double interference_w = 0.0;
    const double win = f.start_s - m.max_airtime_s;
    while (lo < nrec && records[lo].start_s < win) ++lo;
    for (std::size_t r = lo; r < nrec && records[r].start_s < f.end_s; ++r) {
      if (records[r].global_node == gid) continue;
      if (records[r].end_s > f.start_s) interference_w += records[r].p_rx_w;
    }

    double snr = f.p_rx_w / m.noise_w;
    if (interference_w > 0.0) {
      const std::optional<double> sinr = radio::SuperregenReceiver::capture_sinr(
          f.p_rx_w, interference_w, m.noise_w, m.capture_ratio);
      if (!sinr) {
        ++c_.collided;
        if constexpr (obs::kEnabled) {
          if (flight != nullptr) {
            flight->push(
                {f.end_s, obs::FlightEventKind::kCollision, gid, f.seq, interference_w});
          }
        }
        continue;
      }
      ++c_.captured;
      snr = *sinr;
    }
    if (f.p_rx_w < m.sensitivity_w) {
      ++c_.below_squelch;
      continue;
    }
    // Noncoherent OOK: a frame decodes iff no post-preamble bit flips.
    const double p_ok =
        snr >= kCertainDecodeSnr
            ? 1.0
            : std::pow(1.0 - radio::SuperregenReceiver::ook_ber(snr),
                       static_cast<double>(m.profile.decode_bits));
    if (f.u_decode < p_ok) {
      ++c_.delivered;
      c_.delivered_payload_bits += m.profile.payload_bits;
    } else {
      ++c_.crc_rejected;
    }
  }
  pending_.resize(keep);
  rebuild_carry(epoch_end_s, m, records, keep);
  s.inbox.clear();
}

bool Domain::route_inbox(const std::vector<AirRecord>* from_left,
                         const std::vector<AirRecord>* from_right, Scratch& s) const {
  // Writes only the lent inbox and reads only neighbor outboxes, which
  // are immutable from the advance barrier until the next advance — every
  // domain can route concurrently, and a neighbor resolving meanwhile
  // never touches them. Merge order is fixed by (start, id); the two node
  // sets are disjoint, so keys never tie.
  std::vector<AirRecord>& inbox = s.inbox;
  inbox.clear();
  const std::size_t nl = from_left != nullptr ? from_left->size() : 0;
  const std::size_t nr = from_right != nullptr ? from_right->size() : 0;
  if (nl + nr == 0) return false;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < nl && j < nr) {
    const AirRecord& a = (*from_left)[i];
    const AirRecord& b = (*from_right)[j];
    if (start_then_id(a, b)) {
      inbox.push_back(a);
      ++i;
    } else {
      inbox.push_back(b);
      ++j;
    }
  }
  while (i < nl) inbox.push_back((*from_left)[i++]);
  while (j < nr) inbox.push_back((*from_right)[j++]);
  return true;
}

void Domain::rebuild_carry(double epoch_end_s, const KernelModel& m,
                           const std::vector<AirRecord>& records, std::size_t keep) {
  // Carry boundary-spanning records — except own frames still pending,
  // which re-enter via pending_ next epoch. `records` is sorted, so the
  // filter leaves carry_ sorted for the next epoch's merge.
  carry_.clear();
  const double horizon = epoch_end_s - m.max_airtime_s;
  for (const AirRecord& r : records) {
    if (r.end_s <= horizon) continue;
    bool is_pending_own = false;
    if (r.end_s > epoch_end_s) {
      // Sorted order lost the provenance; recover it by matching against
      // the (few) pending frames.
      for (std::size_t p = 0; p < keep; ++p) {
        const Frame& f = pending_[p];
        if (f.global_node == r.global_node && f.start_s == r.start_s) {
          is_pending_own = true;
          break;
        }
      }
    }
    if (!is_pending_own) carry_.push_back(r);
  }
}

namespace {

// Wire sizes of one air record (start, end, p_rx; node) and one pending
// frame (start, end, p_rx, u_decode; node, seq; lost), the bounds their
// counts are checked against on restore.
constexpr std::size_t kAirRecordBytes = 3 * 8 + 4;
constexpr std::size_t kFrameBytes = 4 * 8 + 2 * 4 + 1;

void save_air(ckpt::Writer& w, const std::vector<Domain::AirRecord>& v) {
  w.u64(v.size());
  for (const Domain::AirRecord& a : v) {
    w.f64(a.start_s);
    w.f64(a.end_s);
    w.f64(a.p_rx_w);
    w.u32(a.global_node);
  }
}

// FleetSession reserves every air run once restore returns.
void restore_air(ckpt::Reader& r, std::vector<Domain::AirRecord>& v) {
  const std::uint64_t n = r.count(kAirRecordBytes);
  v.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    Domain::AirRecord a;
    a.start_s = r.f64();
    a.end_s = r.f64();
    a.p_rx_w = r.f64();
    a.global_node = r.u32();
    v.push_back(a);
  }
}

}  // namespace

void Domain::save(ckpt::Writer& w) const {
  // FDOM v3 writes each per-node field as its own array: gather them from
  // the packed records.
  const std::size_t n = nodes();
  std::vector<double> next_wake(n);
  std::vector<std::uint32_t> seq(n);
  std::vector<std::uint64_t> cycles(n);
  std::vector<double> cycle_energy(n);
  for (std::size_t i = 0; i < n; ++i) {
    next_wake[i] = node_[i].next_wake_s;
    seq[i] = node_[i].seq;
    cycles[i] = node_[i].cycles;
    cycle_energy[i] = node_[i].cycle_energy_j;
  }
  w.u64(n);
  w.f64v(next_wake);
  for (const Node& nd : node_) ckpt::write_rng(w, nd.rng.state());
  w.u32v(seq);
  w.u8v(alive_);
  w.u64v(cycles);
  w.f64v(cycle_energy);
  w.f64v(death_t_s_);
  w.u64(pending_.size());
  for (const Frame& f : pending_) {
    w.f64(f.start_s);
    w.f64(f.end_s);
    w.f64(f.p_rx_w);
    w.f64(f.u_decode);
    w.u32(f.node);
    w.u32(f.seq);
    w.b(f.lost);
  }
  save_air(w, carry_);
  save_air(w, outbox_left_);
  save_air(w, outbox_right_);
  w.b(heap_.built());
  w.u32v(heap_.slots());
  for_each_counter([&](auto field) {
    if constexpr (kIsSumField<decltype(field)>) {
      w.f64(c_.*field);
    } else {
      w.u64(c_.*field);
    }
  });
}

void Domain::restore(ckpt::Reader& r, double barrier_t_s) {
  const std::uint64_t n = r.u64();
  PICO_REQUIRE(n == nodes(),
               "fleet checkpoint domain population does not match the spec layout");
  const std::vector<double> next_wake = r.f64v();
  PICO_REQUIRE(next_wake.size() == n, "fleet checkpoint wake array mismatch");
  for (Node& nd : node_) nd.rng.set_state(ckpt::read_rng(r));
  const std::vector<std::uint32_t> seq = r.u32v();
  alive_ = r.u8v();
  const std::vector<std::uint64_t> cycles = r.u64v();
  const std::vector<double> cycle_energy = r.f64v();
  death_t_s_ = r.f64v();
  PICO_REQUIRE(seq.size() == n && alive_.size() == n && cycles.size() == n &&
                   cycle_energy.size() == n && death_t_s_.size() == n,
               "fleet checkpoint node-state array mismatch");
  std::uint64_t retired = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Node& nd = node_[i];
    // Every wake at or before the barrier has fired. A NaN key would pass
    // the calendar's order check (it compares false against any key) and
    // silence the node for the rest of the run.
    if (!(next_wake[i] > barrier_t_s)) {
      throw ckpt::CheckpointError(
          "fleet checkpoint wake time of node " + std::to_string(nd.global_id) + " (" +
          std::to_string(next_wake[i]) + " s) is not after the barrier at " +
          std::to_string(barrier_t_s) + " s");
    }
    // A live node has no death time; a retired one never wakes again and
    // died by the barrier. finalize() bills each node by its flag alone.
    const double inf = std::numeric_limits<double>::infinity();
    const double t_d = death_t_s_[i];
    const bool retired_ok = next_wake[i] == inf && t_d >= 0.0 && t_d <= barrier_t_s;
    if (alive_[i] == 1 ? t_d != inf : alive_[i] != 0 || !retired_ok) {
      throw ckpt::CheckpointError("fleet checkpoint liveness of node " +
                                  std::to_string(nd.global_id) + " is inconsistent");
    }
    if (alive_[i] == 0) ++retired;
    nd.next_wake_s = next_wake[i];
    nd.seq = seq[i];
    nd.cycles = cycles[i];
    nd.cycle_energy_j = cycle_energy[i];
  }
  const std::uint64_t np = r.count(kFrameBytes);
  pending_.clear();
  for (std::uint64_t i = 0; i < np; ++i) {
    Frame f;
    f.start_s = r.f64();
    f.end_s = r.f64();
    f.p_rx_w = r.f64();
    f.u_decode = r.f64();
    f.node = r.u32();
    f.seq = r.u32();
    f.lost = r.b();
    if (f.node >= n) {
      throw ckpt::CheckpointError("fleet checkpoint pending frame names node " +
                                  std::to_string(f.node) + " of a " +
                                  std::to_string(n) + "-node domain");
    }
    f.global_node = node_[f.node].global_id;
    pending_.push_back(f);
  }
  restore_air(r, carry_);
  restore_air(r, outbox_left_);
  restore_air(r, outbox_right_);
  // The calendar: a built one must be a heap-ordered permutation of the
  // nodes (a duplicated slot would fire that node twice per period while
  // another never wakes); an unbuilt one holds nothing.
  const bool built = r.b();
  const std::vector<std::uint32_t> slots = r.u32v();
  if (built ? slots.size() != n : !slots.empty()) {
    throw ckpt::CheckpointError(
        "fleet checkpoint " + std::string(built ? "built" : "unbuilt") +
        " calendar holds " + std::to_string(slots.size()) + " slots for a " +
        std::to_string(n) + "-node domain");
  }
  std::vector<std::uint8_t> seen(slots.size(), 0);
  for (const std::uint32_t slot : slots) {
    if (slot >= n) {
      throw ckpt::CheckpointError("fleet checkpoint calendar slot names node " +
                                  std::to_string(slot) + " of a " +
                                  std::to_string(n) + "-node domain");
    }
    if (seen[slot] != 0) {
      throw ckpt::CheckpointError("fleet checkpoint calendar holds node " +
                                  std::to_string(slot) + " twice");
    }
    seen[slot] = 1;
  }
  heap_.restore_slots(slots, built,
                      [&](std::uint32_t i) { return node_[i].next_wake_s; });
  if (!heap_.ordered()) {
    throw ckpt::CheckpointError(
        "fleet checkpoint calendar slots break heap order against the wake times");
  }
  for_each_counter([&](auto field) {
    if constexpr (kIsSumField<decltype(field)>) {
      c_.*field = r.f64();
    } else {
      c_.*field = r.u64();
    }
  });
  if (retired != c_.nodes_dead) {
    throw ckpt::CheckpointError("fleet checkpoint domain counts " +
                                std::to_string(c_.nodes_dead) + " dead nodes but flags " +
                                std::to_string(retired) + " retired");
  }
}

void Domain::finalize(const KernelModel& m, obs::FlightRing* flight) {
  const std::size_t n = nodes();
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive_[i]) {
      // Retired mid-run: the node existed until its interpolated
      // depletion time and not a joule longer. Billed here, in node
      // order, so the double accumulation is identical whichever shard
      // retired the node — and exactly once, since
      // finalize runs once per completed run (alive_ and death_t_s_
      // travel through checkpoints, not partial bills).
      const double t_d = death_t_s_[i];
      c_.energy_out_j += m.profile.sleep_power_w * t_d + node_[i].cycle_energy_j;
      c_.energy_in_j += m.profile.battery_ocv_v * m.harvest_charge(0.0, t_d);
      c_.node_seconds_alive += t_d;
      continue;
    }
    const double t = m.sim_time_s;
    const double out = m.profile.sleep_power_w * t + node_[i].cycle_energy_j;
    const double in = m.profile.battery_ocv_v * m.harvest_charge(0.0, t);
    c_.energy_out_j += out;
    c_.energy_in_j += in;
    c_.node_seconds_alive += t;
    // Depletion drains self-discharge on top of the billed energy (the
    // same ledger the per-wake check runs).
    const double drained = out + m.profile.self_discharge_w * t;
    if (drained - in > m.profile.battery_budget_j) {
      // The balance crossed the budget after the node's last wake (the
      // per-wake check only looks at wake instants), within one interval
      // of the horizon: end-of-run is the honest stamp at that tolerance.
      alive_[i] = 0;
      ++c_.nodes_dead;
      if constexpr (obs::kEnabled) {
        if (flight != nullptr) {
          flight->push(
              {t, obs::FlightEventKind::kBrownout, node_[i].global_id, 0, drained - in});
        }
      }
    }
  }
}

}  // namespace pico::fleet
