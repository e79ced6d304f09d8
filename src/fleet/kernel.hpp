// kernel.hpp — the closed-form per-node model behind the sharded fleet
// engine (docs/PERFORMANCE.md, "Fleet scaling").
//
// A behavioral beacon node is periodic: sleep at a constant floor, wake
// every timer interval, run the same sample/format/transmit cycle, go
// back to sleep. The scalar PicoCubeNode walks that cycle event by event
// (~40 simulator events per wake); at 100k nodes that is the entire
// simulation cost. But the cycle's *energy* is the same every time, so an
// idle-through-wake period integrates in closed form:
//
//   E(t0, t1) = sleep_power * (t1 - t0) + cycles_in(t0, t1) * cycle_energy
//
// CycleProfile measures those constants once by running one scalar node
// for two wake cycles (calibration is exact for the behavioral model: the
// difference of two runs cancels the boot transient), and the fleet
// kernel then steps every node in O(1) per wake instead of O(events).
//
// HarvestIntegral does the same for the shaker->rectifier charging path:
// the behavioral estimate is a per-window average current that depends
// only on the drive profile and the (nearly constant) battery OCV, so one
// precomputed cumulative grid serves every node sharing the profile.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/node.hpp"

namespace pico::fleet {

// Calibrated constants of one behavioral beacon cycle. All energies are
// battery-referred (what PowerAccountant bills), so kernel totals are
// directly comparable to PicoCubeNode::report().
struct CycleProfile {
  double sleep_power_w = 0.0;    // deep-sleep battery power (the floor)
  double cycle_energy_j = 0.0;   // per wake cycle, above the floor
  double cycle_duration_s = 0.0; // interrupt -> back in LPM3
  double tx_offset_s = 0.0;      // interrupt -> occupied air starts
  double airtime_s = 0.0;        // startup chirp + frame bits
  std::size_t frame_bytes = 0;   // encoded beacon frame length
  std::size_t decode_bits = 0;   // bits past the preamble: any flip kills CRC
  std::size_t payload_bits = 0;  // delivered payload per decoded frame
  double battery_ocv_v = 0.0;    // OCV at the configured initial SoC
  // Usable energy at the initial SoC: the OCV integral over the stored
  // charge (NiMhBattery::stored_energy), i.e. what the cell can actually
  // deliver before hit_empty — NOT the nominal-voltage capacity_energy,
  // which overstates the knee region badly at low SoC.
  double battery_budget_j = 0.0;
  // Battery self-discharge as an equivalent battery-referred power. The
  // scalar cell loses this charge in idle() without the accountant ever
  // billing it, so the depletion ledger must drain it on top of the
  // sleep floor (energy_out_j stays billed-only, matching the scalar
  // report).
  double self_discharge_w = 0.0;

  // ARQ extension (NodeConfig::Link::Mode::kArq): a stop-and-wait cycle's
  // energy depends on how many retries the frame chain burned, so the
  // beacon constant generalizes to a tabulated E(k retries) for
  // k = 0..max_retries — each entry calibrated by differencing two scalar
  // ARQ runs capped at k retries (no base station, so every chain uses
  // its full retry budget). Includes the ACK listen windows and backoff
  // sleeps between attempts. Empty in beacon mode; in ARQ mode
  // cycle_energy_j aliases retry_cycle_energy_j[0].
  bool arq = false;
  std::uint32_t max_retries = 0;
  double ack_timeout_s = 0.0;   // attempt end -> retry decision
  double backoff_base_s = 0.0;  // retry k sleeps ~ U[0, min(base*2^(k-1), cap))
  double backoff_cap_s = 0.0;
  std::vector<double> retry_cycle_energy_j;

  [[nodiscard]] double cycle_energy_for(std::uint32_t retries) const {
    return arq ? retry_cycle_energy_j[retries] : cycle_energy_j;
  }
  // Most expensive possible cycle — the depletion precheck's worst case.
  [[nodiscard]] double max_cycle_energy_j() const {
    return arq ? retry_cycle_energy_j.back() : cycle_energy_j;
  }

  // Run one scalar node (no harvester, no faults) for two wake cycles and
  // extract the constants; in ARQ mode repeat the pair per retry cap to
  // fill the table. Deterministic: pure function of the config. The
  // config's sample_interval is the calibration period; the constants are
  // interval-independent.
  [[nodiscard]] static CycleProfile calibrate(const core::NodeConfig& cfg);
};

// Cumulative charge delivered by the behavioral shaker->rectifier path,
// on the same per-window grid the scalar node uses (NodeConfig's
// harvest_update window, 2048-sample rectify per window, battery at its
// initial OCV). charge_between is O(1) per query.
class HarvestIntegral {
 public:
  HarvestIntegral() = default;
  // Precompute windows covering [0, horizon_s). Uses cfg's drive profile,
  // power version (rectifier topology) and initial SoC. Only the shaker
  // harvester is modelled; any other cfg.harvester is a design error.
  HarvestIntegral(const core::NodeConfig& cfg, double horizon_s);

  [[nodiscard]] bool empty() const { return cum_.empty(); }
  // Last instant the precomputed grid covers (>= the construction
  // horizon; the grid rounds up to whole windows).
  [[nodiscard]] double horizon_s() const {
    return cum_.empty() ? 0.0 : static_cast<double>(cum_.size() - 1) * window_s_;
  }
  // Integral of the charging current over [t0, t1] in coulombs (no
  // derating applied; the caller scales faulted windows). Queries outside
  // [0, horizon_s()] are a design error — silently crediting zero for the
  // tail of a run longer than the grid corrupts every energy balance —
  // so callers must size the grid from the actual fleet horizon.
  [[nodiscard]] double charge_between(double t0, double t1) const;

 private:
  double window_s_ = 1.0;
  // cum_[k] = charge delivered in windows [0, k); size = windows + 1.
  std::vector<double> cum_;
};

// Wake calendar for a domain: a binary min-heap of (wake time, node
// index) entries, ordered by time and then index. The index tie-break
// makes pop order a pure function of the keys — nodes waking at the same
// instant come out in ascending local index, which is ascending global id
// (a domain's nodes are laid out in id order) — so the time-ordered
// advance produces exactly the (start, id)-sorted frame stream the
// merge-based resolve relies on. Keys live inline in the entries, so a
// sift compares adjacent 16-byte entries instead of chasing node indices
// into a separate key array.
//
// The domain pops the top, fires that node's wake, and replaces the top
// key with the node's next wake: O(log n) per wake, and — the point —
// O(1) to discover that *no* node wakes this epoch (`top_key() >
// epoch_end`), which is what lets sparse-activity fleets skip idle
// domains entirely instead of scanning every node every epoch.
class WakeHeap {
 public:
  struct Entry {
    double key = 0.0;
    std::uint32_t index = 0;
  };

  // (Re)build over indices [0, n) with keys key_of(i). O(n).
  template <typename KeyOf>
  void build(std::size_t n, KeyOf&& key_of) {
    h_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      h_[i] = Entry{key_of(i), static_cast<std::uint32_t>(i)};
    }
    if (n > 1) {
      for (std::size_t i = n / 2; i-- > 0;) sift_down(i);
    }
    built_ = true;
  }
  [[nodiscard]] bool empty() const { return h_.empty(); }
  [[nodiscard]] bool built() const { return built_; }
  void invalidate() { built_ = false; }
  [[nodiscard]] std::uint32_t top() const { return h_[0].index; }
  [[nodiscard]] double top_key() const { return h_[0].key; }
  // The top node's key grew to `key` (its next wake, or +inf once it
  // retires): store it and restore heap order.
  void replace_top(double key) {
    h_[0].key = key;
    sift_down(0);
  }

  // Checkpoint/restore (src/ckpt): pop order depends only on the keys —
  // (key, index) is a total order — so any valid layout of the same
  // entries pops the same way. The slot order is saved verbatim so blobs
  // stay byte-stable: a restored session re-saves the bytes it loaded,
  // and a change to the sift that moved slots would show up in every
  // saved blob. Keys are not saved; restore re-reads them through key_of
  // and checks ordered().
  [[nodiscard]] std::vector<std::uint32_t> slots() const {
    std::vector<std::uint32_t> out(h_.size());
    for (std::size_t i = 0; i < h_.size(); ++i) out[i] = h_[i].index;
    return out;
  }
  template <typename KeyOf>
  void restore_slots(const std::vector<std::uint32_t>& slots, bool built,
                     KeyOf&& key_of) {
    h_.resize(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      h_[i] = Entry{key_of(slots[i]), slots[i]};
    }
    built_ = built;
  }
  // Whether every entry orders at or after its parent — what a restored
  // slot layout must satisfy against the restored keys.
  [[nodiscard]] bool ordered() const;

 private:
  // Non-short-circuit form so the compiler can select the smaller child
  // without a branch; identical to `a.key != b.key ? a.key < b.key :
  // a.index < b.index` for every key, +inf and NaN included.
  static bool less(const Entry& a, const Entry& b) {
    return (a.key < b.key) | ((a.key == b.key) & (a.index < b.index));
  }
  void sift_down(std::size_t i);
  std::vector<Entry> h_;
  bool built_ = false;
};

}  // namespace pico::fleet
