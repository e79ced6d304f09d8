// transient.hpp — transient and DC operating-point analysis over a Circuit.
//
// Fixed-timestep trapezoidal integration (backward Euler for the first
// step after a start or discontinuity) with Newton–Raphson iteration when
// the circuit contains nonlinear elements. Observers are invoked after every accepted step to
// record waveforms into `pico::sim::Trace`s.
//
// Linear fast path: when every component is linear and time-invariant in
// its matrix contribution (see Component::linear_time_invariant), the MNA
// matrix changes only with (dt, method) and with explicit mutations (a
// switch toggling). Such runs keep a small LRU of
// LU factorizations, and a step whose matrix is cached only re-stamps the
// right-hand side (source values + companion-model history) and does an
// O(n²) in-place substitution — no allocation, no O(n³) refactorization.
//
// The cache has one exact rule. Each entry stores the matrix it factored.
// A step first looks for an entry tagged with its (dt, method, matrix
// epoch); on a tag miss it stamps its matrix and compares it bitwise
// against every stored one, and only when none is equal does it factorize.
// Equal bytes give equal factors, so a cached solve is bit-identical to a
// fresh one by construction, and a switch toggling back to a topology it
// has already visited reuses that topology's factors. When no component's
// matrix stamp reads dt or method (Component::matrix_uses_dt), the tag is
// the epoch alone. Nonlinear circuits fall back to the full Newton loop.
// See docs/PERFORMANCE.md §1.
//
// Adaptive time-stepping (opt-in, `Options::adaptive`): a predictor-based
// local-truncation-error estimate drives a PI step controller so duty-cycled
// waveforms stretch dt through quiescent stretches and shrink it only at
// edges. Accepted step sizes snap to a geometric dt-ladder (tabled once per
// engine), so the factorization cache sees a few recurring dt values;
// components may declare breakpoints so steps land exactly on known
// discontinuities; `Options::observe_dt` turns the run_until observer into
// dense output on a uniform grid. Fixed-step mode remains the default.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "circuits/circuit.hpp"
#include "circuits/components.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace pico::circuits {

// The adaptive controller's geometric dt ladder: rungs dt_min * ratio^k,
// ratio = Transient::kDtLadderRatio, up to the first above dt_max. snap()
// returns the formula's rung,
//   dt_min * ratio^floor(log(dt / dt_min) / log(ratio) + 1e-9),
// and dt_min at or below dt_min, bit for bit, but reaches it by counting
// tabled rung edges instead of taking a log (see snap in transient.cpp).
class DtLadder {
 public:
  DtLadder() = default;
  DtLadder(double dt_min, double dt_max);
  [[nodiscard]] double snap(double dt) const;

 private:
  double dt_min_ = 0.0;
  double log_ratio_ = 0.0;
  // rungs_[k] = dt_min * std::pow(ratio, k), the formula's own expression.
  std::vector<double> rungs_;
  // edges_[k] = dt_min * exp(log(ratio) * (k - 1e-9)): the smallest dt the
  // formula sends to rung k, up to rounding. One more than rungs_, fewer
  // where the span grows so wide that the rounding bound no longer holds.
  std::vector<double> edges_;
  // first_edge_[b] = the number of edges in binades (exponent fields) below
  // binade0_ + b, for every binade up to the last edge's.
  int binade0_ = 0;
  std::vector<std::size_t> first_edge_;
};

class Transient {
 public:
  // Factorization cache slots (LRU). Each distinct matrix a run revisits
  // needs one: a switched netlist has one per topology it visits, an
  // adaptive RC run one per dt rung and method.
  static constexpr std::size_t kLuCacheCapacity = 8;
  // Max adaptive dt growth per accepted step.
  static constexpr double kGrowthCap = 4.0;
  // Accepted adaptive step sizes snap down to dt_min * ratio^k so a
  // duty-cycled run settles onto 2-3 reusable LU factorizations instead of
  // thrashing the cache with a continuum of dt values.
  static constexpr double kDtLadderRatio = 2.0;

  struct Options {
    double dt = 1e-6;        // timestep [s]; adaptive: initial/restart size
    // Cache LU factorizations across steps for linear circuits
    // (bit-identical waveforms either way; off forces the full
    // refactorize-every-step path).
    bool cache_linear_lu = true;

    // --- Adaptive time-stepping (docs/PERFORMANCE.md §2) ------------------
    // Off by default: every existing caller keeps the fixed-step engine and
    // its bit-identical-waveform guarantee.
    bool adaptive = false;
    double dt_min = 1e-9;    // rejection/retry floor; steps never shrink below
    double dt_max = 0.0;     // growth ceiling; 0 = 1000 * dt
    // Per-step LTE target: a candidate step is accepted when the worst
    // node-voltage deviation from the polynomial predictor is below
    // lte_tol * (1 + |v|). Branch currents of voltage sources are algebraic
    // outputs and are excluded from the estimate.
    double lte_tol = 1e-4;
    // Dense output: > 0 makes the adaptive run_until observer fire on the
    // uniform grid t0 + k*observe_dt (solution linearly interpolated between
    // accepted steps) instead of at the irregular accepted times, so
    // sim::Trace / PowerAccountant consumers see the same uniform waveforms
    // as a fixed-dt run.
    double observe_dt = 0.0;
  };

  Transient(Circuit& circuit, Options options);

  // Solve the DC operating point (capacitors open) and make it the current
  // state.
  void solve_dc();

  // Advance one timestep of Options::dt (fixed-step; valid in either mode).
  void step();
  // Advance until `t_end`, invoking `observer` (if set) after each step.
  // The final step is clamped so time() lands exactly on t_end. In adaptive
  // mode the step size is chosen by the LTE controller and the observer
  // follows Options::observe_dt.
  using Observer = std::function<void(double /*time*/, const Vector& /*solution*/)>;
  void run_until(Duration t_end, const Observer& observer = {});

  // Register a known discontinuity time for the adaptive controller to land
  // on exactly (merged with every component's declared_breakpoints() at
  // run_until). Ignored in fixed-step mode; past times are skipped.
  void add_breakpoint(double t) { breakpoints_.push_back(t); }

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] const Vector& solution() const { return x_; }
  [[nodiscard]] double voltage(Node n) const { return Circuit::voltage_of(x_, n); }
  [[nodiscard]] double source_current(const VoltageSource& src) const {
    return circuit_.branch_current(x_, src.branch_index());
  }
  [[nodiscard]] int last_newton_iterations() const { return last_newton_; }
  // True if the last step was solved via the factorization cache.
  [[nodiscard]] bool used_fast_path() const { return used_fast_path_; }
  // Number of LU factorizations performed so far (fast path: one per
  // distinct matrix the cache had not held; full path: one per Newton
  // iteration).
  [[nodiscard]] std::uint64_t lu_factorizations() const { return lu_factorizations_; }

  // --- Adaptive-run introspection -------------------------------------------
  // Rejected step attempts (LTE over tolerance or Newton non-convergence).
  [[nodiscard]] std::uint64_t lte_rejections() const { return rejections_; }
  // Steps clamped to land exactly on a registered breakpoint.
  [[nodiscard]] std::uint64_t breakpoint_hits() const { return bp_hits_; }
  // Live entries in the factorization cache (bounded by kLuCacheCapacity).
  [[nodiscard]] std::size_t lu_cache_entries() const { return lu_cache_.size(); }
  // Evictions of a factorization tagged with the current matrix epoch
  // (capacity pressure).
  [[nodiscard]] std::uint64_t lu_cache_evictions() const { return lu_evictions_; }
  // The controller's current proposal for the next step size.
  [[nodiscard]] double proposed_dt() const { return dt_next_; }

  // --- Observability ---------------------------------------------------------
  // Add this engine's totals into `m`, like every engine's publish_metrics:
  // "transient.steps", "transient.newton_iterations",
  // "transient.lu_cache.{hits,content_hits,misses,invalidations,evictions}",
  // "transient.lu_factorizations", "transient.dt_rejections{,.lte,.newton}"
  // and "transient.dt_breakpoint_hits".
  void publish_metrics(obs::MetricsRegistry& m) const;

  // Accepted transient steps (fast or full path).
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] std::uint64_t newton_iterations_total() const { return newton_total_; }
  // Fast-path solves served by a cached factorization / forced to
  // factorize. Every solve attempt is one or the other, so for a linear
  // time-invariant run hits + misses == attempts (== steps in fixed-step
  // mode, where no attempt is rejected).
  [[nodiscard]] std::uint64_t lu_cache_hits() const { return lu_hits_; }
  [[nodiscard]] std::uint64_t lu_cache_misses() const { return lu_misses_; }
  // The hits whose tag missed but whose stamped matrix was bitwise equal to
  // a cached one (a switch toggled back, or another dt gave the same bytes).
  [[nodiscard]] std::uint64_t lu_cache_content_hits() const { return lu_content_hits_; }
  // Misses that evicted a factorization of an older matrix epoch (a switch
  // toggled since it was used).
  [[nodiscard]] std::uint64_t lu_cache_invalidations() const { return lu_invalidations_; }

 private:
  // One nonlinear solve at the given context; updates x_. Does NOT commit —
  // the caller commits after the step is accepted, so a rejected adaptive
  // attempt leaves component history untouched.
  void solve_system(StampContext& ctx);
  // Full per-iteration restamp + refactorize (Newton / DC / fallback).
  void solve_full(StampContext& ctx);
  // Linear time-invariant circuits: solve through the factorization cache
  // (fixed-step and adaptive alike; exact op order of the reference path).
  void solve_cached(StampContext& ctx);
  // Commit companion-model history after an accepted step.
  void commit_step(StampContext& ctx);
  // One fixed step of the given size (extracted from step() so run_until
  // can clamp the final step onto t_end).
  void advance(double dt);

  // --- Adaptive internals ---
  void run_adaptive(double t_end, const Observer& observer);
  // One adaptive step, never beyond `t_end`; returns the accepted dt.
  double step_adaptive(double t_end);
  // Worst predictor-vs-corrector deviation over node voltages, as a
  // multiple of the tolerance (<= 1 accepts). 0 when no history exists.
  // `t_new` is the attempted end-of-step time (candidate solution in x_,
  // last accepted in x_accept_).
  [[nodiscard]] double lte_error_ratio(double t_new) const;
  [[nodiscard]] double effective_dt_max() const;
  void reset_predictor();  // discontinuity: drop history, restart at opt_.dt

  Circuit& circuit_;
  Options opt_;
  Vector x_;
  double time_ = 0.0;
  int last_newton_ = 0;
  bool newton_converged_ = true;
  // First transient step uses backward Euler: trapezoidal companion models
  // need a consistent reactive-current history, which does not exist at
  // t = 0 (standard SPICE startup practice).
  bool first_step_ = true;

  // Reusable workspaces: the step loop performs no heap allocation once
  // these reach the system size.
  Matrix a_;
  Vector b_;
  Vector iterate_;
  Vector next_;
  Vector prev_state_;
  LuSolver lu_;

  // Flat component schedules (built once in the constructor) so the step
  // loop does not pay a virtual call for components whose pre_step/commit
  // is a no-op, and the fast path's rhs pass skips pure-conductance stamps.
  std::vector<Component*> all_comps_;
  std::vector<Component*> pre_step_comps_;
  std::vector<Component*> commit_comps_;
  std::vector<const Component*> rhs_comps_;

  bool fast_path_eligible_ = false;
  // Some component's matrix stamp reads dt or method, so cache tags must
  // match them too (capacitors).
  bool matrix_uses_dt_ = true;
  bool used_fast_path_ = false;
  std::uint64_t lu_factorizations_ = 0;

  // --- Adaptive state ---
  double dt_next_ = 0.0;        // controller proposal (0 until first run)
  double last_err_ = 0.0;       // previous accepted error ratio (PI term)
  int history_count_ = 0;       // valid predictor points besides x_
  double t_hist1_ = 0.0, t_hist2_ = 0.0;
  Vector x_hist1_, x_hist2_;    // accepted solutions before (time_, x_)
  Vector x_accept_;             // restore point while an attempt is in flight
  Vector obs_buf_;              // dense-output interpolation buffer
  std::uint64_t epoch_seen_ = 0;
  std::vector<double> breakpoints_;      // engine-level, user-registered
  std::vector<double> run_breakpoints_;  // merged + sorted per run_until
  std::size_t bp_cursor_ = 0;
  std::uint64_t rejections_ = 0;
  std::uint64_t bp_hits_ = 0;
  std::uint64_t lu_evictions_ = 0;
  DtLadder ladder_;  // built once, in adaptive mode

  // LRU of factorizations, each with the matrix it factored and the tag of
  // its last use. Entries hold pairwise distinct matrices.
  struct CachedLu {
    double dt = 0.0;
    Method method = Method::kTrapezoidal;
    std::uint64_t epoch = 0;
    std::uint64_t tick = 0;  // LRU stamp
    Matrix a;
    LuSolver lu;
  };
  std::vector<CachedLu> lu_cache_;
  std::uint64_t lu_tick_ = 0;

  // Observability accounting, read by publish_metrics.
  std::uint64_t steps_ = 0;
  std::uint64_t newton_total_ = 0;
  std::uint64_t lu_hits_ = 0;
  std::uint64_t lu_misses_ = 0;
  std::uint64_t lu_content_hits_ = 0;
  std::uint64_t lu_invalidations_ = 0;
  std::uint64_t newton_rejections_ = 0;  // of rejections_; the rest are LTE's
};

}  // namespace pico::circuits
