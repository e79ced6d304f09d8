#include "circuits/transient.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace pico::circuits {

namespace {
// The biased exponent field: for positive doubles, a larger field means a
// larger value.
int binade(double v) { return static_cast<int>(std::bit_cast<std::uint64_t>(v) >> 52); }
}  // namespace

DtLadder::DtLadder(double dt_min, double dt_max) : dt_min_(dt_min) {
  PICO_REQUIRE(dt_min > 0.0, "dt ladder needs a positive dt_min");
  constexpr double ratio = Transient::kDtLadderRatio;
  log_ratio_ = std::log(ratio);
  // Every rung up to dt_max, at most 256 of them; snap falls back to the
  // formula above the table.
  constexpr std::size_t kMaxRungs = 256;
  for (std::size_t k = 0; k < kMaxRungs; ++k) {
    const double rung = dt_min * std::pow(ratio, static_cast<double>(k));
    rungs_.push_back(rung);
    if (rung > dt_max) break;
  }
  // Edges for rungs 0 .. rungs_.size(), while k * log(ratio) <= 64 keeps the
  // rounding of both the edge and the formula far inside snap's 1e-12 band.
  for (std::size_t k = 0; k <= rungs_.size(); ++k) {
    const double span = log_ratio_ * (static_cast<double>(k) - 1e-9);
    if (span > 64.0) break;
    edges_.push_back(dt_min * std::exp(span));
  }
  binade0_ = binade(edges_.front());
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    while (binade0_ + static_cast<int>(first_edge_.size()) <= binade(edges_[k])) {
      first_edge_.push_back(k);
    }
  }
}

// Counting the edges at or below dt finds the formula's rung without a
// log; dt's binade says how many edges lie below it, and one compare per
// edge inside that binade finishes the count (one or two at ratio 2). The
// formula rounds log(dt / dt_min) / log(ratio) + 1e-9 with an error of a
// few ulps of k, ~1e-15 relative in dt, and the tabled edges carry the
// same order of error, so a dt more than 1e-12 relative away from every
// edge provably lands on the rung the formula gives. Closer than that, or past the last edge, snap evaluates
// the formula itself. Exact rungs sit 1e-9 * log(ratio) relative above
// their edge, ~7e-10 at ratio 2, so they never take that path.
double DtLadder::snap(double dt) const {
  if (dt <= dt_min_) return dt_min_;
  // dt > dt_min > edges_[0], so dt's binade is at or above binade0_.
  const auto b = static_cast<std::size_t>(binade(dt) - binade0_);
  if (b < first_edge_.size()) {
    std::size_t n = first_edge_[b];  // edges at or below dt; ends >= 1
    while (n < edges_.size() && edges_[n] <= dt) ++n;
    constexpr double kBand = 1e-12;
    if (n < edges_.size() && edges_[n] - dt > kBand * dt && dt - edges_[n - 1] > kBand * dt) {
      return rungs_[n - 1];
    }
  }
  const double k = std::floor(std::log(dt / dt_min_) / log_ratio_ + 1e-9);
  if (k < static_cast<double>(rungs_.size())) return rungs_[static_cast<std::size_t>(k)];
  return dt_min_ * std::pow(Transient::kDtLadderRatio, k);
}

Transient::Transient(Circuit& circuit, Options options) : circuit_(circuit), opt_(options) {
  PICO_REQUIRE(opt_.dt > 0.0, "transient timestep must be positive");
  circuit_.finalize();
  const std::size_t dim = circuit_.system_size();
  x_.assign(dim, 0.0);
  a_.resize(dim, dim);
  b_.assign(dim, 0.0);
  iterate_.assign(dim, 0.0);
  next_.assign(dim, 0.0);
  prev_state_.assign(dim, 0.0);
  fast_path_eligible_ = opt_.cache_linear_lu && circuit_.linear_time_invariant();
  for (const auto& comp : circuit_.components()) {
    Component* c = comp.get();
    all_comps_.push_back(c);
    if (c->has_pre_step()) pre_step_comps_.push_back(c);
    if (c->has_commit()) commit_comps_.push_back(c);
    if (c->stamps_rhs()) rhs_comps_.push_back(c);
  }
  if (fast_path_eligible_) {
    matrix_uses_dt_ = std::any_of(all_comps_.begin(), all_comps_.end(),
                                  [](const Component* c) { return c->matrix_uses_dt(); });
    // Slots are found by pointer; pre-reserving keeps them stable.
    lu_cache_.reserve(kLuCacheCapacity);
  }
  if (opt_.adaptive) {
    PICO_REQUIRE(opt_.dt_min > 0.0, "adaptive dt_min must be positive");
    PICO_REQUIRE(effective_dt_max() >= opt_.dt_min, "adaptive dt_max must be >= dt_min");
    PICO_REQUIRE(opt_.lte_tol > 0.0, "adaptive lte_tol must be positive");
    PICO_REQUIRE(opt_.observe_dt >= 0.0, "observe_dt must be non-negative");
    ladder_ = DtLadder(opt_.dt_min, effective_dt_max());
    x_hist1_.assign(dim, 0.0);
    x_hist2_.assign(dim, 0.0);
    x_accept_.assign(dim, 0.0);
    obs_buf_.assign(dim, 0.0);
  }
  epoch_seen_ = circuit_.matrix_epoch();
}

void Transient::solve_cached(StampContext& ctx) {
  // Tag lookup: an entry last used at this (dt, method, epoch) holds this
  // step's matrix. An epoch names one state of every mutable stamp, so when
  // no stamp reads dt or method the epoch alone suffices. Capacity is
  // small; a linear scan beats any map.
  const std::uint64_t epoch = circuit_.matrix_epoch();
  CachedLu* entry = nullptr;
  for (auto& e : lu_cache_) {
    if (e.epoch == epoch && (!matrix_uses_dt_ || (e.dt == ctx.dt && e.method == ctx.method))) {
      entry = &e;
      break;
    }
  }
  ctx.iterate = &x_;  // linear stamps never read it; kept for uniformity
  if (entry != nullptr) {
    ++lu_hits_;
    // rhs-only pass: pure-conductance components are skipped entirely; only
    // source values and companion-model history currents land in b_.
    b_.fill(0.0);
    Stamper stamper(nullptr, &b_, circuit_.num_nodes());
    for (const Component* comp : rhs_comps_) comp->stamp(stamper, ctx);
  } else {
    a_.fill(0.0);
    b_.fill(0.0);
    Stamper stamper(&a_, &b_, circuit_.num_nodes());
    for (const Component* comp : all_comps_) comp->stamp(stamper, ctx);
    // Content lookup: a bitwise-equal matrix factorizes to bitwise-equal
    // factors, so reusing them is exact (a switch toggling back, say).
    for (auto& e : lu_cache_) {
      if (e.a.same_bits(a_)) {
        entry = &e;
        break;
      }
    }
    if (entry != nullptr) {
      ++lu_hits_;
      ++lu_content_hits_;
    } else {
      ++lu_misses_;
      if (lu_cache_.size() < kLuCacheCapacity) {
        entry = &lu_cache_.emplace_back();
      } else {
        for (auto& e : lu_cache_) {
          if (entry == nullptr || e.tick < entry->tick) entry = &e;
        }
        if (entry->epoch == epoch) {
          ++lu_evictions_;  // a factorization of the current topology lost its slot
        } else {
          ++lu_invalidations_;
        }
      }
      entry->a = a_;
      entry->lu.factorize(a_);
      ++lu_factorizations_;
    }
    entry->dt = ctx.dt;
    entry->method = ctx.method;
    entry->epoch = epoch;
  }
  entry->tick = ++lu_tick_;
  entry->lu.solve_into(b_, x_);
  last_newton_ = 1;
  newton_converged_ = true;
  used_fast_path_ = true;
}

void Transient::solve_full(StampContext& ctx) {
  const std::size_t dim = circuit_.system_size();
  iterate_ = x_;
  constexpr int kMaxNewton = 100;   // Newton iterations per step
  constexpr double kTolAbs = 1e-9;  // absolute convergence tolerance [V / A]
  constexpr double kTolRel = 1e-6;  // relative convergence tolerance
  const bool needs_newton = circuit_.has_nonlinear();
  const int iters = needs_newton ? kMaxNewton : 1;

  prev_state_ = x_;  // last accepted solution, for companion history
  ctx.previous = &prev_state_;

  bool converged = false;
  int it = 0;
  for (; it < iters; ++it) {
    a_.fill(0.0);
    b_.fill(0.0);
    Stamper stamper(&a_, &b_, circuit_.num_nodes());
    ctx.iterate = &iterate_;
    for (const Component* comp : all_comps_) comp->stamp(stamper, ctx);
    lu_.factorize(a_);
    ++lu_factorizations_;
    lu_.solve_into(b_, next_);

    // Convergence: infinity-norm of the update.
    double delta = 0.0;
    double scale = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      delta = std::max(delta, std::fabs(next_[i] - iterate_[i]));
      scale = std::max(scale, std::fabs(next_[i]));
    }
    std::swap(iterate_, next_);
    if (!needs_newton || delta <= kTolAbs + kTolRel * scale) {
      converged = true;
      ++it;
      break;
    }
  }
  last_newton_ = it;
  // Fixed-step mode keeps the historical "accept anyway" behavior on Newton
  // exhaustion; the adaptive controller instead treats it as a rejection
  // and retries with a smaller step.
  newton_converged_ = converged;
  std::swap(x_, iterate_);
  used_fast_path_ = false;
  ctx.iterate = &x_;
}

void Transient::solve_system(StampContext& ctx) {
  if (fast_path_eligible_ && !ctx.dc) {
    solve_cached(ctx);
  } else {
    solve_full(ctx);
  }
}

void Transient::commit_step(StampContext& ctx) {
  ctx.iterate = &x_;
  for (Component* comp : commit_comps_) comp->commit(x_, ctx);
}

void Transient::solve_dc() {
  StampContext ctx;
  ctx.time = time_;
  ctx.dt = 0.0;
  ctx.dc = true;
  ctx.method = Method::kTrapezoidal;
  for (Component* comp : pre_step_comps_) comp->pre_step(x_, time_);
  solve_system(ctx);
  commit_step(ctx);
}

void Transient::advance(double dt) {
  const double t_next = time_ + dt;
  for (Component* comp : pre_step_comps_) comp->pre_step(x_, time_);
  StampContext ctx;
  ctx.time = t_next;
  ctx.dt = dt;
  ctx.dc = false;
  ctx.method = first_step_ ? Method::kBackwardEuler : Method::kTrapezoidal;
  first_step_ = false;
  solve_system(ctx);
  commit_step(ctx);
  time_ = t_next;
  ++steps_;
  newton_total_ += static_cast<std::uint64_t>(last_newton_);
}

void Transient::step() { advance(opt_.dt); }

double Transient::effective_dt_max() const {
  return opt_.dt_max > 0.0 ? opt_.dt_max : 1000.0 * opt_.dt;
}

void Transient::reset_predictor() {
  history_count_ = 0;
  last_err_ = 0.0;
  dt_next_ = std::clamp(opt_.dt, opt_.dt_min, effective_dt_max());
}

double Transient::lte_error_ratio(double t_new) const {
  if (history_count_ < 1) return 0.0;
  // Embedded predictor: extrapolate the accepted-solution history to t_new
  // and compare against the implicit corrector in x_. Linear extrapolation
  // checks the backward-Euler O(h²) term; with two history points the
  // quadratic (Milne-style) difference tracks the trapezoidal O(h³) term.
  // Only node voltages participate: voltage-source branch currents are
  // algebraic outputs whose jumps at source edges are not integration error.
  const std::size_t nv = circuit_.num_nodes();
  const double t1 = t_hist1_;
  const double h = t_new - time_;
  const double d01 = time_ - t1;
  const bool quad = history_count_ >= 2;
  const double inv_d01 = 1.0 / d01;
  const double inv_d02 = quad ? 1.0 / (time_ - t_hist2_) : 0.0;
  const double inv_d12 = quad ? 1.0 / (t1 - t_hist2_) : 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < nv; ++i) {
    const double x0 = x_accept_[i];
    const double f01 = (x0 - x_hist1_[i]) * inv_d01;
    double pred = x0 + f01 * h;
    if (quad) {
      const double f12 = (x_hist1_[i] - x_hist2_[i]) * inv_d12;
      pred += (f01 - f12) * inv_d02 * h * (t_new - t1);
    }
    const double diff = std::fabs(x_[i] - pred);
    const double scale = opt_.lte_tol * (1.0 + std::fabs(x_[i]));
    worst = std::max(worst, diff / scale);
  }
  return worst;
}

double Transient::step_adaptive(double t_end) {
  // Switch controllers may toggle discrete state here; an epoch change is a
  // discontinuity, so the extrapolation history is no longer meaningful.
  for (Component* comp : pre_step_comps_) comp->pre_step(x_, time_);
  if (circuit_.matrix_epoch() != epoch_seen_) {
    epoch_seen_ = circuit_.matrix_epoch();
    reset_predictor();
  }

  // Nearest pending breakpoint strictly ahead of the current time.
  const double t_eps = 1e-12 * std::max(1.0, std::fabs(time_));
  while (bp_cursor_ < run_breakpoints_.size() &&
         run_breakpoints_[bp_cursor_] <= time_ + t_eps) {
    ++bp_cursor_;
  }
  double limit = t_end;
  bool limit_is_bp = false;
  if (bp_cursor_ < run_breakpoints_.size() && run_breakpoints_[bp_cursor_] < t_end) {
    limit = run_breakpoints_[bp_cursor_];
    limit_is_bp = true;
  }

  const double dt_hi = effective_dt_max();
  const double dt_prop = ladder_.snap(std::clamp(dt_next_, opt_.dt_min, dt_hi));
  double dt = dt_prop;
  const double remaining = limit - time_;
  bool clamped = false;
  // Land exactly on the limit, and absorb a would-be sub-dt_min sliver into
  // this step rather than leaving an unsteppable remainder.
  if (dt >= remaining * (1.0 - 1e-12) || remaining - dt < opt_.dt_min) {
    dt = remaining;
    clamped = true;
  }

  x_accept_ = x_;  // restore point for rejected attempts
  StampContext ctx;
  double err = 0.0;
  for (int attempt = 0;; ++attempt) {
    ctx = StampContext{};
    ctx.dt = dt;
    ctx.dc = false;
    // No consistent reactive history right after a discontinuity: fall back
    // to backward Euler for one step (same rule as the fixed-path start).
    ctx.method = history_count_ == 0 ? Method::kBackwardEuler : Method::kTrapezoidal;
    ctx.time = clamped ? limit : time_ + dt;
    solve_system(ctx);
    err = newton_converged_ ? lte_error_ratio(ctx.time) : 0.0;
    const bool accept = newton_converged_ && err <= 1.0;
    if (accept || dt <= opt_.dt_min * (1.0 + 1e-9) || attempt >= 30) break;

    // Reject: restore the last accepted state and retry smaller.
    ++rejections_;
    if (!newton_converged_) ++newton_rejections_;
    x_ = x_accept_;
    double shrink = 0.25;  // Newton failed: no usable error estimate
    if (newton_converged_) {
      const double p_inv =
          (ctx.method == Method::kTrapezoidal && history_count_ >= 2) ? 1.0 / 3.0 : 0.5;
      shrink = std::clamp(0.9 * std::pow(err, -p_inv), 0.1, 0.5);
    }
    dt = std::max(opt_.dt_min, ladder_.snap(dt * shrink));
    clamped = false;
  }

  first_step_ = false;
  commit_step(ctx);

  // PI controller (Gustafsson-style): integral term on this step's error,
  // proportional term on the trend against the previous accepted step.
  const double p_inv =
      (ctx.method == Method::kTrapezoidal && history_count_ >= 2) ? 1.0 / 3.0 : 0.5;
  double grow = kGrowthCap;
  if (err > 1e-10) {
    grow = 0.9 * std::pow(err, -0.7 * p_inv);
    if (last_err_ > 1e-10) grow *= std::pow(last_err_ / err, 0.4 * p_inv);
  }
  grow = std::clamp(grow, 0.1, kGrowthCap);
  // A step clamped onto a window boundary says nothing about the LTE-stable
  // size; do not let it drag the proposal below the unclamped one.
  const double basis = clamped ? std::max(dt, dt_prop) : dt;
  dt_next_ = std::clamp(basis * grow, opt_.dt_min, dt_hi);
  last_err_ = err;

  // Shift the predictor history: the outgoing state becomes point 1.
  std::swap(x_hist2_, x_hist1_);
  t_hist2_ = t_hist1_;
  std::swap(x_hist1_, x_accept_);
  t_hist1_ = time_;
  if (history_count_ < 2) ++history_count_;
  time_ = ctx.time;

  if (clamped && limit_is_bp) {
    // Landed exactly on a declared discontinuity: restart the history and
    // the controller on its far side.
    ++bp_hits_;
    ++bp_cursor_;
    reset_predictor();
  }

  ++steps_;
  newton_total_ += static_cast<std::uint64_t>(last_newton_);
  return dt;
}

void Transient::run_adaptive(double t_end, const Observer& observer) {
  // Merge engine-level and component-declared breakpoints for this run.
  run_breakpoints_.clear();
  run_breakpoints_.insert(run_breakpoints_.end(), breakpoints_.begin(), breakpoints_.end());
  for (const Component* comp : all_comps_) {
    const auto& bps = comp->declared_breakpoints();
    run_breakpoints_.insert(run_breakpoints_.end(), bps.begin(), bps.end());
  }
  std::sort(run_breakpoints_.begin(), run_breakpoints_.end());
  bp_cursor_ = 0;

  if (dt_next_ <= 0.0) reset_predictor();
  double next_obs = time_ + opt_.observe_dt;
  const double end_eps = 1e-12 * std::max(1.0, std::fabs(t_end));
  while (t_end - time_ > end_eps) {
    const double t_prev = time_;
    step_adaptive(t_end);
    if (observer) {
      if (opt_.observe_dt > 0.0) {
        // Dense output: interpolate onto the uniform grid between the
        // previous accepted point (t_prev == t_hist1_, x_hist1_) and now.
        while (next_obs <= time_ + end_eps) {
          const double span = time_ - t_prev;
          const double w = span > 0.0 ? (next_obs - t_prev) / span : 1.0;
          for (std::size_t i = 0; i < x_.size(); ++i) {
            obs_buf_[i] = x_hist1_[i] + (x_[i] - x_hist1_[i]) * w;
          }
          observer(next_obs, obs_buf_);
          next_obs += opt_.observe_dt;
        }
      } else {
        observer(time_, x_);
      }
    }
  }
  if (std::fabs(time_ - t_end) <= end_eps) time_ = t_end;
}

void Transient::run_until(Duration t_end, const Observer& observer) {
  PICO_REQUIRE(t_end.value() >= time_, "run_until target is in the past");
  if (opt_.adaptive) {
    run_adaptive(t_end.value(), observer);
    return;
  }
  const double te = t_end.value();
  const double eps = 1e-6 * opt_.dt;
  while (te - time_ > eps) {
    const double remaining = te - time_;
    // Clamp the final step to land exactly on t_end instead of integrating
    // past it. Remainders within 1e-6 dt of a full step are a full step
    // (floating-point accumulation, absorbed by the snap below), so runs
    // whose t_end is an exact multiple of dt keep their historical step
    // sizes — and bit-identical waveforms.
    advance(remaining < opt_.dt * (1.0 - 1e-6) ? remaining : opt_.dt);
    if (observer) observer(time_, x_);
  }
  if (std::fabs(time_ - te) <= eps) time_ = te;
}

void Transient::publish_metrics(obs::MetricsRegistry& m) const {
  const auto add = [&m](const char* name, std::uint64_t total) {
    m.add(m.counter(name), static_cast<double>(total));
  };
  add("transient.steps", steps_);
  add("transient.newton_iterations", newton_total_);
  add("transient.lu_cache.hits", lu_hits_);
  add("transient.lu_cache.content_hits", lu_content_hits_);
  add("transient.lu_cache.misses", lu_misses_);
  add("transient.lu_cache.invalidations", lu_invalidations_);
  add("transient.lu_factorizations", lu_factorizations_);
  add("transient.dt_rejections", rejections_);
  add("transient.dt_rejections.lte", rejections_ - newton_rejections_);
  add("transient.dt_rejections.newton", newton_rejections_);
  add("transient.dt_breakpoint_hits", bp_hits_);
  add("transient.lu_cache.evictions", lu_evictions_);
}

}  // namespace pico::circuits
