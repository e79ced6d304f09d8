// rng.hpp — deterministic random number generation.
//
// All stochastic models in the library draw from `pico::Rng`, a
// xoshiro256++ generator seeded via splitmix64. The same seed always yields
// the same simulation trace on every platform, which the integration tests
// rely on (deterministic replay).
#pragma once

#include <cstdint>
#include <limits>

namespace pico {

// xoshiro256++ 1.0 (Blackman & Vigna, public domain reference
// implementation), seeded with splitmix64 so that any 64-bit seed produces
// a well-distributed initial state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() { return next(); }
  std::uint64_t next();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);
  // Standard normal via Box–Muller (cached second deviate).
  double normal();
  // Normal with given mean and standard deviation.
  double normal(double mean, double stddev);
  // Bernoulli trial.
  bool chance(double p);

  // Deterministic per-index stream: stream(base, i) yields the same
  // generator no matter which thread asks or in what order, so Monte Carlo
  // trial i sees identical randomness at any worker count (see
  // runtime::ParallelRunner and docs/PERFORMANCE.md). The base seed and
  // index are both diffused through splitmix64 before seeding, so adjacent
  // indices produce uncorrelated streams.
  [[nodiscard]] static Rng stream(std::uint64_t base_seed, std::uint64_t stream_index);

  // Full generator state for checkpoint/restore (src/ckpt). The cached
  // Box–Muller deviate is part of the state: a generator restored
  // mid-pair must hand out the same second normal the original would.
  struct State {
    std::uint64_t s[4] = {};
    double cached_normal = 0.0;
    bool has_cached_normal = false;

    bool operator==(const State&) const = default;
  };
  [[nodiscard]] State state() const {
    return State{{s_[0], s_[1], s_[2], s_[3]}, cached_normal_, has_cached_normal_};
  }
  void set_state(const State& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    cached_normal_ = st.cached_normal;
    has_cached_normal_ = st.has_cached_normal;
  }

 private:
  std::uint64_t s_[4] = {};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace pico
