// metrics.hpp — named counters, gauges, and fixed-bucket histograms.
//
// Thread model: every producing thread gets its own *shard* (a private slot
// array), so hot-path `add`/`set`/`observe` touch only thread-local state
// behind a never-contended per-shard mutex — the work-stealing
// ParallelRunner can bump counters from every worker without cacheline
// ping-pong. `snapshot()` locks each shard briefly and merges:
//
//   counter    — sum across shards
//   gauge      — last write wins (global sequence number), or max across
//                shards for monotone gauges (GaugeAgg::kMax, e.g. queue
//                high-water marks)
//   histogram  — bucket-wise sum; sum/min/max/count merged
//
// Contract: register metrics (counter()/gauge()/histogram()) before handing
// the registry to concurrent producers; the mutating calls themselves are
// safe from any thread. Registering the same name twice returns the same
// id, so many instances (e.g. one Transient per Monte Carlo trial) can
// publish into one registry and their counters accumulate.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"

namespace pico {
class JsonWriter;
}

namespace pico::obs {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = 0xffffffff;

enum class MetricKind { kCounter, kGauge, kHistogram };
enum class GaugeAgg { kLast, kMax };

struct HistogramSnapshot {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint64_t> buckets;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // valid only when count > 0
  double max = 0.0;
  [[nodiscard]] double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  // Interpolated quantile from the bucket histogram: walk the cumulative
  // counts to the bucket holding rank p*count, interpolate linearly inside
  // it, clamp to the observed [min, max]. Underflow mass sits at min,
  // overflow mass at max. Depends only on the merged bucket counts, so it
  // is invariant to shard merge order. p in [0, 1]; 0 with no samples.
  [[nodiscard]] double quantile(double p) const;
};

// Short alias used throughout tooling docs (p50/p99 per series).
using HistSnapshot = HistogramSnapshot;

struct ScalarSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
};

struct MetricsSnapshot {
  std::vector<ScalarSnapshot> scalars;        // registration order
  std::vector<HistogramSnapshot> histograms;  // registration order

  // Scalar value by name; `fallback` when absent.
  [[nodiscard]] double value(const std::string& name, double fallback = 0.0) const;
  // Emit as one JSON object: scalars as numbers, histograms as objects.
  void write_json(JsonWriter& w) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration (same name + kind => same id) ---------------------------
  MetricId counter(const std::string& name);
  MetricId gauge(const std::string& name, GaugeAgg agg = GaugeAgg::kLast);
  MetricId histogram(const std::string& name, double lo, double hi, std::uint32_t buckets);

  // --- Hot path (any thread) ------------------------------------------------
  void add(MetricId id, double delta = 1.0);     // counter
  void set(MetricId id, double value);           // gauge
  void observe(MetricId id, double value);       // histogram

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Descriptor {
    std::string name;
    MetricKind kind;
    GaugeAgg agg = GaugeAgg::kLast;
    double lo = 0.0, hi = 0.0;
    std::uint32_t buckets = 0;
    std::uint32_t slot = 0;  // index into the shard's scalar/hist array
  };
  struct ScalarCell {
    double value = 0.0;
    std::uint64_t seq = 0;  // 0 = never written (gauges)
  };
  struct HistCell {
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0, overflow = 0, count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
  };
  struct Shard {
    std::mutex m;  // uncontended except during snapshot()
    std::vector<ScalarCell> scalars;
    std::vector<HistCell> hists;
  };

  MetricId register_metric(Descriptor desc);
  Shard& local_shard();

  const std::uint64_t uid_;  // process-unique; keys the thread-local shard cache
  mutable std::mutex m_;     // protects descriptors_/by_name_/shards_
  std::deque<Descriptor> descriptors_;  // deque: stable refs for lock-free reads
  std::unordered_map<std::string, MetricId> by_name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint32_t num_scalars_ = 0;
  std::uint32_t num_hists_ = 0;
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace pico::obs
