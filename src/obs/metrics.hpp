// metrics.hpp — named counters and gauges.
//
// Thread model: every producing thread gets its own *shard* (a private slot
// array), so hot-path `add`/`set` touch only thread-local state
// behind a never-contended per-shard mutex — the work-stealing
// ParallelRunner can bump counters from every worker without cacheline
// ping-pong. `snapshot()` locks each shard briefly and merges:
//
//   counter    — sum across shards
//   gauge      — last write wins (global sequence number), or max across
//                shards for monotone gauges (GaugeAgg::kMax, e.g. queue
//                high-water marks)
//
// Contract: register metrics (counter()/gauge()) before handing
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

namespace pico {
class JsonWriter;
}

namespace pico::obs {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = 0xffffffff;

enum class MetricKind { kCounter, kGauge };
enum class GaugeAgg { kLast, kMax };

struct ScalarSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
};

struct MetricsSnapshot {
  std::vector<ScalarSnapshot> scalars;  // registration order

  // Scalar value by name; `fallback` when absent.
  [[nodiscard]] double value(const std::string& name, double fallback = 0.0) const;
  // Emit as one JSON object of numbers.
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

  // --- Hot path (any thread) ------------------------------------------------
  void add(MetricId id, double delta = 1.0);     // counter
  void set(MetricId id, double value);           // gauge

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Descriptor {
    std::string name;
    MetricKind kind;
    GaugeAgg agg = GaugeAgg::kLast;
  };
  struct ScalarCell {
    double value = 0.0;
    std::uint64_t seq = 0;  // 0 = never written (gauges)
  };
  struct Shard {
    std::mutex m;  // uncontended except during snapshot()
    std::vector<ScalarCell> scalars;  // indexed by MetricId
  };

  MetricId register_metric(Descriptor desc);
  Shard& local_shard();

  const std::uint64_t uid_;  // process-unique; keys the thread-local shard cache
  mutable std::mutex m_;     // protects descriptors_/by_name_/shards_
  std::deque<Descriptor> descriptors_;  // deque: stable refs for lock-free reads
  std::unordered_map<std::string, MetricId> by_name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace pico::obs
