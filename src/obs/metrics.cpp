#include "obs/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/json.hpp"

namespace pico::obs {

namespace {
std::atomic<std::uint64_t> g_registry_uid{1};
}  // namespace

MetricsRegistry::MetricsRegistry() : uid_(g_registry_uid.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  // Per-thread cache: registry uid -> shard owned by that registry. Uids
  // are never reused, so an entry for a destroyed registry is simply never
  // hit again (bounded by the number of registries a thread ever touches).
  thread_local std::unordered_map<std::uint64_t, Shard*> cache;
  auto it = cache.find(uid_);
  if (it != cache.end()) return *it->second;
  auto shard = std::make_unique<Shard>();
  Shard* p = shard.get();
  {
    std::lock_guard<std::mutex> lk(m_);
    shards_.push_back(std::move(shard));
  }
  cache.emplace(uid_, p);
  return *p;
}

MetricId MetricsRegistry::register_metric(Descriptor desc) {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = by_name_.find(desc.name);
  if (it != by_name_.end()) {
    const Descriptor& existing = descriptors_[it->second];
    PICO_REQUIRE(existing.kind == desc.kind,
                 "metric re-registered with a different kind: " + desc.name);
    return it->second;
  }
  const auto id = static_cast<MetricId>(descriptors_.size());
  by_name_.emplace(desc.name, id);
  descriptors_.push_back(std::move(desc));
  return id;
}

MetricId MetricsRegistry::counter(const std::string& name) {
  Descriptor d;
  d.name = name;
  d.kind = MetricKind::kCounter;
  return register_metric(std::move(d));
}

MetricId MetricsRegistry::gauge(const std::string& name, GaugeAgg agg) {
  Descriptor d;
  d.name = name;
  d.kind = MetricKind::kGauge;
  d.agg = agg;
  return register_metric(std::move(d));
}

void MetricsRegistry::add(MetricId id, double delta) {
  PICO_ASSERT(descriptors_[id].kind == MetricKind::kCounter);
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lk(s.m);
  if (s.scalars.size() <= id) s.scalars.resize(id + 1);
  s.scalars[id].value += delta;
}

void MetricsRegistry::set(MetricId id, double value) {
  const Descriptor& desc = descriptors_[id];
  PICO_ASSERT(desc.kind == MetricKind::kGauge);
  const std::uint64_t seq = 1 + seq_.fetch_add(1, std::memory_order_relaxed);
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lk(s.m);
  if (s.scalars.size() <= id) s.scalars.resize(id + 1);
  ScalarCell& cell = s.scalars[id];
  if (desc.agg == GaugeAgg::kMax) {
    cell.value = cell.seq == 0 ? value : std::max(cell.value, value);
  } else {
    cell.value = value;
  }
  cell.seq = seq;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lk(m_);
  for (const Descriptor& d : descriptors_) {
    out.scalars.push_back(ScalarSnapshot{d.name, d.kind, 0.0});
  }
  // Gauge kLast: remember the winning sequence number per metric.
  std::vector<std::uint64_t> best_seq(descriptors_.size(), 0);

  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> sl(shard->m);
    for (std::size_t id = 0; id < shard->scalars.size(); ++id) {
      const Descriptor& d = descriptors_[id];
      ScalarSnapshot& row = out.scalars[id];
      const ScalarCell& cell = shard->scalars[id];
      if (d.kind == MetricKind::kCounter) {
        row.value += cell.value;
      } else if (cell.seq != 0) {
        if (d.agg == GaugeAgg::kMax) {
          row.value = best_seq[id] == 0 ? cell.value : std::max(row.value, cell.value);
          best_seq[id] = 1;
        } else if (cell.seq > best_seq[id]) {
          row.value = cell.value;
          best_seq[id] = cell.seq;
        }
      }
    }
  }
  return out;
}

double MetricsSnapshot::value(const std::string& name, double fallback) const {
  for (const auto& s : scalars) {
    if (s.name == name) return s.value;
  }
  return fallback;
}

void MetricsSnapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  for (const auto& s : scalars) w.kv(s.name, s.value);
  w.end_object();
}

}  // namespace pico::obs
