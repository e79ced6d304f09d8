#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

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
  desc.slot = desc.kind == MetricKind::kHistogram ? num_hists_++ : num_scalars_++;
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

MetricId MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                    std::uint32_t buckets) {
  PICO_REQUIRE(hi > lo, "histogram needs hi > lo");
  PICO_REQUIRE(buckets >= 1, "histogram needs at least one bucket");
  Descriptor d;
  d.name = name;
  d.kind = MetricKind::kHistogram;
  d.lo = lo;
  d.hi = hi;
  d.buckets = buckets;
  return register_metric(std::move(d));
}

void MetricsRegistry::add(MetricId id, double delta) {
  const Descriptor& desc = descriptors_[id];
  PICO_ASSERT(desc.kind == MetricKind::kCounter);
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lk(s.m);
  if (s.scalars.size() <= desc.slot) s.scalars.resize(desc.slot + 1);
  s.scalars[desc.slot].value += delta;
}

void MetricsRegistry::set(MetricId id, double value) {
  const Descriptor& desc = descriptors_[id];
  PICO_ASSERT(desc.kind == MetricKind::kGauge);
  const std::uint64_t seq = 1 + seq_.fetch_add(1, std::memory_order_relaxed);
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lk(s.m);
  if (s.scalars.size() <= desc.slot) s.scalars.resize(desc.slot + 1);
  ScalarCell& cell = s.scalars[desc.slot];
  if (desc.agg == GaugeAgg::kMax) {
    cell.value = cell.seq == 0 ? value : std::max(cell.value, value);
  } else {
    cell.value = value;
  }
  cell.seq = seq;
}

void MetricsRegistry::observe(MetricId id, double value) {
  const Descriptor& desc = descriptors_[id];
  PICO_ASSERT(desc.kind == MetricKind::kHistogram);
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lk(s.m);
  if (s.hists.size() <= desc.slot) s.hists.resize(desc.slot + 1);
  HistCell& h = s.hists[desc.slot];
  if (h.buckets.empty()) h.buckets.assign(desc.buckets, 0);
  if (value < desc.lo) {
    ++h.underflow;
  } else if (value >= desc.hi) {
    ++h.overflow;
  } else {
    const double frac = (value - desc.lo) / (desc.hi - desc.lo);
    auto b = static_cast<std::size_t>(frac * static_cast<double>(desc.buckets));
    if (b >= desc.buckets) b = desc.buckets - 1;  // frac == 1 - eps rounding
    ++h.buckets[b];
  }
  if (h.count == 0) {
    h.min = h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lk(m_);
  // Pre-size result rows in registration order.
  for (const Descriptor& d : descriptors_) {
    if (d.kind == MetricKind::kHistogram) {
      HistogramSnapshot h;
      h.name = d.name;
      h.lo = d.lo;
      h.hi = d.hi;
      h.buckets.assign(d.buckets, 0);
      out.histograms.push_back(std::move(h));
    } else {
      out.scalars.push_back(ScalarSnapshot{d.name, d.kind, 0.0});
    }
  }
  // Gauge kLast: remember the winning sequence number per slot.
  std::vector<std::uint64_t> best_seq(num_scalars_, 0);

  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> sl(shard->m);
    std::size_t scalar_row = 0, hist_row = 0;
    for (const Descriptor& d : descriptors_) {
      if (d.kind == MetricKind::kHistogram) {
        HistogramSnapshot& h = out.histograms[hist_row++];
        if (d.slot >= shard->hists.size()) continue;
        const HistCell& cell = shard->hists[d.slot];
        if (cell.count == 0) continue;
        for (std::size_t b = 0; b < h.buckets.size() && b < cell.buckets.size(); ++b) {
          h.buckets[b] += cell.buckets[b];
        }
        h.underflow += cell.underflow;
        h.overflow += cell.overflow;
        if (h.count == 0) {
          h.min = cell.min;
          h.max = cell.max;
        } else {
          h.min = std::min(h.min, cell.min);
          h.max = std::max(h.max, cell.max);
        }
        h.count += cell.count;
        h.sum += cell.sum;
        continue;
      }
      ScalarSnapshot& row = out.scalars[scalar_row++];
      if (d.slot >= shard->scalars.size()) continue;
      const ScalarCell& cell = shard->scalars[d.slot];
      if (d.kind == MetricKind::kCounter) {
        row.value += cell.value;
      } else if (cell.seq != 0) {
        if (d.agg == GaugeAgg::kMax) {
          row.value = best_seq[d.slot] == 0 ? cell.value : std::max(row.value, cell.value);
          best_seq[d.slot] = 1;
        } else if (cell.seq > best_seq[d.slot]) {
          row.value = cell.value;
          best_seq[d.slot] = cell.seq;
        }
      }
    }
  }
  return out;
}

double HistogramSnapshot::quantile(double p) const {
  if (count == 0) return 0.0;
  if (p <= 0.0) return min;
  if (p >= 1.0) return max;
  // Rank in [0, count): the sample index the quantile falls on.
  const double rank = p * static_cast<double>(count);
  const double width = (hi - lo) / static_cast<double>(buckets.size());
  double cum = static_cast<double>(underflow);  // underflow mass sits at min
  if (rank < cum) return min;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double in_bucket = static_cast<double>(buckets[b]);
    if (in_bucket > 0.0 && rank < cum + in_bucket) {
      const double frac = (rank - cum) / in_bucket;
      const double v = lo + (static_cast<double>(b) + frac) * width;
      return std::min(std::max(v, min), max);
    }
    cum += in_bucket;
  }
  return max;  // overflow mass (and p == 1-eps rounding) sits at max
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
  for (const auto& h : histograms) {
    w.key(h.name).begin_object();
    w.kv("lo", h.lo).kv("hi", h.hi);
    w.kv("count", h.count).kv("sum", h.sum);
    if (h.count > 0) {
      w.kv("min", h.min).kv("max", h.max).kv("mean", h.mean());
      w.kv("p50", h.quantile(0.50)).kv("p99", h.quantile(0.99));
    }
    w.kv("underflow", h.underflow).kv("overflow", h.overflow);
    w.key("buckets").begin_array();
    for (const std::uint64_t b : h.buckets) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

}  // namespace pico::obs
