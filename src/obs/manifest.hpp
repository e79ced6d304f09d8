// manifest.hpp — one JSON document describing one run.
//
// A RunManifest pins everything needed to reproduce or audit a run: the
// tool name, wall-clock creation time, build provenance (git describe,
// build type, compiler, flags, sanitizer — captured at configure time
// into the generated build_info.hpp), the run's
// configuration (seeds, trial counts, CLI flags) as a flat key/value
// object, and the final metrics snapshot. Benches write it next to their
// trace as `<prefix>.manifest.json`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pico::obs {

struct BuildInfo {
  std::string git_describe;
  std::string build_type;
  std::string compiler;
  std::string cxx_flags;
  std::string sanitizer;

  // The values baked into this binary at configure time.
  static BuildInfo current();
};

class RunManifest {
 public:
  explicit RunManifest(std::string tool);

  // Config entries keep insertion order; setting an existing key overwrites.
  void set(const std::string& key, std::string value);
  void set(const std::string& key, const char* value) { set(key, std::string(value)); }
  void set(const std::string& key, double value);
  void set(const std::string& key, std::uint64_t value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, int value) { set(key, static_cast<std::int64_t>(value)); }
  void set(const std::string& key, unsigned value) { set(key, static_cast<std::uint64_t>(value)); }
  void set(const std::string& key, bool value);

  // RNG base seed (rendered separately from the config block).
  void set_seed(std::uint64_t seed) { seed_ = seed; }

  // Final metric snapshot for the run (usually registry.snapshot()).
  void set_metrics(MetricsSnapshot snapshot) { metrics_ = std::move(snapshot); }

  // Attach a pre-rendered JSON sub-document under a top-level key (the
  // telemetry-series / flight-recorder / envelope summaries). Same key
  // overwrites; emitted after "config" in insertion order.
  void set_section(const std::string& key, std::string json);

  [[nodiscard]] const std::string& tool() const { return tool_; }
  [[nodiscard]] std::string to_json() const;
  void write(const std::string& path) const;

 private:
  struct Entry {
    std::string key;
    enum class Kind { kString, kNumber, kInteger, kBool } kind;
    std::string str;
    double num = 0.0;
    std::int64_t integer = 0;
    std::uint64_t uinteger = 0;
    bool is_unsigned = false;
    bool boolean = false;
  };

  Entry& entry(const std::string& key);

  std::string tool_;
  std::string created_utc_;
  std::optional<std::uint64_t> seed_;
  std::vector<Entry> config_;
  std::vector<std::pair<std::string, std::string>> sections_;  // key -> raw JSON
  std::optional<MetricsSnapshot> metrics_;
};

}  // namespace pico::obs
