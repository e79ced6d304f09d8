#include "obs/manifest.hpp"

#include <chrono>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/build_info.hpp"

namespace pico::obs {

namespace {
std::string utc_now_iso8601() {
  const std::time_t t = std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}
}  // namespace

BuildInfo BuildInfo::current() {
  BuildInfo b;
  b.git_describe = PICO_GIT_DESCRIBE;
  b.build_type = PICO_BUILD_TYPE;
  b.compiler = PICO_COMPILER_ID;
  b.cxx_flags = PICO_CXX_FLAGS;
  b.sanitizer = PICO_SANITIZE_STR;
  return b;
}

RunManifest::RunManifest(std::string tool)
    : tool_(std::move(tool)), created_utc_(utc_now_iso8601()) {}

RunManifest::Entry& RunManifest::entry(const std::string& key) {
  for (Entry& e : config_) {
    if (e.key == key) return e;
  }
  config_.push_back(Entry{});
  config_.back().key = key;
  return config_.back();
}

void RunManifest::set(const std::string& key, std::string value) {
  Entry& e = entry(key);
  e.kind = Entry::Kind::kString;
  e.str = std::move(value);
}

void RunManifest::set(const std::string& key, double value) {
  Entry& e = entry(key);
  e.kind = Entry::Kind::kNumber;
  e.num = value;
}

void RunManifest::set(const std::string& key, std::uint64_t value) {
  Entry& e = entry(key);
  e.kind = Entry::Kind::kInteger;
  e.uinteger = value;
  e.is_unsigned = true;
}

void RunManifest::set(const std::string& key, std::int64_t value) {
  Entry& e = entry(key);
  e.kind = Entry::Kind::kInteger;
  e.integer = value;
  e.is_unsigned = false;
}

void RunManifest::set(const std::string& key, bool value) {
  Entry& e = entry(key);
  e.kind = Entry::Kind::kBool;
  e.boolean = value;
}

void RunManifest::set_section(const std::string& key, std::string json) {
  for (auto& [k, v] : sections_) {
    if (k == key) {
      v = std::move(json);
      return;
    }
  }
  sections_.emplace_back(key, std::move(json));
}

std::string RunManifest::to_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("tool", tool_);
  w.kv("created_utc", created_utc_);
  if (seed_) w.kv("base_seed", *seed_);

  const BuildInfo b = BuildInfo::current();
  w.key("build").begin_object();
  w.kv("git_describe", b.git_describe);
  w.kv("build_type", b.build_type);
  w.kv("compiler", b.compiler);
  w.kv("cxx_flags", b.cxx_flags);
  w.kv("sanitizer", b.sanitizer);
  w.end_object();

  w.key("config").begin_object();
  for (const Entry& e : config_) {
    switch (e.kind) {
      case Entry::Kind::kString: w.kv(e.key, e.str); break;
      case Entry::Kind::kNumber: w.kv(e.key, e.num); break;
      case Entry::Kind::kInteger:
        if (e.is_unsigned) {
          w.kv(e.key, e.uinteger);
        } else {
          w.kv(e.key, e.integer);
        }
        break;
      case Entry::Kind::kBool: w.kv(e.key, e.boolean); break;
    }
  }
  w.end_object();

  for (const auto& [key, json] : sections_) w.key(key).raw(json);

  if (metrics_) {
    w.key("metrics");
    metrics_->write_json(w);
  }
  w.end_object();
  os << '\n';
  return os.str();
}

void RunManifest::write(const std::string& path) const {
  std::ofstream os(path);
  PICO_REQUIRE(os.good(), "cannot open manifest output: " + path);
  os << to_json();
}

}  // namespace pico::obs
