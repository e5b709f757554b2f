// Shared helpers for the reproduction benches: consistent table output
// and environment-driven scaling (SENIDS_SCALE=paper runs the full-size
// workloads of the paper; the default is scaled for quick iteration).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace senids::bench {

inline bool paper_scale() {
  const char* env = std::getenv("SENIDS_SCALE");
  return env != nullptr && std::strcmp(env, "paper") == 0;
}

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (!env) return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  return (end && *end == '\0' && v > 0) ? static_cast<std::size_t>(v) : fallback;
}

/// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1];
/// `v` must not be empty.
inline double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline void rule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void title(const char* text) {
  rule('=');
  std::printf("%s\n", text);
  rule('=');
}

inline void section(const char* text) {
  std::printf("\n%s\n", text);
  rule('-');
}

/// Machine-readable companion to the human tables: a flat string/number
/// object written to BENCH_<name>.json so CI can upload and diff bench
/// results as artifacts. Destination directory comes from
/// SENIDS_BENCH_JSON_DIR (default: the working directory).
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void set(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    fields_.emplace_back(key, buf);
  }
  void set(const std::string& key, std::size_t v) {
    fields_.emplace_back(key, std::to_string(v));
  }
  void set(const std::string& key, bool v) {
    fields_.emplace_back(key, v ? "true" : "false");
  }
  void set_string(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    fields_.emplace_back(key, quoted);
  }

  /// Write BENCH_<name>.json; prints the path on success. Failure to
  /// write is reported but never fails the bench (the human table is the
  /// primary output).
  void write() const {
    const char* dir = std::getenv("SENIDS_BENCH_JSON_DIR");
    const std::string path =
        std::string(dir && *dir ? dir : ".") + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\"", name_.c_str());
    for (const auto& [key, value] : fields_) {
      std::fprintf(f, ",\n  \"%s\": %s", key.c_str(), value.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("json: %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace senids::bench
