// Order statistics and the result line.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for an even count); 0 for no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Interquartile mean: the mean of the middle half of the samples (all of
/// them below four). Used across passes and rounds: unlike the median it
/// does not jump between the modes when the host runs at two speeds in
/// turn, and unlike the mean one stalled pass cannot move it far.
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() >= 4 ? v.size() / 4 : 0;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// The highest percentile that still has at least `beyond` samples above
/// it: the (beyond+1)-th largest sample. Also reports which percentile
/// that is.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};

inline Tail tail_with(std::vector<double> v, std::size_t beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() > beyond ? v.size() - 1 - beyond : 0;
  t.value = v[idx];
  t.beyond = v.size() - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return t;
}

/// Named metrics in emission order, each with its unit.
class Metrics {
 public:
  void set(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }

  /// The one-line JSON result the benchmark ends its output with.
  void print_result(bool correct, std::size_t attempted, std::size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                  items_[i].name.c_str(), items_[i].value, items_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace perfbench
