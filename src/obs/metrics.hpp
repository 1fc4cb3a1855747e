// Named counters/gauges/histograms for engine-wide accounting: ProfileCache
// hits/misses, ThreadPool throughput, explorer simulate/replay/memo split,
// governor decision mix, scenario-engine event totals. One registry per
// run; components hoist references to their instruments once (std::map
// storage keeps references stable) and bump them on the hot path with a
// single add.
//
// Deliberately NOT thread-safe: the registry is written from the
// coordinating thread only. Multi-threaded components (util::ThreadPool)
// keep their own internal atomics and publish a snapshot into the registry
// when the parallel phase ends — same discipline as the explorer's
// preassigned-slot determinism rule.
//
// The JSON dump is sorted by instrument name (std::map order), so the byte
// stream is a pure function of the recorded values.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace daedvfs::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Count/sum/min/max summary — enough for per-frame quantities (latency
/// debt, retry counts) without committing to a bucket layout.
class Histogram {
 public:
  void observe(double v) {
    ++count_;
    sum_ += v;
    min_ = count_ == 1 ? v : std::min(min_, v);
    max_ = count_ == 1 ? v : std::max(max_, v);
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Instrument lookup creates on first use. References stay valid for the
  /// registry's lifetime (node-based map storage).
  [[nodiscard]] Counter& counter(const std::string& name) {
    return counters_[name];
  }
  [[nodiscard]] Gauge& gauge(const std::string& name) { return gauges_[name]; }
  [[nodiscard]] Histogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} — names
  /// sorted, gauge/histogram values in locale-independent "%.9g".
  void write_json(std::ostream& os, int indent = 0) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace daedvfs::obs
