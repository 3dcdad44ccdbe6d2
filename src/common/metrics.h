// Metrics registry: named Counter/Gauge/LatencyHistogram handles under
// hierarchical dotted names ("nic.rx.frames", "dataplane.filter.drops",
// "pool.packet.hits").
//
// Registration is a map lookup; the hot path is not. Callers look a metric
// up once (typically in a constructor) and keep the returned pointer —
// incrementing is then a plain member access, so registry-backed counters
// cost the same as the bare struct fields they replace. Handle addresses
// are stable for the registry's lifetime (nodes are heap-allocated and
// never rehashed away).
//
// Export is deterministic: names are kept sorted, so TextReport(),
// JsonReport() and MetricNames() are byte-stable across runs — which is
// what lets CI diff the metric inventory against a checked-in manifest.
#ifndef NORMAN_COMMON_METRICS_H_
#define NORMAN_COMMON_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/stats.h"

namespace norman::telemetry {

// Monotonic event count. Hot-path increment is one add through a pointer.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  uint64_t value_ = 0;
};

// Instantaneous level (queue depth, outstanding buffers, high-water mark).
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  int64_t value_ = 0;
};

// Point-in-time capture of all scalar metrics (counters + gauges), used for
// before/after deltas around a traffic run. Histograms are not captured;
// they export through TextReport()/JsonReport().
struct MetricsSnapshot {
  std::map<std::string, int64_t> values;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create. The returned pointer stays valid for the registry's
  // lifetime; re-requesting a name returns the same handle.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  LatencyHistogram* GetHistogram(std::string_view name);

  // Lookup without creation; nullptr when absent.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const LatencyHistogram* FindHistogram(std::string_view name) const;

  // Visit every metric in sorted-name order: fn(const std::string&, const T&).
  // This is what the TimeSeriesSampler scrapes through.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    for (const auto& [name, c] : counters_) fn(name, *c);
  }
  template <typename Fn>
  void ForEachGauge(Fn&& fn) const {
    for (const auto& [name, g] : gauges_) fn(name, *g);
  }
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    for (const auto& [name, h] : histograms_) fn(name, *h);
  }

  MetricsSnapshot Snapshot() const;

  // Human text: one "name value" line per metric, sorted; histograms render
  // their Summary(). Zero-valued metrics included (shape-stable output).
  std::string TextReport() const;
  // Machine JSON: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string JsonReport() const;

  // Sorted inventory, one "counter|gauge|histogram <name>" entry each —
  // the thing CI diffs against docs/metrics_manifest.txt.
  std::vector<std::string> MetricNames() const;

  // Mirror a pool's counters into "pool.<pc.name>.*" gauges (gauges, not
  // counters: pools track levels like outstanding/high_water, and repeated
  // imports must overwrite, not accumulate).
  void ImportPool(const PoolCounters& pc);

  size_t num_metrics() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  // Sorted maps: deterministic export order, heterogeneous string_view
  // lookup, stable unique_ptr targets.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

// Paired depth + high-watermark gauges for one bounded queue, registered as
// "queue.<name>.depth" and "queue.<name>.high_water". Queue owners attach one
// of these and report occupancy changes; the high-water mark latches the peak
// and survives drains, so a one-sample spike is still visible at export time.
class QueueDepthGauges {
 public:
  QueueDepthGauges(MetricsRegistry* registry, std::string_view queue_name)
      : depth_(registry->GetGauge("queue." + std::string(queue_name) +
                                 ".depth")),
        high_water_(registry->GetGauge("queue." + std::string(queue_name) +
                                       ".high_water")) {}

  void Set(int64_t depth) {
    depth_->Set(depth);
    if (depth > high_water_->value()) high_water_->Set(depth);
  }
  void Add(int64_t delta) { Set(depth_->value() + delta); }

  int64_t depth() const { return depth_->value(); }
  int64_t high_water() const { return high_water_->value(); }

 private:
  Gauge* depth_;
  Gauge* high_water_;
};

// Appends `s` to `out` as a JSON string literal, escaping quotes,
// backslashes and control characters. Every JSON exporter writes its
// strings through this one function.
void AppendJsonString(std::string& out, std::string_view s);

}  // namespace norman::telemetry

#endif  // NORMAN_COMMON_METRICS_H_
