#include "src/common/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace norman::telemetry {

void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<LatencyHistogram>())
             .first;
  }
  return it->second.get();
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const LatencyHistogram* MetricsRegistry::FindHistogram(
    std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.values.emplace(name, static_cast<int64_t>(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    snap.values.emplace(name, g->value());
  }
  return snap;
}

std::string MetricsRegistry::TextReport() const {
  std::string out;
  char buf[64];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", c->value());
    out += name;
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", g->value());
    out += name;
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    out += name;
    out.push_back(' ');
    out += h->Summary();
    out.push_back('\n');
  }
  return out;
}

std::string MetricsRegistry::JsonReport() const {
  std::string out = "{\"counters\":{";
  char buf[96];
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(out, name);
    std::snprintf(buf, sizeof(buf), ":%" PRIu64, c->value());
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(out, name);
    std::snprintf(buf, sizeof(buf), ":%" PRId64, g->value());
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(out, name);
    std::snprintf(buf, sizeof(buf),
                  ":{\"count\":%" PRIu64 ",\"min\":%" PRId64 ",\"p50\":%" PRId64
                  ",\"p99\":%" PRId64 ",\"max\":%" PRId64 ",\"mean\":%.1f}",
                  h->count(), h->min(), h->p50(), h->p99(), h->max(),
                  h->mean());
    out += buf;
  }
  out += "}}";
  return out;
}

std::vector<std::string> MetricsRegistry::MetricNames() const {
  std::vector<std::string> names;
  names.reserve(num_metrics());
  for (const auto& [name, c] : counters_) {
    names.push_back("counter " + name);
  }
  for (const auto& [name, g] : gauges_) {
    names.push_back("gauge " + name);
  }
  for (const auto& [name, h] : histograms_) {
    names.push_back("histogram " + name);
  }
  return names;
}

void MetricsRegistry::ImportPool(const PoolCounters& pc) {
  const std::string prefix =
      "pool." + (pc.name.empty() ? std::string("anon") : pc.name) + ".";
  GetGauge(prefix + "hits")->Set(static_cast<int64_t>(pc.hits));
  GetGauge(prefix + "misses")->Set(static_cast<int64_t>(pc.misses));
  GetGauge(prefix + "releases")->Set(static_cast<int64_t>(pc.releases));
  GetGauge(prefix + "dropped")->Set(static_cast<int64_t>(pc.dropped));
  GetGauge(prefix + "outstanding")->Set(static_cast<int64_t>(pc.outstanding));
  GetGauge(prefix + "high_water")->Set(static_cast<int64_t>(pc.high_water));
}

}  // namespace norman::telemetry
