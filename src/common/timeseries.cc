#include "src/common/timeseries.h"

#include <cassert>
#include <cinttypes>
#include <cstddef>
#include <cstdio>

namespace norman::telemetry {

void TimeSeries::Push(Nanos t, double value) {
  if (points_.size() < capacity_) {
    points_.push_back(SeriesPoint{t, value});
  } else {
    points_[next_] = SeriesPoint{t, value};
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

const SeriesPoint& TimeSeries::At(size_t i) const {
  assert(i < size());
  if (points_.size() < capacity_) {
    return points_[i];
  }
  // Ring is full: next_ is the oldest slot.
  return points_[(next_ + i) % capacity_];
}

TimeSeries& TimeSeriesSampler::SeriesFor(const std::string& name) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, TimeSeries(kCapacity)).first;
  }
  return it->second;
}

TimeSeriesSampler::Track& TimeSeriesSampler::TrackAt(
    std::vector<Track>& tracks, size_t pos, const void* metric,
    const std::string& name, std::string_view suffix) {
  if (pos == tracks.size() || tracks[pos].metric != metric) {
    std::string series_name = name;
    series_name += suffix;
    tracks.insert(tracks.begin() + static_cast<std::ptrdiff_t>(pos),
                  Track{metric, &SeriesFor(series_name), 0});
  }
  return tracks[pos];
}

void TimeSeriesSampler::Sample(Nanos now) {
  if (samples_ > 0 && now <= prev_time_) {
    return;  // zero-width (or time-reversed) window: nothing to derive
  }
  const Nanos window = now - prev_time_;
  const double window_s = static_cast<double>(window) / 1e9;

  // Counters: per-second rate over the elapsed window. A counter that first
  // appears mid-run deltas against zero, matching its actual birth value.
  size_t pos = 0;
  registry_->ForEachCounter([&](const std::string& name, const Counter& c) {
    Track& t = TrackAt(counter_tracks_, pos++, &c, name, ".rate");
    const int64_t value = static_cast<int64_t>(c.value());
    t.series->Push(now, static_cast<double>(value - t.prev) / window_s);
    t.prev = value;
  });
  // Gauges: instantaneous level at the scrape.
  pos = 0;
  registry_->ForEachGauge([&](const std::string& name, const Gauge& g) {
    TrackAt(gauge_tracks_, pos++, &g, name, "")
        .series->Push(now, static_cast<double>(g.value()));
  });
  // Histograms: tail latency (cumulative p99 at the scrape, ns).
  pos = 0;
  registry_->ForEachHistogram(
      [&](const std::string& name, const LatencyHistogram& h) {
        TrackAt(histogram_tracks_, pos++, &h, name, ".p99")
            .series->Push(now, static_cast<double>(h.p99()));
      });

  prev_time_ = now;
  ++samples_;
}

const TimeSeries* TimeSeriesSampler::Find(std::string_view name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::string TimeSeriesSampler::JsonReport() const {
  std::string out = "{\"samples\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, samples_);
  out += buf;
  out += ",\"series\":{";
  bool first_series = true;
  for (const auto& [name, s] : series_) {
    if (!first_series) out.push_back(',');
    first_series = false;
    out.push_back('"');
    out += name;  // dotted ASCII metric names need no escaping
    out += "\":[";
    for (size_t i = 0; i < s.size(); ++i) {
      if (i > 0) out.push_back(',');
      const SeriesPoint& p = s.At(i);
      std::snprintf(buf, sizeof(buf), "[%lld,%.10g]",
                    static_cast<long long>(p.t), p.value);
      out += buf;
    }
    out.push_back(']');
  }
  out += "}}";
  return out;
}

void TimeSeriesSampler::Clear() {
  series_.clear();
  counter_tracks_.clear();
  gauge_tracks_.clear();
  histogram_tracks_.clear();
  prev_time_ = 0;
  samples_ = 0;
}

}  // namespace norman::telemetry
