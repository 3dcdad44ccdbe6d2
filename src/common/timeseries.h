// Continuous monitoring, layer 1: periodic virtual-clock scrapes of the
// MetricsRegistry into fixed-capacity ring-buffered time series.
//
// One-shot tools (norman-stat, norman-tcpdump) answer "what happened";
// the sampler answers "what is happening": each Sample(now) captures every
// counter, gauge and histogram in the registry and appends one point per
// derived series —
//
//   counter  <name>      ->  series "<name>.rate"  (delta per second over
//                            the elapsed window: pps, Bps, drops/s, ...)
//   gauge    <name>      ->  series "<name>"       (instantaneous level)
//   histogram <name>     ->  series "<name>.p99"   (tail latency, ns)
//
// A scrape allocates only for a metric it sees for the first time: each
// metric's previous value and series pointer are cached in registry order.
//
// Everything runs on the virtual clock and touches no RNG or host time, so
// sampling is pure observation: the packet trajectory is bit-identical with
// the sampler on or off, and back-to-back runs export byte-identical JSON
// (which is what lets norman_top goldens pin the output).
#ifndef NORMAN_COMMON_TIMESERIES_H_
#define NORMAN_COMMON_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/units.h"

namespace norman::telemetry {

struct SeriesPoint {
  Nanos t = 0;     // virtual time of the scrape
  double value = 0;
};

// Fixed-capacity ring of points; the newest `capacity` samples survive.
class TimeSeries {
 public:
  explicit TimeSeries(size_t capacity) : capacity_(capacity) {}

  void Push(Nanos t, double value);

  // Points currently retained (<= capacity), oldest first; index 0 is the
  // oldest retained point.
  size_t size() const { return points_.size() < capacity_ ? points_.size()
                                                          : capacity_; }
  size_t capacity() const { return capacity_; }
  uint64_t total_pushed() const { return total_; }
  const SeriesPoint& At(size_t i) const;
  const SeriesPoint& Latest() const { return At(size() - 1); }

 private:
  size_t capacity_;
  std::vector<SeriesPoint> points_;  // ring once full
  size_t next_ = 0;                  // ring write cursor
  uint64_t total_ = 0;
};

class TimeSeriesSampler {
 public:
  static constexpr size_t kCapacity = 128;  // retained windows per series

  explicit TimeSeriesSampler(MetricsRegistry* registry)
      : registry_(registry) {}

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Scrapes the registry at virtual time `now`. The first sample's window
  // starts at t=0 (metrics are born zero with the world). A repeated call
  // at the same `now` is a no-op (zero-width window).
  void Sample(Nanos now);

  uint64_t samples_taken() const { return samples_; }
  Nanos last_sample_at() const { return prev_time_; }

  // Lookup by derived series name ("nic.tx.seen.rate", "queue.nic.qdisc.
  // depth", "trace.stage.tx.qdisc.p99"); nullptr when never sampled.
  const TimeSeries* Find(std::string_view name) const;

  // Sorted, byte-stable export:
  // {"samples":N,"series":{"<name>":[[t,v],...],...}}
  std::string JsonReport() const;

  // Drops all series and the delta baseline; the registry is untouched.
  void Clear();

 private:
  // Scrape state of one registry metric. Tracks are kept in the registry's
  // sorted-name order, so Sample walks them in lockstep with ForEach*
  // without a lookup; a metric registered since the last scrape is spliced
  // in where it appears (the registry never unregisters a metric).
  struct Track {
    const void* metric = nullptr;  // registry handle, compared by address
    TimeSeries* series = nullptr;  // series_ nodes are stable
    int64_t prev = 0;  // counters: value at the previous scrape
  };

  TimeSeries& SeriesFor(const std::string& name);
  // The track at `pos` for `metric`, inserting it (and its series
  // "<name><suffix>") on first sight.
  Track& TrackAt(std::vector<Track>& tracks, size_t pos, const void* metric,
                 const std::string& name, std::string_view suffix);

  MetricsRegistry* registry_;
  std::map<std::string, TimeSeries, std::less<>> series_;
  std::vector<Track> counter_tracks_;
  std::vector<Track> gauge_tracks_;
  std::vector<Track> histogram_tracks_;
  Nanos prev_time_ = 0;
  uint64_t samples_ = 0;
};

}  // namespace norman::telemetry

#endif  // NORMAN_COMMON_TIMESERIES_H_
