// Per-packet lifecycle tracing keyed off the simulator's virtual clock.
//
// A sampled packet gets a nonzero trace id at NIC arrival; every hop it
// then crosses (DMA, pipeline stages, qdisc wait, wire, ring, delivery)
// records a [start, end) span into a fixed-size ring buffer. Spans tile:
// for an accepted packet they are contiguous, so their durations sum
// exactly to completed_at - nic_arrival (asserted in trace_test).
//
// Tracing is pure observation. It schedules no events, draws no random
// numbers (sampling is a deterministic 1-in-N arrival counter), and
// allocates nothing per packet after construction — so the virtual-time
// trajectory is bit-identical with tracing on or off, and the off-mode
// hot-path cost is one predictable branch.
//
// Export: Chrome trace-event JSON ("X" complete events, ts/dur in
// microseconds of virtual time) loadable at https://ui.perfetto.dev, plus
// per-stage LatencyHistograms fed into the metrics registry under
// "trace.stage.<name>".
#ifndef NORMAN_COMMON_TRACE_H_
#define NORMAN_COMMON_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/common/units.h"

namespace norman::telemetry {

struct TraceSpan {
  uint32_t trace_id = 0;
  // Must point at static-storage strings (stage name literals); the span
  // outlives any packet, and the ring stores no copies.
  std::string_view stage;
  Nanos start = 0;
  Nanos end = 0;
};

class PacketTracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit PacketTracer(MetricsRegistry* registry,
                        size_t capacity = kDefaultCapacity);

  // 1-in-N sampling; 0 disables tracing entirely (the default).
  void set_sample_interval(uint32_t n) { sample_interval_ = n; }
  uint32_t sample_interval() const { return sample_interval_; }
  bool enabled() const { return sample_interval_ != 0; }

  // Called once per packet at NIC arrival. Returns a fresh nonzero trace id
  // for every sample_interval()-th arrival, 0 otherwise (or when disabled).
  uint32_t SampleArrival() {
    if (sample_interval_ == 0) {
      return 0;
    }
    if (arrivals_++ % sample_interval_ != 0) {
      return 0;
    }
    return ++next_id_;
  }

  // Record a span for a sampled packet. No-op when trace_id == 0, so call
  // sites need no branches of their own; the check is inline and only
  // sampled packets make the out-of-line call.
  void Record(uint32_t trace_id, std::string_view stage, Nanos start,
              Nanos end) {
    if (trace_id != 0) {
      RecordSampled(trace_id, stage, start, end);
    }
  }

  // Spans currently held, oldest first (the ring keeps the newest
  // `capacity` spans; earlier ones are overwritten).
  std::vector<TraceSpan> Spans() const;

  uint64_t total_recorded() const { return total_; }
  // Spans overwritten by ring wrap; mirrored to the "trace.dropped"
  // registry counter so dashboards see span loss without polling the
  // tracer object.
  uint64_t dropped_spans() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  size_t capacity() const { return ring_.size(); }

  // Chrome trace-event JSON. Each span becomes a complete ("X") event with
  // ts/dur in microseconds of virtual time and tid = trace id, so Perfetto
  // renders one track per traced packet.
  std::string ChromeTraceJson() const;

  // Per-stage latency histogram fed by Record(); nullptr before the first
  // span of that stage.
  const LatencyHistogram* StageHistogram(std::string_view stage) const;

  // Drop recorded spans and the arrival counter; keeps the sampling knob.
  void Clear();

 private:
  void RecordSampled(uint32_t trace_id, std::string_view stage, Nanos start,
                     Nanos end);

  MetricsRegistry* registry_;
  std::vector<TraceSpan> ring_;
  Counter* dropped_counter_ = nullptr;  // trace.dropped
  uint64_t total_ = 0;
  uint32_t sample_interval_ = 0;
  uint64_t arrivals_ = 0;
  uint32_t next_id_ = 0;
  // Stage-name -> registry histogram, cached so Record() does the registry
  // map lookup once per distinct stage, not once per span. Keys are the
  // static-storage literals the call sites pass.
  std::unordered_map<std::string_view, LatencyHistogram*> stage_hists_;
};

}  // namespace norman::telemetry

#endif  // NORMAN_COMMON_TRACE_H_
