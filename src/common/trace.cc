#include "src/common/trace.h"

#include <cstdio>

#include "src/common/logging.h"

namespace norman::telemetry {

PacketTracer::PacketTracer(MetricsRegistry* registry, size_t capacity)
    : registry_(registry), ring_(capacity == 0 ? 1 : capacity) {
  NORMAN_CHECK(registry_ != nullptr);
  dropped_counter_ = registry_->GetCounter("trace.dropped");
}

void PacketTracer::RecordSampled(uint32_t trace_id, std::string_view stage,
                                 Nanos start, Nanos end) {
  if (total_ >= ring_.size()) {
    dropped_counter_->Increment();  // overwrite: the oldest span is lost
  }
  ring_[total_ % ring_.size()] = TraceSpan{trace_id, stage, start, end};
  ++total_;
  auto it = stage_hists_.find(stage);
  if (it == stage_hists_.end()) {
    std::string name = "trace.stage.";
    name += stage;
    it = stage_hists_.emplace(stage, registry_->GetHistogram(name)).first;
  }
  it->second->Add(end - start);
}

std::vector<TraceSpan> PacketTracer::Spans() const {
  std::vector<TraceSpan> out;
  const size_t n = total_ < ring_.size() ? static_cast<size_t>(total_)
                                         : ring_.size();
  out.reserve(n);
  const uint64_t first = total_ - n;
  for (uint64_t i = first; i < total_; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

std::string PacketTracer::ChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[224];
  bool first = true;
  for (const TraceSpan& span : Spans()) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    // ts/dur are microseconds (Chrome convention); %.3f keeps full ns
    // precision.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%.*s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u,\"args\":{\"start_ns\":%lld,"
                  "\"end_ns\":%lld}}",
                  static_cast<int>(span.stage.size()), span.stage.data(),
                  static_cast<double>(span.start) / 1e3,
                  static_cast<double>(span.end - span.start) / 1e3,
                  span.trace_id, static_cast<long long>(span.start),
                  static_cast<long long>(span.end));
    out += buf;
  }
  out += "]}";
  return out;
}

const LatencyHistogram* PacketTracer::StageHistogram(
    std::string_view stage) const {
  auto it = stage_hists_.find(stage);
  return it == stage_hists_.end() ? nullptr : it->second;
}

void PacketTracer::Clear() {
  for (TraceSpan& s : ring_) {
    s = TraceSpan{};
  }
  total_ = 0;
  arrivals_ = 0;
  next_id_ = 0;
}

}  // namespace norman::telemetry
