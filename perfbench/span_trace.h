// Host-time spans recorded around the benchmark's own calls into each
// layer's public functions.
//
// A span records its layer, start, end, parent span and message id, plus
// the allocation counter at both ends. Spans stay in memory for the whole
// round; when a span ends its duration and allocations are added to its
// parent's child totals, so self time (duration minus the part its child
// spans cover) needs no second pass.
//
// Work the simulator runs inside its own events (NIC TX fetch and chain,
// qdisc and wire, RX ring push and lane drains, the kernel's notification
// pump, the maintenance tick) has no span of its own: it is the self time
// of the Layer::kSimRun span around Simulator::Run.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

namespace perfbench {

// Layer names are the simulator's module names (plus the benchmark's own
// app and peer, shown so they are not read as system cost).
enum class Layer : uint8_t {
  kSimRun,         // Simulator::Run; its self time is sim.residual
  kApp,            // the benchmark's app logic: payload fill and checks
  kNormanSend,     // Socket::Send, or AllocFrame + Payload + SendFrame
  kNormanRecv,     // Socket::RecvFrames
  kNicRx,          // SmartNic::DeliverFromWire
  kKernelConnect,  // Socket::Connect
  kKernelClose,    // Socket::Close
  kKernelBlock,    // Socket::RecvBlocking
  kNetBuild,       // the peer's net::BuildUdpPacket
  kPeer,           // the benchmark's wire and echo peer
  kCount,
};
inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

std::string_view LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kSimRun;
  uint32_t parent = 0;  // index + 1 of the enclosing span; 0 = none
  uint64_t msg = 0;     // message id, 0 when the span serves no one message
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t start_allocs = 0;
  uint64_t end_allocs = 0;
  int64_t child_ns = 0;
  uint64_t child_allocs = 0;

  int64_t self_ns() const { return end_ns - start_ns - child_ns; }
  uint64_t self_allocs() const {
    return end_allocs - start_allocs - child_allocs;
  }
};

class Tracer {
 public:
  uint32_t Begin(Layer layer, uint64_t msg);
  void End(uint32_t index);
  void SetMessage(uint32_t index, uint64_t msg) { spans_[index].msg = msg; }

  // Drops the recorded spans but keeps the buffer, so a round of the same
  // size records without growing it.
  void Clear();
  const std::vector<Span>& spans() const { return spans_; }

  // Tab-separated dump, one span per line, times relative to the first.
  void Write(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
  uint32_t open_ = 0;  // index + 1 of the innermost open span
};

// RAII span; a null tracer records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, uint64_t msg) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      index_ = tracer_->Begin(layer, msg);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // For spans opened before the message they serve is known.
  void set_msg(uint64_t msg) {
    if (tracer_ != nullptr) {
      tracer_->SetMessage(index_, msg);
    }
  }

 private:
  Tracer* tracer_;
  uint32_t index_ = 0;
};

// One traced round, reduced per layer.
struct LayerSummary {
  uint64_t samples = 0;
  int64_t self_ns = 0;
  uint64_t self_allocs = 0;
  int64_t p50_ns = 0;  // of per-span self time
  int64_t p99_ns = 0;
};
std::array<LayerSummary, kNumLayers> Summarize(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
