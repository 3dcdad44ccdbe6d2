#include "span_trace.h"

#include <algorithm>
#include <chrono>

#include "alloc_count.h"

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Indexed by Layer.
constexpr std::array<std::string_view, kNumLayers> kLayerNames = {
    "sim.run",      "app",          "norman.send",    "norman.recv",
    "nic.rx",       "kernel.connect", "kernel.close", "kernel.block",
    "net.build",    "peer",
};

// Nearest-rank percentile of an already sorted sample.
int64_t Percentile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const auto rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

std::string_view LayerName(Layer layer) {
  return kLayerNames[static_cast<size_t>(layer)];
}

uint32_t Tracer::Begin(Layer layer, uint64_t msg) {
  const auto index = static_cast<uint32_t>(spans_.size());
  // Buffer growth, if any, happens before the counters are read, so it is
  // charged to the enclosing span rather than this one.
  spans_.push_back(Span{layer, open_, msg});
  Span& s = spans_.back();
  open_ = index + 1;
  s.start_allocs = AllocCount();
  s.start_ns = NowNs();
  return index;
}

void Tracer::End(uint32_t index) {
  Span& s = spans_[index];
  s.end_ns = NowNs();
  s.end_allocs = AllocCount();
  open_ = s.parent;
  if (s.parent != 0) {
    Span& parent = spans_[s.parent - 1];
    parent.child_ns += s.end_ns - s.start_ns;
    parent.child_allocs += s.end_allocs - s.start_allocs;
  }
}

void Tracer::Clear() {
  spans_.clear();
  open_ = 0;
}

void Tracer::Write(std::FILE* out) const {
  std::fprintf(out, "id\tparent\tlayer\tstart_ns\tend_ns\tmsg\tallocs\n");
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string_view name = LayerName(s.layer);
    std::fprintf(out, "%zu\t%u\t%.*s\t%lld\t%lld\t%llu\t%llu\n", i + 1,
                 s.parent, static_cast<int>(name.size()), name.data(),
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base),
                 static_cast<unsigned long long>(s.msg),
                 static_cast<unsigned long long>(s.end_allocs -
                                                 s.start_allocs));
  }
}

std::array<LayerSummary, kNumLayers> Summarize(const std::vector<Span>& spans) {
  std::array<LayerSummary, kNumLayers> out{};
  std::array<std::vector<int64_t>, kNumLayers> self{};
  for (const Span& s : spans) {
    const auto l = static_cast<size_t>(s.layer);
    ++out[l].samples;
    out[l].self_ns += s.self_ns();
    out[l].self_allocs += s.self_allocs();
    self[l].push_back(s.self_ns());
  }
  for (size_t l = 0; l < kNumLayers; ++l) {
    std::sort(self[l].begin(), self[l].end());
    out[l].p50_ns = Percentile(self[l], 0.50);
    out[l].p99_ns = Percentile(self[l], 0.99);
  }
  return out;
}

}  // namespace perfbench
