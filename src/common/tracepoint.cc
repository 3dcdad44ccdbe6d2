#include "src/common/tracepoint.h"

#include <algorithm>
#include <cstdio>

#include "src/common/flight_recorder.h"
#include "src/common/logging.h"

namespace norman::telemetry {

namespace {

// Index-aligned with the Probe enum. Dotted names group by subsystem so
// `norman_probe --list` reads like a kprobes inventory.
constexpr std::string_view kProbeNames[kNumProbes] = {
    "filter.verdict",       // kFilterVerdict
    "conntrack.transition", // kConntrackTransition
    "flowcache.install",    // kFlowCacheInstall
    "flowcache.evict",      // kFlowCacheEvict
    "flowcache.invalidate", // kFlowCacheInvalidate
    "sram.alloc",           // kSramAlloc
    "sram.exhausted",       // kSramExhausted
    "ring.full",            // kRingFull
    "notify.stall",         // kNotifyStall
    "fault.inject",         // kFaultInject
    "qdisc.drop",           // kQdiscDrop
    "nic.drop",             // kNicDrop
    "kernel.slowpath",      // kSlowPath
    "socket.call",          // kSocketCall
    "watchdog.transition",  // kWatchdogTransition
};

const char* DirName(uint8_t dir) {
  switch (dir) {
    case kDirTx:
      return "tx";
    case kDirRx:
      return "rx";
    default:
      return "any";
  }
}

bool ParseDir(std::string_view v, uint8_t* out) {
  if (v == "tx") {
    *out = kDirTx;
    return true;
  }
  if (v == "rx") {
    *out = kDirRx;
    return true;
  }
  return false;
}

bool ParseU32(std::string_view v, uint32_t max, uint32_t* out) {
  if (v.empty()) {
    return false;
  }
  uint64_t acc = 0;
  for (const char c : v) {
    if (c < '0' || c > '9') {
      return false;
    }
    acc = acc * 10 + static_cast<uint64_t>(c - '0');
    if (acc > max) {
      return false;
    }
  }
  *out = static_cast<uint32_t>(acc);
  return true;
}

// Dotted-quad IPv4 ("10.0.0.1") to the host-order uint32 the predicate
// stores (matching net::Ipv4Address::FromOctets layout).
bool ParseIp(std::string_view v, uint32_t* out) {
  uint32_t octets[4];
  size_t start = 0;
  for (int i = 0; i < 4; ++i) {
    const size_t dot = i < 3 ? v.find('.', start) : v.size();
    if (dot == std::string_view::npos) {
      return false;
    }
    if (!ParseU32(v.substr(start, dot - start), 255, &octets[i])) {
      return false;
    }
    start = dot + 1;
  }
  *out = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3];
  return true;
}

void AppendIp(std::string& out, uint32_t ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xff,
                (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff);
  out += buf;
}

}  // namespace

std::string_view ProbeName(Probe probe) {
  const auto idx = static_cast<size_t>(probe);
  NORMAN_CHECK(idx < kNumProbes);
  return kProbeNames[idx];
}

bool ProbeFromName(std::string_view name, Probe* out) {
  for (size_t i = 0; i < kNumProbes; ++i) {
    if (kProbeNames[i] == name) {
      *out = static_cast<Probe>(i);
      return true;
    }
  }
  return false;
}

bool ProbePredicate::Matches(uint32_t emit_pid, const TraceFlow* flow) const {
  if (pid != 0 && emit_pid != pid) {
    return false;
  }
  if (dir != kDirNone && (flow == nullptr || flow->dir != dir)) {
    return false;
  }
  if (src_ip != 0 && (flow == nullptr || flow->src_ip != src_ip)) {
    return false;
  }
  if (dst_ip != 0 && (flow == nullptr || flow->dst_ip != dst_ip)) {
    return false;
  }
  if (src_port != 0 && (flow == nullptr || flow->src_port != src_port)) {
    return false;
  }
  if (dst_port != 0 && (flow == nullptr || flow->dst_port != dst_port)) {
    return false;
  }
  if (proto != 0 && (flow == nullptr || flow->proto != proto)) {
    return false;
  }
  return true;
}

std::string ProbePredicate::Render() const {
  if (any()) {
    return "*";
  }
  std::string out;
  const auto field = [&out](std::string_view key) -> std::string& {
    if (!out.empty()) {
      out.push_back(',');
    }
    out += key;
    out.push_back('=');
    return out;
  };
  if (pid != 0) {
    field("pid") += std::to_string(pid);
  }
  if (dir != kDirNone) {
    field("dir") += DirName(dir);
  }
  if (src_ip != 0) {
    AppendIp(field("src_ip"), src_ip);
  }
  if (dst_ip != 0) {
    AppendIp(field("dst_ip"), dst_ip);
  }
  if (src_port != 0) {
    field("src_port") += std::to_string(src_port);
  }
  if (dst_port != 0) {
    field("dst_port") += std::to_string(dst_port);
  }
  if (proto != 0) {
    field("proto") += std::to_string(proto);
  }
  return out;
}

bool ProbePredicate::Parse(std::string_view text, ProbePredicate* out) {
  ProbePredicate pred;
  if (text == "*" || text.empty()) {
    *out = pred;
    return true;
  }
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    const std::string_view pair = text.substr(
        start, comma == std::string_view::npos ? text.size() - start
                                               : comma - start);
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return false;
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    uint32_t num = 0;
    if (key == "pid" && ParseU32(value, UINT32_MAX, &pred.pid)) {
      // parsed in place
    } else if (key == "dir" && ParseDir(value, &pred.dir)) {
    } else if (key == "src_ip" && ParseIp(value, &pred.src_ip)) {
    } else if (key == "dst_ip" && ParseIp(value, &pred.dst_ip)) {
    } else if (key == "src_port" && ParseU32(value, 65535, &num)) {
      pred.src_port = static_cast<uint16_t>(num);
    } else if (key == "dst_port" && ParseU32(value, 65535, &num)) {
      pred.dst_port = static_cast<uint16_t>(num);
    } else if (key == "proto" && ParseU32(value, 255, &num)) {
      pred.proto = static_cast<uint8_t>(num);
    } else {
      return false;
    }
    if (comma == std::string_view::npos) {
      break;
    }
    start = comma + 1;
  }
  *out = pred;
  return true;
}

Tracepoints::Tracepoints(MetricsRegistry* registry) : registry_(registry) {
  NORMAN_CHECK(registry != nullptr);
  // Eager registration keeps the manifest shape-stable: arming (or never
  // arming) a probe changes values, never the inventory.
  for (size_t i = 0; i < kNumProbes; ++i) {
    std::string name = "probe.";
    name += kProbeNames[i];
    hit_counters_[i] = registry->GetCounter(name);
  }
  overwritten_counter_ = registry->GetCounter("probe.records.dropped");
}

void Tracepoints::Arm(Probe probe, const ProbePredicate& predicate) {
  EnsureRings();
  predicates_[static_cast<size_t>(probe)] = predicate;
  armed_mask_ |= Bit(probe);
  if (predicate.any()) {
    pred_mask_ &= ~Bit(probe);
  } else {
    pred_mask_ |= Bit(probe);
  }
}

void Tracepoints::Disarm(Probe probe) {
  armed_mask_ &= ~Bit(probe);
  pred_mask_ &= ~Bit(probe);
  predicates_[static_cast<size_t>(probe)] = ProbePredicate{};
}

void Tracepoints::ArmAll() {
  EnsureRings();
  predicates_.fill(ProbePredicate{});
  armed_mask_ = (uint32_t{1} << kNumProbes) - 1;
  pred_mask_ = 0;
}

void Tracepoints::set_span_sample_interval(uint32_t n) {
  if (n != 0) {
    EnsureRings();
  }
  span_interval_ = n;
}

void Tracepoints::EnsureRings() {
  // Ring storage is carved on first arm (or when spans are turned on), not
  // at construction: every test and bench world owns a Tracepoints, and the
  // many that never trace should not each hold the record slots.
  if (rings_[0].buf.empty()) {
    for (Ring& ring : rings_) {
      ring.buf.resize(kRingCapacity);
    }
  }
}

void Tracepoints::EmitSlow(Probe probe, uint32_t core, uint32_t pid,
                           uint64_t a0, uint64_t a1, uint64_t a2,
                           const TraceFlow* flow) {
  const auto idx = static_cast<size_t>(probe);
  if ((pred_mask_ & Bit(probe)) != 0 &&
      !predicates_[idx].Matches(pid, flow)) {
    ++filtered_[idx];
    return;
  }
  ++hits_[idx];
  hit_counters_[idx]->Increment();
  if (frozen_) {
    return;  // black box latched: the pre-trigger tail is preserved
  }
  TraceRecord rec;
  rec.t = clock_ != nullptr ? *clock_ : 0;
  rec.a0 = a0;
  rec.a1 = a1;
  rec.a2 = a2;
  rec.pid = pid;
  rec.probe = static_cast<uint16_t>(probe);
  rec.dir = flow != nullptr ? flow->dir : kDirNone;
  Append(rec, core);
}

void Tracepoints::SpanSlow(uint32_t trace_id, std::string_view stage,
                           Nanos start, Nanos end, uint32_t core) {
  EnsureRings();  // already carved unless a caller made up its trace id
  auto it = stage_ids_.find(stage);
  if (it == stage_ids_.end()) {
    std::string name = "trace.stage.";
    name += stage;
    stages_.push_back(Stage{stage, registry_->GetHistogram(name)});
    it = stage_ids_.emplace(stage, static_cast<uint32_t>(stages_.size() - 1))
             .first;
  }
  stages_[it->second].hist->Add(end - start);
  if (frozen_) {
    return;
  }
  ++spans_recorded_;
  TraceRecord rec;
  rec.t = start;
  rec.a0 = trace_id;
  rec.a1 = it->second;
  rec.a2 = static_cast<uint64_t>(end);
  rec.probe = kSpanRecord;
  Append(rec, core);
}

void Tracepoints::Append(TraceRecord& rec, uint32_t core) {
  rec.seq = next_seq_++;
  rec.core = static_cast<uint8_t>(core < kNumCores ? core : kNumCores - 1);
  Ring& ring = rings_[rec.core];
  if (ring.total >= kRingCapacity) {
    ++overwritten_count_;
    overwritten_counter_->Increment();
  }
  ring.buf[ring.total % kRingCapacity] = rec;
  ++ring.total;
  if (recorder_ != nullptr) {
    recorder_->OnRecord(rec);
  }
}

std::vector<TraceRecord> Tracepoints::Journal() const {
  std::vector<TraceRecord> out;
  for (const Ring& ring : rings_) {
    if (ring.buf.empty()) {
      continue;
    }
    const uint64_t n = std::min<uint64_t>(ring.total, kRingCapacity);
    const uint64_t first = ring.total - n;
    out.reserve(out.size() + n);
    for (uint64_t i = first; i < ring.total; ++i) {
      out.push_back(ring.buf[i % kRingCapacity]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<TraceSpan> Tracepoints::Spans() const {
  std::vector<TraceSpan> out;
  for (const TraceRecord& rec : Journal()) {
    if (rec.probe == kSpanRecord) {
      out.push_back(TraceSpan{static_cast<uint32_t>(rec.a0),
                              stages_[rec.a1].name, rec.t,
                              static_cast<Nanos>(rec.a2)});
    }
  }
  return out;
}

std::string Tracepoints::ChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[224];
  for (const TraceSpan& span : Spans()) {
    if (out.back() != '[') {
      out.push_back(',');
    }
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

std::string Tracepoints::JournalJson() const {
  std::string out = "[";
  char buf[256];
  bool first = true;
  for (const TraceRecord& rec : Journal()) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    const std::string_view name =
        rec.probe == kSpanRecord
            ? "pkt.span"
            : kProbeNames[rec.probe < kNumProbes ? rec.probe : 0];
    std::snprintf(
        buf, sizeof(buf),
        "{\"t\":%llu,\"seq\":%llu,\"probe\":\"%.*s\",\"core\":%u,"
        "\"pid\":%u,\"dir\":\"%s\",\"a0\":%llu,\"a1\":%llu,\"a2\":%llu",
        static_cast<unsigned long long>(rec.t),
        static_cast<unsigned long long>(rec.seq),
        static_cast<int>(name.size()), name.data(), rec.core, rec.pid,
        DirName(rec.dir), static_cast<unsigned long long>(rec.a0),
        static_cast<unsigned long long>(rec.a1),
        static_cast<unsigned long long>(rec.a2));
    out += buf;
    if (rec.probe == kSpanRecord) {
      // The stage name, so a journal alone rebuilds a packet's path.
      out += ",\"stage\":\"";
      out += stages_[rec.a1].name;
      out.push_back('"');
    }
    out.push_back('}');
  }
  out += "]";
  return out;
}

std::string Tracepoints::ListReport() const {
  // Probes sorted by name (not enum order) so the inventory reads stably
  // as probes are added.
  std::array<size_t, kNumProbes> order;
  for (size_t i = 0; i < kNumProbes; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [](size_t a, size_t b) {
    return kProbeNames[a] < kProbeNames[b];
  });
  std::string out =
      "PROBE                  ARMED  PREDICATE              HITS  FILTERED\n";
  char buf[160];
  for (const size_t i : order) {
    const std::string pred = predicates_[i].Render();
    std::snprintf(buf, sizeof(buf), "%-22.*s %-6s %-20s %6llu  %8llu\n",
                  static_cast<int>(kProbeNames[i].size()),
                  kProbeNames[i].data(),
                  (armed_mask_ & (uint32_t{1} << i)) != 0 ? "yes" : "no",
                  pred.c_str(), static_cast<unsigned long long>(hits_[i]),
                  static_cast<unsigned long long>(filtered_[i]));
    out += buf;
  }
  return out;
}

void Tracepoints::Clear() {
  for (Ring& ring : rings_) {
    for (TraceRecord& rec : ring.buf) {
      rec = TraceRecord{};
    }
    ring.total = 0;
  }
  hits_.fill(0);
  filtered_.fill(0);
  next_seq_ = 0;
  overwritten_count_ = 0;
  frozen_ = false;
  arrivals_ = 0;
  next_trace_id_ = 0;
  spans_recorded_ = 0;
}

}  // namespace norman::telemetry
