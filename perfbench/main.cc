// perfbench: host CPU cost of Norman's simulated dataplane, end to end and
// by layer. See README.md for the workloads, metrics and layer map.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--spans-out PATH]
//
// One process runs one workload: net::PacketPool::Default() is shared by
// the whole process, so running a second workload in it would make its
// pool figures depend on the first.
//
// A run repeats identical rounds, each in a fresh world, for --seconds of
// wall time after a warm-up round, and summarises them over rounds (host
// time by LowQuantile). Every round must reproduce the warm-up round's
// counts and virtual-time digest exactly. --trace 0 prints the end-to-end
// metrics. --trace 1 interleaves untraced and traced rounds and prints the
// per-layer metrics. The last line of stdout is one JSON object; the exit
// code is 0 only when every check passed.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "span_trace.h"
#include "src/net/packet_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kDefaultSeed = 1;
constexpr size_t kMinRounds = 3;

// The paper's numbers for the default seed at full size. A host-speed
// change must not move them; a change that means to must say so here.
struct Pinned {
  std::string_view workload;
  uint64_t completed;
  uint64_t digest;
  Nanos final_virtual_ns;
};
constexpr Pinned kPinned[] = {
    {"bare_echo", 40000, 0x0cc11399e2b40c10ULL, 16212147},
    {"interposed_mtu", 20000, 0x1ab1af59b8b39b26ULL, 10000000},
    {"rpc_churn", 40203, 0x57f80aa159acea37ULL, 880000000},
};

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  Size size = Size::kFull;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] "
               "[--spans-out PATH]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value");
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--size") {
      if (std::string_view(value) == "tiny") {
        a.size = Size::kTiny;
      } else if (std::string_view(value) != "full") {
        Usage("--size is full or tiny");
      }
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      Usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') {
      Usage("bad number");
    }
  }
  if (a.workload.empty() || (a.trace != 0 && a.trace != 1) ||
      !(a.seconds > 0)) {
    Usage("bad arguments");
  }
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Host time over rounds is summarised by its 10th percentile (nearest
// rank), not its median. Other virtual machines' load on the shared cores
// slows stretches of rounds by up to ~75%, coming and going over seconds;
// the fast rounds are the program's own cost. Over ten bare_echo runs the
// per-run median of rounds spread 19% (IQR/median), the 10th percentile 3%.
double LowQuantile(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 10];
}

// Moves the process to the next CPU it may use before each round (or
// traced/untraced pair). How fast a vCPU runs depends on what shares its
// physical core at the moment, and a process left alone stays on one vCPU
// for the whole run: two identical rpc_churn processes measured side by
// side read ~8 and ~12 us per message for ten seconds. Rotating gives every
// run its share of the uncontended vCPUs for LowQuantile to find.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }

  // A no-op when the process may use fewer than two CPUs, or may not move.
  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double CpuNsPerMsg(const RoundResult& r) {
  return Ratio(r.run_cpu_s * 1e9, static_cast<double>(r.counts.completed));
}

class MetricsOut {
 public:
  explicit MetricsOut(const Workload& w) : w_(w) {}

  void Add(std::string name, double value, std::string_view unit) {
    for (std::string_view prefix : w_.unused) {
      if (name.starts_with(prefix)) {
        na_.push_back(name);
        value = 0;
        break;
      }
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!json_.empty()) {
      json_ += ", ";
    }
    json_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             std::string(unit) + "\"}";
  }
  bool IsNa(std::string_view name) const {
    return std::find(na_.begin(), na_.end(), name) != na_.end();
  }
  const std::string& json() const { return json_; }
  const std::vector<std::string>& na() const { return na_; }

 private:
  const Workload& w_;
  std::string json_;
  std::vector<std::string> na_;
};

struct LayerMetric {
  Layer layer;
  const char* prefix;
  const char* per;   // "msg", "conn" or "frame"
  bool allocs;       // also report allocs_per_<per>
};
constexpr LayerMetric kTimedLayers[] = {
    {Layer::kNormanSend, "norman.send", "msg", true},
    {Layer::kNormanRecv, "norman.recv", "msg", true},
    {Layer::kNicRx, "nic.rx", "msg", true},
    {Layer::kKernelConnect, "kernel.connect", "conn", true},
    {Layer::kKernelClose, "kernel.close", "conn", true},
    {Layer::kKernelBlock, "kernel.block", "msg", true},
    {Layer::kNetBuild, "net.build", "frame", true},
    {Layer::kPeer, "peer", "msg", false},
    {Layer::kApp, "app", "msg", false},
};

// Per-layer metrics from the traced rounds (self time by LowQuantile, the
// rest by medians over rounds) and the exact counts every round shares.
using LayerRounds = std::vector<std::array<LayerSummary, kNumLayers>>;

void AddPerLayer(MetricsOut& out, const std::vector<RoundResult>& plain,
                 const std::vector<RoundResult>& traced,
                 const LayerRounds& layers, uint64_t attempted,
                 uint64_t failed, std::string& failure) {
  const RoundResult& last = plain.back();
  const Counts& c = last.counts;
  const auto msgs = static_cast<double>(c.completed);
  for (const LayerMetric& m : kTimedLayers) {
    const auto l = static_cast<size_t>(m.layer);
    std::vector<double> ns, allocs, p50, p99;
    for (const auto& round : layers) {
      const LayerSummary& s = round[l];
      const double per = std::string_view(m.per) == "conn"
                             ? static_cast<double>(s.samples)
                             : msgs;
      ns.push_back(Ratio(static_cast<double>(s.self_ns), per));
      allocs.push_back(Ratio(static_cast<double>(s.self_allocs), per));
      p50.push_back(static_cast<double>(s.p50_ns));
      p99.push_back(static_cast<double>(s.p99_ns));
    }
    const std::string p = m.prefix;
    const std::string per = m.per;
    out.Add(p + ".ns_per_" + per, LowQuantile(ns), "ns");
    if (m.allocs) {
      out.Add(p + ".allocs_per_" + per, Median(allocs), "allocs/" + per);
    }
    out.Add(p + ".p50_ns", Median(p50), "ns");
    out.Add(p + ".p99_ns", Median(p99), "ns");
    const uint64_t samples = layers.back()[l].samples;
    out.Add(p + ".samples", static_cast<double>(samples), "count");
    if (samples == 0 && !out.IsNa(p + ".samples") && failure.empty()) {
      failure = "layer " + p + " recorded no spans";
    }
  }
  std::vector<double> residual;
  for (const auto& round : layers) {
    residual.push_back(Ratio(
        static_cast<double>(round[static_cast<size_t>(Layer::kSimRun)].self_ns),
        msgs));
  }
  out.Add("sim.residual.ns_per_msg", LowQuantile(residual), "ns");
  out.Add("norman.recv.useful_poll_ratio",
          Ratio(static_cast<double>(c.useful_polls),
                static_cast<double>(c.polls)),
          "ratio");

  int64_t drops = 0;
  for (const auto& [name, value] : c.registry) {
    drops += IsDropCounter(name) ? value : 0;
  }
  const auto reg = [&](const char* name) {
    return static_cast<double>(RegistryValue(c, name));
  };
  out.Add("sim.events_per_msg", Ratio(static_cast<double>(c.events), msgs),
          "events/msg");
  out.Add("sim.batch_mean",
          Ratio(reg("sim.dispatch.batched_events"),
                reg("sim.dispatch.batches")),
          "events/batch");
  out.Add("sim.event_pool.hit_ratio",
          Ratio(static_cast<double>(c.event_pool_hits),
                static_cast<double>(c.event_pool_hits + c.event_pool_misses)),
          "ratio");
  out.Add("nic.pkts_per_msg",
          Ratio(reg("nic.tx.seen") + reg("nic.rx.seen"), msgs), "pkts/msg");
  out.Add("nic.drops_per_msg", Ratio(static_cast<double>(drops), msgs),
          "drops/msg");
  out.Add("nic.fastpath.hit_ratio",
          Ratio(reg("fastpath.hits"),
                reg("fastpath.hits") + reg("fastpath.misses")),
          "ratio");
  out.Add("nic.fastpath.invalidations_per_msg",
          Ratio(reg("fastpath.invalidations"), msgs), "1/msg");
  out.Add("nic.ddio.hit_ratio",
          Ratio(static_cast<double>(c.ddio_hits),
                static_cast<double>(c.ddio_hits + c.ddio_misses)),
          "ratio");
  out.Add("dataplane.overlay_instr_per_msg",
          Ratio(reg("nic.overlay.instructions"), msgs), "instr/msg");
  out.Add("dataplane.qdisc.high_water", reg("queue.nic.qdisc.high_water"),
          "pkts");
  out.Add("dataplane.capture.records",
          static_cast<double>(c.capture_records), "records");
  out.Add("kernel.wakeups_per_msg", Ratio(reg("kernel.notify.drained"), msgs),
          "1/msg");
  out.Add("net.pool.hit_ratio",
          Ratio(static_cast<double>(last.pool_hits),
                static_cast<double>(last.pool_hits + last.pool_misses)),
          "ratio");
  out.Add("net.pool.high_water",
          static_cast<double>(
              norman::net::PacketPool::Default().counters().high_water),
          "pkts");
  out.Add("telemetry.maintenance_ticks",
          static_cast<double>(c.maintenance_ticks), "count");
  out.Add("telemetry.samples", static_cast<double>(c.samples), "count");

  std::vector<double> allocs, plain_cpu, traced_cpu;
  for (const RoundResult& r : plain) {
    allocs.push_back(Ratio(static_cast<double>(r.run_allocs), msgs));
    plain_cpu.push_back(CpuNsPerMsg(r));
  }
  for (const RoundResult& r : traced) {
    traced_cpu.push_back(CpuNsPerMsg(r));
  }
  out.Add("allocs_per_msg", Median(allocs), "allocs/msg");
  out.Add("msg_fail_ratio",
          Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
          "ratio");
  out.Add("trace.overhead_ratio",
          Ratio(LowQuantile(traced_cpu), LowQuantile(plain_cpu)),
          "ratio");
}

// This process image's peak resident set (VmHWM). getrusage's ru_maxrss is
// no substitute: it carries the launching process's peak across exec.
double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// The exact counts as one JSON object, for the self-check's comparisons.
std::string CountsJson(const Counts& c, const Inputs& in) {
  std::string s = "{\"completed\": " + std::to_string(c.completed) +
                  ", \"digest\": \"" + Hex(c.digest) +
                  "\", \"final_virtual_ns\": " +
                  std::to_string(c.final_virtual_ns) +
                  ", \"rtt_p50_ns\": " + std::to_string(c.rtt_p50_ns) +
                  ", \"rtt_p99_ns\": " + std::to_string(c.rtt_p99_ns) +
                  ", \"events\": " + std::to_string(c.events) +
                  ", \"ddio_hits\": " + std::to_string(c.ddio_hits) +
                  ", \"ddio_misses\": " + std::to_string(c.ddio_misses) +
                  ", \"event_pool_hits\": " +
                  std::to_string(c.event_pool_hits) +
                  ", \"capture_records\": " +
                  std::to_string(c.capture_records) +
                  ", \"maintenance_ticks\": " +
                  std::to_string(c.maintenance_ticks) +
                  ", \"samples\": " + std::to_string(c.samples) +
                  ", \"polls\": " + std::to_string(c.polls) +
                  ", \"useful_polls\": " + std::to_string(c.useful_polls) +
                  ", \"conns\": " + std::to_string(c.conns) +
                  ", \"open_max\": " + std::to_string(c.open_max) +
                  ", \"arrivals_digest\": \"" + Hex(in.arrivals_digest) + "\"";
  for (const auto& [name, value] : c.registry) {
    s += ", \"" + name + "\": " + std::to_string(value);
  }
  return s + "}";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    Usage("unknown workload (bare_echo, interposed_mtu, rpc_churn)");
  }
  const Inputs in = w->make_inputs(args.seed, args.size);
  Tracer tracer;
  Tracer* const traced = args.trace != 0 ? &tracer : nullptr;

  // Warm-up round: fills the packet pool and the allocator, and fixes the
  // counts every later round must reproduce exactly. Traced in a traced
  // run, so that the span buffer reaches its size before timing starts.
  CpuRotation rotation;
  rotation.Next();
  const RoundResult ref = w->run_round(in, traced);
  std::string failure = ref.failure;
  uint64_t attempted = ref.attempted;
  uint64_t completed = ref.counts.completed;
  const auto check = [&](const RoundResult& r, const char* kind) {
    attempted += r.attempted;
    completed += r.counts.completed;
    if (!failure.empty()) {
      return;
    }
    if (!r.failure.empty()) {
      failure = r.failure;
    } else if (!(r.counts == ref.counts)) {
      failure = std::string(kind) +
                " round diverged from the warm-up round (digest " +
                Hex(r.counts.digest) + " vs " + Hex(ref.counts.digest) + ")";
    }
  };
  if (failure.empty() && args.seed == kDefaultSeed &&
      args.size == Size::kFull) {
    for (const Pinned& p : kPinned) {
      if (p.workload == w->name &&
          (ref.counts.completed != p.completed ||
           ref.counts.digest != p.digest ||
           ref.counts.final_virtual_ns != p.final_virtual_ns)) {
        failure = "virtual-time outputs moved: digest " +
                  Hex(ref.counts.digest) + " completed " +
                  std::to_string(ref.counts.completed) + " final " +
                  std::to_string(ref.counts.final_virtual_ns) +
                  " differ from the pinned default-seed values";
      }
    }
  }

  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced_rounds;
  LayerRounds layers;
  // Read after a fixed amount of work: the allocator's footprint keeps
  // creeping over hundreds of rounds, and how many rounds fit in --seconds
  // depends on host speed.
  double peak_rss_mib = 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(args.seconds);
  while (failure.empty() &&
         (plain.size() < kMinRounds ||
          std::chrono::steady_clock::now() < deadline)) {
    rotation.Next();
    plain.push_back(w->run_round(in, nullptr));
    check(plain.back(), "untraced");
    if (plain.size() == kMinRounds) {
      peak_rss_mib = PeakRssMib();
    }
    if (traced != nullptr) {
      tracer.Clear();
      traced_rounds.push_back(w->run_round(in, traced));
      check(traced_rounds.back(), "traced");
      layers.push_back(Summarize(tracer.spans()));
    }
  }

  const Counts& c = ref.counts;
  std::printf("perfbench: workload=%s seed=%llu size=%s rounds=%zu "
              "traced_rounds=%zu msgs_per_round=%llu conns_per_round=%llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.size == Size::kFull ? "full" : "tiny", plain.size(),
              traced_rounds.size(),
              static_cast<unsigned long long>(c.completed),
              static_cast<unsigned long long>(c.conns));
  std::printf("virtual: rtt_p50_ns=%lld rtt_p99_ns=%lld samples=%llu "
              "final_virtual_ns=%lld digest=%s open_conns_max=%llu "
              "open_conns_mean=%.1f kernel_core_util=%.3f\n",
              static_cast<long long>(c.rtt_p50_ns),
              static_cast<long long>(c.rtt_p99_ns),
              static_cast<unsigned long long>(c.completed),
              static_cast<long long>(c.final_virtual_ns),
              Hex(c.digest).c_str(),
              static_cast<unsigned long long>(c.open_max),
              c.open_mean, c.kernel_core_util);
  std::string drops;
  for (const auto& [name, value] : c.registry) {
    if (IsDropCounter(name) && value != 0) {
      drops += " " + name + "=" + std::to_string(value);
    }
  }
  std::printf("drops by reason:%s\n", drops.empty() ? " none" : drops.c_str());
  if (traced != nullptr && failure.empty()) {
    std::printf("trace: traced digest %s untraced digest\n",
                traced_rounds.back().counts.digest == plain.back().counts.digest
                    ? "equals"
                    : "DIFFERS FROM");
  }

  const uint64_t failed = attempted - std::min(attempted, completed);
  MetricsOut out(*w);
  if (failure.empty() && traced == nullptr) {
    std::vector<double> cpu, setup;
    for (const RoundResult& r : plain) {
      cpu.push_back(CpuNsPerMsg(r));
      setup.push_back(r.setup_cpu_s);
    }
    out.Add("cpu_ns_per_msg", LowQuantile(cpu), "ns");
    out.Add("setup_s", LowQuantile(setup), "s");
    out.Add("peak_rss_mib", peak_rss_mib, "MiB");
  } else if (failure.empty()) {
    AddPerLayer(out, plain, traced_rounds, layers, attempted, failed, failure);
    std::string na;
    for (const std::string& name : out.na()) {
      na += " " + name;
    }
    std::printf("n/a:%s\n", na.empty() ? " none" : na.c_str());
  }
  std::printf("REPORT {\"counts\": %s, \"na\": [", CountsJson(c, in).c_str());
  for (size_t i = 0; i < out.na().size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", out.na()[i].c_str());
  }
  std::printf("]}\n");
  if (!failure.empty()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  if (traced != nullptr && !args.spans_out.empty()) {
    if (std::FILE* f = std::fopen(args.spans_out.c_str(), "w")) {
      tracer.Write(f);
      std::fclose(f);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failure.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), out.json().c_str());
  return failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
