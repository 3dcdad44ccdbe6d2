// norman-prof: the dataplane profiler CLI, run against a scripted,
// deterministic scenario. Where norman-stat answers "what happened" and
// norman-top answers "what is happening", norman-prof answers "who spent
// the cycles, and where": per-stage attribution stacks, per-core
// conservation (busy == attributed + unaccounted), and the per-owner
// resource ledger the kernel's flow->pid map makes possible.
//
// The scenario exercises every attribution context the dataplane has:
//   * flow-cache-hit traffic (webapp: repeated echo on one flow, fastpath),
//   * full chain walks (batch: first packets + cache-ineligible traffic),
//   * a filter drop (attr.*.drops),
//   * a software-fallback connection whose packets burn host kernel cycles
//     under kernel.slow_path,
//   * the periodic maintenance tick (zero-cost scope, visible by entries).
//
// All outputs are byte-stable across runs. --flame-out writes folded stacks
// consumable by inferno / flamegraph.pl / speedscope.
//
// Usage: norman_prof [--by-stage] [--by-owner] [--json] [--flame-out FILE]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

constexpr auto kPeerIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);

void RunScenario(workload::TestBed& bed) {
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  k.processes().AddUser(1002, "bob");
  const auto web_pid = *k.processes().Spawn(1001, "webapp");
  const auto batch_pid = *k.processes().Spawn(1002, "batch");
  kernel::NicConfig cfg;
  cfg.flow_cache = true;
  cfg.maintenance = true;
  (void)k.Configure(kernel::kRootUid, cfg);

  // Root policy: batch may not reach port 9999 — those packets drop on the
  // OUTPUT chain and land in batch's attr ledger.
  (void)tools::IptablesAppend(&k, kernel::kRootUid,
                              "-A OUTPUT -p udp --dport 9999 -j DROP");

  auto web = Socket::Connect(&k, web_pid, kPeerIp, 7777, {});
  auto batch = Socket::Connect(&k, batch_pid, kPeerIp, 8888, {});
  auto denied = Socket::Connect(&k, batch_pid, kPeerIp, 9999, {});
  if (!web.ok() || !batch.ok() || !denied.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return;
  }

  // A software-fallback connection: hold the remaining NIC SRAM hostage so
  // the flow install fails over to the host path, then release. Its
  // packets are charged syscall + kernel stack + copy on kernel.core.
  auto& cp = k.nic_control();
  const uint64_t hostage = cp.sram().available();
  (void)cp.InjectSramPressure(hostage);
  kernel::ConnectOptions fb;
  fb.allow_software_fallback = true;
  auto fallback = Socket::Connect(&k, batch_pid, kPeerIp, 6666, fb);
  cp.ReleaseSramPressure();

  const std::vector<uint8_t> big(1024, 0xaa);
  const std::vector<uint8_t> small(128, 0xbb);
  uint8_t scratch[2048];
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 16; ++i) {
      (void)web->Send(big);  // steady flow: fastpath hits dominate
    }
    for (int i = 0; i < 2; ++i) {
      (void)batch->Send(small);
      (void)denied->Send(small);  // filter drop
    }
    if (fallback.ok()) {
      (void)fallback->Send(small);  // host slow path
    }
    // Re-arm the maintenance tick (it parks itself when the heap drains).
    (void)k.Configure(kernel::kRootUid, k.active_config());
    bed.sim().Run();
    while (web->RecvInto(scratch).ok()) {
    }
    while (batch->RecvInto(scratch).ok()) {
    }
  }
}

int Main(int argc, char** argv) {
  bool by_stage = false;
  bool by_owner = false;
  bool json = false;
  std::string flame_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--by-stage") {
      by_stage = true;
    } else if (arg == "--by-owner") {
      by_owner = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--flame-out" && i + 1 < argc) {
      flame_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--by-stage] [--by-owner] [--json] "
                   "[--flame-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  workload::TestBedOptions opts;
  opts.echo = true;
  opts.kernel.housekeeping_period = 100 * kMicrosecond;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);
  RunScenario(bed);

  const auto& prof = bed.sim().profiler();
  if (!flame_path.empty()) {
    std::ofstream out(flame_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flame_path.c_str());
      return 1;
    }
    out << prof.FoldedStacks();
    std::fprintf(stderr, "wrote folded stacks to %s\n", flame_path.c_str());
  }
  if (json) {
    std::printf("%s\n", prof.JsonReport().c_str());
    return 0;
  }
  // Default: both views; each flag narrows to one.
  if (by_stage || !by_owner) {
    std::printf("%s", tools::ProfByStage(bed.kernel()).c_str());
  }
  if (by_owner || !by_stage) {
    std::printf("%s", tools::ProfByOwner(bed.kernel()).c_str());
  }
  return 0;
}

}  // namespace
}  // namespace norman

int main(int argc, char** argv) { return norman::Main(argc, argv); }
