// norman-top: the continuous-monitoring dashboard, run against a scripted,
// deterministic scenario. Where norman-stat answers "what happened",
// norman-top answers "what is happening": per-process and per-flow
// bandwidth (from the on-NIC top-talkers table), every bounded queue's
// depth and high watermark, and the health watchdog's verdicts — all
// sampled by the kernel's periodic maintenance tick on the virtual clock,
// so every output mode is byte-stable across runs.
//
// The scenario: a heavy webapp flow and a light batch flow behind a
// rate-limited tbf qdisc. The heavy flow backs the qdisc up (the watchdog
// sees the queue not draining and flags it), then the backlog clears and
// the component recovers — the alert log keeps both transitions.
//
// With --chaos the same dashboard runs over a faulty wire: the echo peer's
// replies cross a FaultInjector link that corrupts a fraction of frames and
// goes administratively down mid-run, so the health section walks the link
// component through degraded -> stalled -> recovered and the alert log
// keeps every transition.
//
// With --by-core the dataplane is sharded across 4 lanes before traffic
// flows, and the dashboard renders the per-core attribution table plus
// every lane ring's depth — the view that makes one wedged or hot lane
// stand out against its siblings.
//
// Usage: norman_top [--json] [--text] [--by-pid] [--by-core] [--alerts]
//                   [--chaos] [--series-out FILE] [--flows N]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/norman/socket.h"
#include "src/sim/fault.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

constexpr auto kPeerIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);

// Adds flow accounting and the maintenance tick to whatever the NIC
// already runs (the lanes of --by-core).
void EnableMonitoring(kernel::Kernel& k) {
  kernel::NicConfig cfg = k.active_config();
  cfg.top_talkers = true;
  cfg.top_talker_entries = 8;
  cfg.maintenance = true;
  if (const Status s = k.Configure(kernel::kRootUid, cfg); !s.ok()) {
    std::fprintf(stderr, "configure: %s\n", std::string(s.message()).c_str());
  }
}

// The maintenance tick parks itself when the event heap drains (so it
// can't keep an idle simulation alive); re-applying the active config
// re-arms it for the next burst.
void RestartMaintenance(kernel::Kernel& k) {
  (void)k.Configure(kernel::kRootUid, k.active_config());
}

void RunScenario(workload::TestBed& bed) {
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  k.processes().AddUser(1002, "bob");
  const auto web_pid = *k.processes().Spawn(1001, "webapp");
  const auto batch_pid = *k.processes().Spawn(1002, "batch");

  // Flow accounting on the NIC + the periodic maintenance tick that feeds
  // the sampler and the watchdog.
  EnableMonitoring(k);

  // A rate-limited root qdisc: the heavy sender outruns it, so the backlog
  // builds and the watchdog has something to flag.
  const Status tc = tools::TcReplace(
      &k, kernel::kRootUid, "qdisc replace dev nic0 root tbf rate 200mbit "
                            "burst 16kb");
  if (!tc.ok()) {
    std::fprintf(stderr, "tc: %s\n", std::string(tc.message()).c_str());
  }

  auto heavy = Socket::Connect(&k, web_pid, kPeerIp, 7777, {});
  auto light = Socket::Connect(&k, batch_pid, kPeerIp, 8888, {});
  if (!heavy.ok() || !light.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return;
  }

  const std::vector<uint8_t> big(1200, 0xaa);
  const std::vector<uint8_t> small(128, 0xbb);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 24; ++i) {
      (void)heavy->Send(big);  // saturates the tbf: qdisc backs up
    }
    for (int i = 0; i < 2; ++i) {
      (void)light->Send(small);
    }
    RestartMaintenance(k);
    bed.sim().Run();  // drains everything; maintenance ticks throughout
    uint8_t scratch[2048];
    while (heavy->RecvInto(scratch).ok()) {
    }
    while (light->RecvInto(scratch).ok()) {
    }
  }
  // Leave the connections open: the dashboard renders the live table.
}

void RunChaosScenario(workload::TestBed& bed) {
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  const auto pid = *k.processes().Spawn(1001, "webapp");
  EnableMonitoring(k);

  auto sock = Socket::Connect(&k, pid, kPeerIp, 7777, {});
  if (!sock.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return;
  }

  // The echo replies cross a corrupting wire (the NIC's RX checksum check
  // drops the damaged ones, so nic.rx.drop.corrupt.rate spikes) ...
  sim::FaultProfile profile;
  profile.corruption = 0.25;
  bed.fault().SetProfile(workload::TestBed::kNetworkToHostLink, profile);
  // ... and the link goes administratively dark for a stretch mid-run: the
  // watchdog's link-down rule flags the component stalled, then logs the
  // recovery when the window ends.
  bed.fault().AddDownWindow(workload::TestBed::kNetworkToHostLink,
                            2 * kMillisecond, 4 * kMillisecond);

  const std::vector<uint8_t> big(1200, 0xaa);
  uint8_t scratch[2048];
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 16; ++i) {
      (void)sock->Send(big);
    }
    RestartMaintenance(k);
    bed.sim().Run();
    while (sock->RecvInto(scratch).ok()) {
    }
  }
}

// With --by-tenant two users are registered as quota'd tenants (the webapp
// gets 3x the batch job's WFQ cycle weight plus a larger SRAM envelope),
// isolation is armed through the declarative Configure call, and the
// dashboard renders the per-tenant share table (packets, cycles, throttled
// time, drops, denials, SRAM held) over the owner ledger grouped by tenant.
void RunTenantScenario(workload::TestBed& bed,
                       std::vector<kernel::Tenant>& tenants) {
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  k.processes().AddUser(1002, "bob");
  const auto web_pid = *k.processes().Spawn(1001, "webapp");
  const auto batch_pid = *k.processes().Spawn(1002, "batch");

  kernel::TenantSpec web_spec;
  web_spec.cycle_weight = 3;
  web_spec.sram_bytes = 16 * 1024;
  web_spec.ring_bytes = 64 * 1024;
  kernel::TenantSpec batch_spec;
  batch_spec.cycle_weight = 1;
  batch_spec.sram_bytes = 4 * 1024;
  batch_spec.ring_bytes = 64 * 1024;
  auto web_tenant = k.CreateTenant(kernel::kRootUid, 1001, web_spec);
  auto batch_tenant = k.CreateTenant(kernel::kRootUid, 1002, batch_spec);
  if (!web_tenant.ok() || !batch_tenant.ok()) {
    std::fprintf(stderr, "tenant registration failed\n");
    return;
  }
  tenants.push_back(std::move(*web_tenant));
  tenants.push_back(std::move(*batch_tenant));

  kernel::NicConfig cfg;
  cfg.top_talkers = true;
  cfg.top_talker_entries = 8;
  cfg.maintenance = true;
  cfg.tenant_isolation = true;
  if (const Status s = k.Configure(kernel::kRootUid, cfg); !s.ok()) {
    std::fprintf(stderr, "configure: %s\n", std::string(s.message()).c_str());
    return;
  }

  auto heavy = Socket::Connect(&k, web_pid, kPeerIp, 7777, {});
  auto light = Socket::Connect(&k, batch_pid, kPeerIp, 8888, {});
  if (!heavy.ok() || !light.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return;
  }

  const std::vector<uint8_t> big(1200, 0xaa);
  const std::vector<uint8_t> small(128, 0xbb);
  uint8_t scratch[2048];
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 24; ++i) {
      (void)heavy->Send(big);
    }
    for (int i = 0; i < 8; ++i) {
      (void)light->Send(small);
    }
    RestartMaintenance(k);
    bed.sim().Run();
    while (heavy->RecvInto(scratch).ok()) {
    }
    while (light->RecvInto(scratch).ok()) {
    }
  }
}

int Main(int argc, char** argv) {
  bool show_json = false;
  bool show_text = false;
  bool by_pid = false;
  bool by_core = false;
  bool by_tenant = false;
  bool alerts = false;
  bool chaos = false;
  std::string series_path;
  size_t max_flows = 10;
  uint64_t value = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      show_json = true;
    } else if (arg == "--text") {
      show_text = true;
    } else if (arg == "--by-pid") {
      by_pid = true;
    } else if (arg == "--by-core") {
      by_core = true;
    } else if (arg == "--by-tenant") {
      by_tenant = true;
    } else if (arg == "--alerts") {
      alerts = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--series-out" && i + 1 < argc) {
      series_path = argv[++i];
    } else if (arg == "--flows" && i + 1 < argc &&
               tools::ParseDecimal(argv[++i], SIZE_MAX, &value)) {
      max_flows = static_cast<size_t>(value);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--text] [--by-pid] [--by-core] "
                   "[--by-tenant] [--alerts] [--chaos] [--series-out FILE] "
                   "[--flows N]\n",
                   argv[0]);
      return 2;
    }
  }

  workload::TestBedOptions opts;
  opts.echo = true;
  // Tick fast relative to the scenario's few-millisecond span so the series
  // hold enough windows for rates and stall detection to mean something.
  opts.kernel.housekeeping_period = 100 * kMicrosecond;
  workload::TestBed bed(opts);
  // Attribution is pure observation (no events, no virtual-time cost), so
  // it can stay on for every view without perturbing the goldens.
  bed.sim().profiler().set_enabled(true);
  if (by_core) {
    // Shard before any traffic flows so every lane resource exists from the
    // first packet and the per-core table covers the whole run.
    kernel::NicConfig cfg;
    cfg.shard_queues = 4;
    const Status s = bed.kernel().Configure(kernel::kRootUid, cfg);
    if (!s.ok()) {
      std::fprintf(stderr, "sharding: %s\n", std::string(s.message()).c_str());
      return 1;
    }
  }
  // Tenant handles are RAII: keep them alive until after rendering so the
  // share table reflects the live registrations.
  std::vector<kernel::Tenant> tenant_handles;
  if (chaos) {
    RunChaosScenario(bed);
  } else if (by_tenant) {
    RunTenantScenario(bed, tenant_handles);
  } else {
    RunScenario(bed);
  }

  if (!series_path.empty()) {
    std::ofstream out(series_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", series_path.c_str());
      return 1;
    }
    out << bed.kernel().sampler().JsonReport();
    std::fprintf(stderr, "wrote %llu samples to %s\n",
                 static_cast<unsigned long long>(
                     bed.kernel().sampler().samples_taken()),
                 series_path.c_str());
  }

  if (by_pid) {
    std::printf("%s", tools::TopByPid(bed.kernel()).c_str());
    return 0;
  }
  if (by_core) {
    std::printf("%s", tools::TopByCore(bed.kernel(), bed.nic()).c_str());
    return 0;
  }
  if (by_tenant) {
    std::printf("%s", tools::TopByTenant(bed.kernel(), bed.nic()).c_str());
    return 0;
  }
  if (alerts) {
    std::printf("%s", tools::TopAlerts(bed.kernel()).c_str());
    return 0;
  }
  if (show_json) {
    std::printf("%s\n", tools::TopJson(bed.kernel(), bed.nic(), max_flows).c_str());
    return 0;
  }
  (void)show_text;  // text is the default rendering
  std::printf("%s", tools::TopRender(bed.kernel(), bed.nic(), max_flows).c_str());
  return 0;
}

}  // namespace
}  // namespace norman

int main(int argc, char** argv) { return norman::Main(argc, argv); }
