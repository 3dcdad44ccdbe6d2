// norman-probe: the kprobes/strace analogue plus the black-box flight
// recorder, run against a scripted, deterministic degradation scenario.
// Where norman-stat answers "what happened" in aggregate, norman-probe
// answers "what *sequence* of dataplane decisions led here": every armed
// interposition probe appends a structured record to the per-core rings,
// and the flight recorder's trigger rules freeze those rings on the first
// sign of trouble so the postmortem bundle preserves the causal tail.
//
// The scenario is a chaos-induced degradation with three canned triggers
// installed:
//   * an iptables DROP rule the batch flow keeps hitting (filter.verdict),
//   * an SRAM hostage forcing one connection onto the software slow path
//     (sram.exhausted — trigger candidate),
//   * a corrupting wire plus an administrative down window on the echo
//     link, spiking nic.rx.drop.corrupt and walking the watchdog's link
//     component out of healthy (nic.drop / watchdog.transition triggers).
// Whichever trigger matches first latches; the run is deterministic, so
// the fired trigger, the frozen journal, and the exported bundle are
// byte-identical across runs.
//
// Usage: norman_probe [--list] [--triggers] [--arm PROBE[=PREDICATE]]
//                     [--dump FILE] [--json]
//   --list      print the probe inventory (no scenario run)
//   --triggers  print the installed trigger rules (no scenario run)
//   --arm       arm one probe, optionally filtered; repeatable. Default:
//               every probe, unfiltered.
//   --dump      write the postmortem bundle JSON to FILE
//   --json      print the postmortem bundle JSON to stdout
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/drop_reason.h"
#include "src/common/flight_recorder.h"
#include "src/common/tracepoint.h"
#include "src/norman/socket.h"
#include "src/sim/fault.h"
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
  cfg.top_talkers = true;
  cfg.top_talker_entries = 8;
  cfg.maintenance = true;
  (void)k.Configure(kernel::kRootUid, cfg);

  // Root policy: batch may not reach port 9999 — a steady stream of
  // filter.verdict drop records attributed to batch's pid.
  (void)tools::IptablesAppend(&k, kernel::kRootUid,
                              "-A OUTPUT -p udp --dport 9999 -j DROP");

  auto web = Socket::Connect(&k, web_pid, kPeerIp, 7777, {});
  auto batch = Socket::Connect(&k, batch_pid, kPeerIp, 8888, {});
  auto denied = Socket::Connect(&k, batch_pid, kPeerIp, 9999, {});
  if (!web.ok() || !batch.ok() || !denied.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return;
  }

  // SRAM hostage: the next flow install is refused (sram.exhausted) and
  // the connection falls over to the host slow path (kernel.slowpath).
  auto& cp = k.nic_control();
  (void)cp.InjectSramPressure(cp.sram().available());
  kernel::ConnectOptions fb;
  fb.allow_software_fallback = true;
  auto fallback = Socket::Connect(&k, batch_pid, kPeerIp, 6666, fb);
  cp.ReleaseSramPressure();

  // Chaos on the echo wire: a quarter of the replies come back damaged
  // (RX verification drops them: nic.drop reason=corrupt) and the link
  // goes administratively dark mid-run, so the watchdog walks the link
  // component degraded -> stalled -> recovered.
  sim::FaultProfile profile;
  profile.corruption = 0.25;
  bed.fault().SetProfile(workload::TestBed::kNetworkToHostLink, profile);
  bed.fault().AddDownWindow(workload::TestBed::kNetworkToHostLink,
                            2 * kMillisecond, 4 * kMillisecond);

  const std::vector<uint8_t> big(1200, 0xaa);
  const std::vector<uint8_t> small(128, 0xbb);
  uint8_t scratch[2048];
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 16; ++i) {
      (void)web->Send(big);
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
  bool list_only = false;
  bool triggers_only = false;
  bool json = false;
  std::string dump_path;
  std::vector<std::pair<telemetry::Probe, telemetry::ProbePredicate>> arms;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--triggers") {
      triggers_only = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--dump" && i + 1 < argc) {
      dump_path = argv[++i];
    } else if (arg == "--arm" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      const std::string name = spec.substr(0, eq);
      telemetry::Probe probe;
      if (!telemetry::ProbeFromName(name, &probe)) {
        std::fprintf(stderr, "unknown probe: %s\n", name.c_str());
        return 2;
      }
      telemetry::ProbePredicate pred;
      if (eq != std::string::npos &&
          !telemetry::ProbePredicate::Parse(spec.substr(eq + 1), &pred)) {
        std::fprintf(stderr, "bad predicate: %s\n",
                     spec.substr(eq + 1).c_str());
        return 2;
      }
      arms.emplace_back(probe, pred);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--list] [--triggers] "
                   "[--arm PROBE[=PREDICATE]] [--dump FILE] [--json]\n",
                   argv[0]);
      return 2;
    }
  }

  workload::TestBedOptions opts;
  opts.echo = true;
  opts.kernel.housekeeping_period = 100 * kMicrosecond;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);

  auto& tp = bed.sim().tracepoints();
  auto& fr = bed.sim().flight_recorder();
  // The canned black-box rules: first sign of trouble freezes the rings.
  fr.AddWatchdogUnhealthyTrigger();
  fr.AddDropReasonTrigger("corrupt-frame",
                          static_cast<uint64_t>(DropReason::kCorrupt));
  fr.AddSramExhaustedTrigger();
  if (arms.empty()) {
    tp.ArmAll();
  } else {
    for (const auto& [probe, pred] : arms) {
      tp.Arm(probe, pred);
    }
  }

  if (list_only) {
    std::printf("%s", tp.ListReport().c_str());
    return 0;
  }
  if (triggers_only) {
    std::printf("%s", fr.TriggersReport().c_str());
    return 0;
  }

  RunScenario(bed);

  const std::string bundle = fr.Bundle(
      bed.sim().metrics(), &bed.kernel().watchdog(), &bed.sim().profiler());
  if (!dump_path.empty()) {
    std::ofstream out(dump_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", dump_path.c_str());
      return 1;
    }
    out << bundle;
    std::fprintf(stderr, "wrote postmortem bundle to %s\n",
                 dump_path.c_str());
  }
  if (json) {
    std::printf("%s\n", bundle.c_str());
    return 0;
  }
  if (dump_path.empty()) {
    // Default view: the probe inventory (now with hit counts) and the
    // trigger state after the run.
    std::printf("%s", tp.ListReport().c_str());
    std::printf("%s", fr.TriggersReport().c_str());
    if (fr.triggered()) {
      std::printf("black box: trigger '%s' fired at t=%lld (journal frozen, "
                  "%llu records kept)\n",
                  fr.fired_trigger().c_str(),
                  static_cast<long long>(fr.fired_record().t),
                  static_cast<unsigned long long>(tp.Journal().size()));
    } else {
      std::printf("black box: no trigger fired (%llu records retained)\n",
                  static_cast<unsigned long long>(tp.Journal().size()));
    }
  }
  return 0;
}

}  // namespace
}  // namespace norman

int main(int argc, char** argv) { return norman::Main(argc, argv); }
