// Administrative tools (§4.2): "Tools such as tc, iptables and tcpdump also
// call into the in-kernel control plane, which updates the SmartNIC
// dataplane."
//
// Each tool is a thin frontend over Kernel's root-only syscalls plus a
// renderer producing familiar, human-readable output. The crucial
// difference from their Linux namesakes is visible in the output of
// norman-tcpdump and norman-netstat: every line is annotated with the
// owning pid/user/comm, courtesy of the NIC flow table.
#ifndef NORMAN_TOOLS_TOOLS_H_
#define NORMAN_TOOLS_TOOLS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/kernel/kernel.h"

namespace norman::tools {

// ---- norman-tcpdump --------------------------------------------------------
// Starts/stops capture; Render prints captured frames with process
// annotations: "12.3us TX pid=104 (buggy/charlie) ARP who-has 10.0.0.9".
Status TcpdumpStart(kernel::Kernel* k, kernel::Uid caller,
                    const std::string& overlay_filter_asm = "");
Status TcpdumpStop(kernel::Kernel* k, kernel::Uid caller);
std::string TcpdumpRender(const kernel::Kernel& k, size_t max_lines = 50);
// Writes the capture to a .pcap file readable by stock tcpdump/wireshark.
Status TcpdumpWritePcap(const kernel::Kernel& k, const std::string& path);

// ---- norman-iptables -------------------------------------------------------
// Appends a rule expressed in iptables-ish flag form. Supported tokens:
//   -A INPUT|OUTPUT  -p udp|tcp|icmp  -s a.b.c.d[/n]  -d a.b.c.d[/n]
//   --sport lo[:hi]  --dport lo[:hi]
//   -m owner --uid-owner N | --pid-owner N | --cmd-owner NAME
//   --cgroup N
//   -j ACCEPT|DROP|FALLBACK
// Example: "-A OUTPUT -p tcp --dport 5432 -m owner --uid-owner 1001 -j ACCEPT"
StatusOr<size_t> IptablesAppend(kernel::Kernel* k, kernel::Uid caller,
                                const std::string& spec);
Status IptablesDelete(kernel::Kernel* k, kernel::Uid caller,
                      kernel::Chain chain, size_t index);
Status IptablesFlush(kernel::Kernel* k, kernel::Uid caller,
                     kernel::Chain chain);
// "-L -v"-style listing with hit counters.
std::string IptablesList(const kernel::Kernel& k);

// ---- norman-tc -------------------------------------------------------------
// Installs a qdisc from a tc-ish spec:
//   "qdisc replace dev nic0 root fifo"
//   "qdisc replace dev nic0 root prio bands 3"
//   "qdisc replace dev nic0 root tbf rate 100mbit burst 32kb"
//   "qdisc replace dev nic0 root drr quantum 1514"
//   "qdisc replace dev nic0 root wfq uid 1001:8 uid 1002:1"   (uid weights)
//   "qdisc replace dev nic0 root wfq cgroup 2:4 cgroup 3:1"   (cgroup weights)
Status TcReplace(kernel::Kernel* k, kernel::Uid caller,
                 const std::string& spec);
std::string TcShow(const kernel::Kernel& k);

// Per-connection rate limit via the NIC pacer:
//   "conn 3 rate 100mbit burst 16kb"   (rate 0 clears)
Status TcRateLimit(kernel::Kernel* k, kernel::Uid caller,
                   const std::string& spec);

// ---- norman-stat (ethtool -S equivalent) -----------------------------------
// NIC datapath counters, SRAM occupancy by category, DDIO behavior, drop
// accounting, and resource utilizations over the elapsed virtual time
// (pipeline and DMA as the mean over the NIC's lanes).
std::string NicStat(const kernel::Kernel& k, const nic::SmartNic& nic);

// The `norman-stat --drops` view: per-reason TX/RX drop table, the
// owner-annotated ledger, and the kernel slow-path drop counters.
std::string NicStatDrops(const kernel::Kernel& k, const nic::SmartNic& nic);

// The `norman-stat --fastpath` view: flow verdict cache occupancy, hit/miss
// balance, epoch invalidations, evictions, and SRAM footprint.
std::string NicStatFastPath(const kernel::Kernel& k,
                            const nic::SmartNic& nic);

// ---- norman-top ------------------------------------------------------------
// The continuous-monitoring dashboard: per-process and per-flow bandwidth,
// every bounded queue's depth + high watermark, and the watchdog's health
// verdicts. Reads the registry, the NIC top-talkers table, and the kernel
// sampler/watchdog — pure observation, byte-stable for a deterministic run.
std::string TopRender(const kernel::Kernel& k, const nic::SmartNic& nic,
                      size_t max_flows = 10);
std::string TopJson(const kernel::Kernel& k, const nic::SmartNic& nic,
                    size_t max_flows = 10);

// The `norman-top --alerts` view: just the health watchdog's alert log
// (every logged state transition, oldest first) plus the drop count for
// entries the bounded log already evicted.
std::string TopAlerts(const kernel::Kernel& k);

// ---- norman-prof -----------------------------------------------------------
// Dataplane cycle & resource attribution (src/common/profiler.h). ByStage
// renders the per-core conservation table plus the attribution-context tree;
// ByOwner renders the per-process resource ledger (cycles split by core
// kind, packets, bytes, drops, SRAM). Both are byte-stable for a
// deterministic run.
std::string ProfByStage(const kernel::Kernel& k);
std::string ProfByOwner(const kernel::Kernel& k);

// The `norman-top --by-pid` view: the profiler's owner ledger framed as a
// process dashboard.
std::string TopByPid(const kernel::Kernel& k);

// The `norman-top --by-core` view of the NIC's lanes: one row per
// profiler core (busy / attributed / unaccounted — the conservation triple)
// followed by every per-queue lane ring's depth and high watermark, so a
// stuck or hot lane stands out against its siblings. Byte-stable for a
// deterministic run.
std::string TopByCore(const kernel::Kernel& k, const nic::SmartNic& nic);

// The `norman-top --by-tenant` view for the multi-tenant dataplane: one row
// per registered tenant (WFQ weight, packets, cycles consumed, time spent
// throttled behind its own share, drops, denied admissions, SRAM held),
// followed by the profiler's owner ledger grouped under each owning tenant
// (pid -> uid -> tenant). Byte-stable for a deterministic run.
std::string TopByTenant(const kernel::Kernel& k, const nic::SmartNic& nic);

// ---- norman-netstat --------------------------------------------------------
// Connection table with owner annotations, like `netstat -tupn`.
std::string Netstat(const kernel::Kernel& k);

// ---- norman-arp ------------------------------------------------------------
// ARP cache plus — unique to Norman — the TX-side ARP forensic log with the
// emitting process for every application-originated ARP frame.
std::string ArpShow(const kernel::Kernel& k);

// ---- CLI arguments ---------------------------------------------------------
// Reads a whole decimal string in [0, max] into *out. False on an empty
// string, any non-digit (sign included) or a value above max.
bool ParseDecimal(std::string_view text, uint64_t max, uint64_t* out);

}  // namespace norman::tools

#endif  // NORMAN_TOOLS_TOOLS_H_
