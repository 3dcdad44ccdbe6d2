// DuplexTestBed: two complete Norman hosts (SmartNIC + kernel each) wired
// back-to-back over one discrete-event simulator.
//
// Unlike TestBed (whose remote peer is synthetic), both ends here run the
// full stack: real connection setup on both sides, listen/accept on the
// server, ARP/ICMP answered by the remote NIC, and policies enforced
// independently per host. This is the substrate for end-to-end
// client/server integration tests.
//
// The wire between the hosts is a sim::FaultInjector with one simplex link
// per direction, so chaos tests can lose, duplicate, corrupt, jitter or
// reorder frames — or take the link down — deterministically from
// `fault_seed`. Faults are configured per link through fault(); the wire
// starts clean.
#ifndef NORMAN_WORKLOAD_DUPLEX_H_
#define NORMAN_WORKLOAD_DUPLEX_H_

#include <memory>

#include "src/kernel/kernel.h"
#include "src/nic/smart_nic.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"

namespace norman::workload {

struct DuplexOptions {
  nic::SmartNic::Options nic_a;
  nic::SmartNic::Options nic_b;
  Nanos propagation_delay = 2 * kMicrosecond;
  // Seeds the wire's fault plane (see fault()).
  uint64_t fault_seed = 0x5eed;
};

class DuplexTestBed {
 public:
  struct Host {
    std::unique_ptr<nic::SmartNic> nic;
    std::unique_ptr<kernel::Kernel> kernel;
    uint64_t frames_sent = 0;
    uint64_t frames_received = 0;
  };

  using Options = DuplexOptions;

  // Fault-plane link ids for each direction of the wire.
  static constexpr size_t kLinkAtoB = 0;
  static constexpr size_t kLinkBtoA = 1;

  explicit DuplexTestBed(Options options = Options());

  sim::Simulator& sim() { return sim_; }
  Host& a() { return a_; }
  Host& b() { return b_; }

  net::Ipv4Address ip_a() const { return a_.kernel->options().host_ip; }
  net::Ipv4Address ip_b() const { return b_.kernel->options().host_ip; }

  // The wire fault plane: one link per direction (kLinkAtoB, kLinkBtoA).
  // Profiles may change at any time, e.g. connect cleanly, then degrade the
  // link mid-test.
  sim::FaultInjector& fault() { return fault_; }

  uint64_t frames_lost() const { return fault_.frames_lost(); }

 private:
  void Wire(Host* from, Host* to, size_t link);

  Options options_;
  sim::Simulator sim_;
  sim::FaultInjector fault_;
  Host a_;
  Host b_;
};

}  // namespace norman::workload

#endif  // NORMAN_WORKLOAD_DUPLEX_H_
