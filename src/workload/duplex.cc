#include "src/workload/duplex.h"

namespace norman::workload {

DuplexTestBed::DuplexTestBed(Options options)
    : options_(options), fault_(&sim_, options.fault_seed) {
  kernel::Kernel::Options ka;
  ka.host_ip = net::Ipv4Address::FromOctets(10, 0, 0, 1);
  ka.host_mac = net::MacAddress::ForHost(1);
  ka.gateway_mac = net::MacAddress::ForHost(2);  // the peer, directly
  kernel::Kernel::Options kb;
  kb.host_ip = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  kb.host_mac = net::MacAddress::ForHost(2);
  kb.gateway_mac = net::MacAddress::ForHost(1);

  a_.nic = std::make_unique<nic::SmartNic>(&sim_, options_.nic_a);
  a_.kernel = std::make_unique<kernel::Kernel>(&sim_, a_.nic.get(), ka);
  b_.nic = std::make_unique<nic::SmartNic>(&sim_, options_.nic_b);
  b_.kernel = std::make_unique<kernel::Kernel>(&sim_, b_.nic.get(), kb);

  Wire(&a_, &b_, kLinkAtoB);
  Wire(&b_, &a_, kLinkBtoA);
}

void DuplexTestBed::Wire(Host* from, Host* to, size_t link) {
  fault_.SetSink(link, [this, to](net::PacketPtr packet) {
    ++to->frames_received;
    to->nic->DeliverFromWire(std::move(packet), sim_.Now());
  });
  from->nic->SetWireSink([this, from, link](net::PacketPtr packet) {
    ++from->frames_sent;
    fault_.Transmit(link, std::move(packet),
                    sim_.Now() + options_.propagation_delay);
  });
}

}  // namespace norman::workload
