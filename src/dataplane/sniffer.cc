#include "src/dataplane/sniffer.h"

#include <utility>

namespace norman::dataplane {

SnifferTap::SnifferTap(sim::Simulator* sim, uint32_t snaplen,
                       size_t max_records)
    : sim_(sim),
      snaplen_(snaplen),
      max_records_(max_records),
      pcap_(snaplen),
      overflow_(sim->metrics().GetCounter("sniffer.overflow")) {}

uint64_t SnifferTap::overflow() const { return overflow_->value(); }

Status SnifferTap::SetFilter(std::optional<overlay::Program> program) {
  if (!program.has_value()) {
    filter_.reset();
    return OkStatus();
  }
  NORMAN_ASSIGN_OR_RETURN(overlay::DecodedProgram decoded,
                          overlay::DecodedProgram::Decode(std::move(*program)));
  filter_ = std::move(decoded);
  return OkStatus();
}

void SnifferTap::Clear() {
  records_.clear();
  pcap_ = net::PcapWriter(snaplen_);
}

nic::StageResult SnifferTap::Process(net::Packet& packet,
                                     const overlay::PacketContext& ctx) {
  nic::StageResult result;  // a tap never alters the verdict
  if (!capturing_) {
    return result;
  }
  if (filter_.has_value()) {
    const overlay::ExecResult exec = filter_->Run(ctx);
    result.overlay_instructions = exec.instructions_executed;
    if (exec.verdict == 0) {
      return result;
    }
  }
  if (records_.size() >= max_records_) {
    // Buffer full (tcpdump -c semantics): the match is counted, not kept,
    // and the pcap stream stays exactly the retained records.
    overflow_->Increment();
    return result;
  }
  CaptureRecord rec;
  rec.timestamp = sim_->Now();
  rec.direction = ctx.direction;
  rec.owner = ctx.conn;
  rec.frame_size = packet.size();
  if (ctx.parsed != nullptr) {
    const auto& p = *ctx.parsed;
    rec.eth_type = p.eth.ether_type;
    if (p.is_ipv4()) {
      rec.ip_proto = static_cast<uint8_t>(p.ipv4->protocol);
      rec.src_ip = p.ipv4->src;
      rec.dst_ip = p.ipv4->dst;
    }
    if (auto flow = p.flow()) {
      rec.src_port = flow->src_port;
      rec.dst_port = flow->dst_port;
    }
    if (p.is_arp()) {
      rec.is_arp_request = p.arp->op == net::ArpOp::kRequest;
      rec.src_ip = p.arp->sender_ip;
      rec.dst_ip = p.arp->target_ip;
    }
  }
  records_.push_back(rec);
  pcap_.AddRecord(rec.timestamp, packet.bytes());
  return result;
}

}  // namespace norman::dataplane
