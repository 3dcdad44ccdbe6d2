// On-NIC packet sniffer tap — the tcpdump of Norman (§2 "Debugging").
//
// Unlike per-application capture under kernel bypass, this tap sits on the
// NIC pipeline and therefore sees *all* traffic crossing the interface
// (global view) annotated with the owning connection/process (process view).
// Captures go to a standard pcap byte stream plus an in-memory record list
// carrying the process metadata, which the norman-tcpdump tool renders.
//
// An optional verified overlay program filters which packets are captured
// (verdict != 0 -> capture), matching tcpdump's BPF expression role.
#ifndef NORMAN_DATAPLANE_SNIFFER_H_
#define NORMAN_DATAPLANE_SNIFFER_H_

#include <optional>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/net/pcap_writer.h"
#include "src/nic/pipeline.h"
#include "src/overlay/decoded_program.h"
#include "src/overlay/isa.h"
#include "src/sim/simulator.h"

namespace norman::dataplane {

struct CaptureRecord {
  Nanos timestamp = 0;
  net::Direction direction = net::Direction::kTx;
  overlay::ConnMetadata owner;  // who sent/receives it (kUnknown if none)
  size_t frame_size = 0;
  // Decoded summary fields for tooling (0 when absent).
  uint16_t eth_type = 0;
  uint8_t ip_proto = 0;
  net::Ipv4Address src_ip;
  net::Ipv4Address dst_ip;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  bool is_arp_request = false;
};

class SnifferTap : public nic::PipelineStage {
 public:
  // `sim` supplies capture timestamps; snaplen as in tcpdump -s,
  // max_records as in tcpdump -c: the first max_records matching packets
  // are retained (records and pcap stay consistent), later matches only
  // bump the "sniffer.overflow" counter. A capture buffer must be bounded
  // — a long-lived tap must not grow without limit.
  explicit SnifferTap(sim::Simulator* sim, uint32_t snaplen = 96,
                      size_t max_records = 65536);

  std::string_view name() const override { return "sniffer"; }
  // Stateful tap: verdicts are cacheable (always accept) but every packet
  // — fast path or slow — must land in the capture buffer.
  nic::StageCacheClass cache_class() const override {
    return nic::StageCacheClass::kObserver;
  }

  // Starts/stops capturing. While stopped the tap is a no-op.
  void Start() { capturing_ = true; }
  void Stop() { capturing_ = false; }
  bool capturing() const { return capturing_; }

  // Installs a capture filter (verdict != 0 captures), verified and
  // decoded here; an invalid program fails with the verifier's status and
  // leaves the current filter in place. Pass std::nullopt to capture
  // everything.
  Status SetFilter(std::optional<overlay::Program> program);

  const std::vector<CaptureRecord>& records() const { return records_; }
  const net::PcapWriter& pcap() const { return pcap_; }
  uint64_t captured() const { return records_.size(); }
  size_t max_records() const { return max_records_; }
  // Matches discarded because the capture buffer was full.
  uint64_t overflow() const;
  void Clear();

  nic::StageResult Process(net::Packet& packet,
                      const overlay::PacketContext& ctx) override;

 private:
  sim::Simulator* sim_;
  uint32_t snaplen_;
  size_t max_records_;
  bool capturing_ = false;
  std::optional<overlay::DecodedProgram> filter_;
  std::vector<CaptureRecord> records_;
  net::PcapWriter pcap_;
  telemetry::Counter* overflow_;  // "sniffer.overflow"
};

}  // namespace norman::dataplane

#endif  // NORMAN_DATAPLANE_SNIFFER_H_
