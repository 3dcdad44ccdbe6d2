#include "src/tools/tools.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <span>
#include <sstream>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/dataplane/qdisc.h"
#include "src/nic/fifo_scheduler.h"
#include "src/overlay/assembler.h"

namespace norman::tools {
namespace {

std::vector<std::string> Tokenize(const std::string& s) {
  std::istringstream iss(s);
  std::vector<std::string> tokens;
  std::string tok;
  while (iss >> tok) {
    tokens.push_back(tok);
  }
  return tokens;
}

// "a.b.c.d" or "a.b.c.d/prefix".
StatusOr<net::Ipv4Address> ParseIp(const std::string& s, uint32_t* prefix) {
  std::string_view text = s;
  uint64_t p = 32;
  if (const size_t slash = text.find('/'); slash != std::string_view::npos) {
    if (!ParseDecimal(text.substr(slash + 1), 32, &p)) {
      return InvalidArgumentError("bad address: " + s);
    }
    text = text.substr(0, slash);
  }
  uint64_t octets[4];
  for (size_t i = 0; i < 4; ++i) {
    const size_t end = i < 3 ? text.find('.') : text.size();
    if (end == std::string_view::npos ||
        !ParseDecimal(text.substr(0, end), 255, &octets[i])) {
      return InvalidArgumentError("bad address: " + s);
    }
    text.remove_prefix(i < 3 ? end + 1 : end);
  }
  *prefix = static_cast<uint32_t>(p);
  return net::Ipv4Address::FromOctets(
      static_cast<uint8_t>(octets[0]), static_cast<uint8_t>(octets[1]),
      static_cast<uint8_t>(octets[2]), static_cast<uint8_t>(octets[3]));
}

// "port" or "lo:hi".
StatusOr<dataplane::PortRange> ParsePorts(const std::string& s) {
  const std::string_view text = s;
  const size_t colon = text.find(':');
  const std::string_view hi_text =
      colon == std::string_view::npos ? text : text.substr(colon + 1);
  uint64_t lo = 0;
  uint64_t hi = 0;
  if (!ParseDecimal(text.substr(0, colon), 65535, &lo) ||
      !ParseDecimal(hi_text, 65535, &hi) || lo > hi) {
    return InvalidArgumentError("bad port: " + s);
  }
  return dataplane::PortRange{static_cast<uint16_t>(lo),
                              static_cast<uint16_t>(hi)};
}

std::string ActionName(dataplane::FilterAction a) {
  switch (a) {
    case dataplane::FilterAction::kAccept:
      return "ACCEPT";
    case dataplane::FilterAction::kDrop:
      return "DROP";
    case dataplane::FilterAction::kSoftwareFallback:
      return "FALLBACK";
  }
  return "?";
}

std::string ProtoName(net::IpProto p) {
  switch (p) {
    case net::IpProto::kTcp:
      return "tcp";
    case net::IpProto::kUdp:
      return "udp";
    case net::IpProto::kIcmp:
      return "icmp";
  }
  return "?";
}

void RenderChain(const kernel::Kernel& k, kernel::Chain chain,
                 std::ostringstream& out) {
  const auto& engine = k.filter(chain);
  out << "Chain " << (chain == kernel::Chain::kInput ? "INPUT" : "OUTPUT")
      << " (policy " << ActionName(engine.default_action()) << ", "
      << engine.default_hits() << " default hits)\n";
  const auto& rules = engine.rules();
  for (size_t i = 0; i < rules.size(); ++i) {
    const auto& r = rules[i];
    out << "  [" << i << "] " << ActionName(r.action);
    if (r.proto) {
      out << " -p " << ProtoName(*r.proto);
    }
    if (r.src_ip) {
      out << " -s " << r.src_ip->ToString() << "/"
          << r.src_ip_prefix.value_or(32);
    }
    if (r.dst_ip) {
      out << " -d " << r.dst_ip->ToString() << "/"
          << r.dst_ip_prefix.value_or(32);
    }
    if (r.src_port) {
      out << " --sport " << r.src_port->lo << ":" << r.src_port->hi;
    }
    if (r.dst_port) {
      out << " --dport " << r.dst_port->lo << ":" << r.dst_port->hi;
    }
    if (r.owner_uid) {
      out << " --uid-owner " << *r.owner_uid;
    }
    if (r.owner_pid) {
      out << " --pid-owner " << *r.owner_pid;
    }
    if (r.owner_comm) {
      out << " --cmd-owner #" << *r.owner_comm;
    }
    if (r.owner_cgroup) {
      out << " --cgroup " << *r.owner_cgroup;
    }
    if (!r.label.empty()) {
      out << "  (" << r.label << ")";
    }
    out << "  [" << engine.hit_counts()[i] << " hits]\n";
  }
}

}  // namespace

// ---- tcpdump ----------------------------------------------------------------

Status TcpdumpStart(kernel::Kernel* k, kernel::Uid caller,
                    const std::string& overlay_filter_asm) {
  std::optional<overlay::Program> filter;
  if (!overlay_filter_asm.empty()) {
    NORMAN_ASSIGN_OR_RETURN(overlay::Program prog,
                            overlay::Assemble(overlay_filter_asm));
    filter = std::move(prog);
  }
  return k->StartCapture(caller, std::move(filter));
}

Status TcpdumpStop(kernel::Kernel* k, kernel::Uid caller) {
  return k->StopCapture(caller);
}

std::string TcpdumpRender(const kernel::Kernel& k, size_t max_lines) {
  std::ostringstream out;
  const auto& records = k.sniffer().records();
  const size_t start = records.size() > max_lines
                           ? records.size() - max_lines
                           : 0;
  for (size_t i = start; i < records.size(); ++i) {
    const auto& r = records[i];
    out << FormatNanos(r.timestamp) << " "
        << (r.direction == net::Direction::kTx ? "TX" : "RX");
    if (r.owner.owner_pid != 0) {
      const auto* proc = k.processes().Lookup(r.owner.owner_pid);
      out << " pid=" << r.owner.owner_pid << " ("
          << (proc != nullptr ? proc->comm : "?") << "/"
          << k.processes().UserName(r.owner.owner_uid) << ")";
    } else {
      out << " pid=?";
    }
    if (r.eth_type == 0x0806) {
      out << " ARP " << (r.is_arp_request ? "who-has " : "is-at ")
          << r.dst_ip.ToString() << " tell " << r.src_ip.ToString();
    } else if (r.eth_type == 0x0800) {
      out << " IP " << r.src_ip.ToString() << ":" << r.src_port << " > "
          << r.dst_ip.ToString() << ":" << r.dst_port
          << (r.ip_proto == 6 ? " tcp" : r.ip_proto == 17 ? " udp" : "");
    } else {
      out << " ethertype 0x" << std::hex << r.eth_type << std::dec;
    }
    out << " len " << r.frame_size << "\n";
  }
  if (start > 0) {
    out << "(" << start << " earlier frames elided)\n";
  }
  return out.str();
}

Status TcpdumpWritePcap(const kernel::Kernel& k, const std::string& path) {
  return k.sniffer().pcap().WriteToFile(path);
}

// ---- iptables ----------------------------------------------------------------

StatusOr<size_t> IptablesAppend(kernel::Kernel* k, kernel::Uid caller,
                                const std::string& spec) {
  const auto tokens = Tokenize(spec);
  kernel::Chain chain = kernel::Chain::kOutput;
  dataplane::FilterRule rule;
  bool have_chain = false;
  bool have_action = false;

  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    auto next = [&]() -> StatusOr<std::string> {
      if (i + 1 >= tokens.size()) {
        return InvalidArgumentError("iptables: " + t + " needs an argument");
      }
      return tokens[++i];
    };
    // A uid, pid or cgroup id.
    auto next_id = [&]() -> StatusOr<uint32_t> {
      NORMAN_ASSIGN_OR_RETURN(std::string v, next());
      uint64_t id = 0;
      if (!ParseDecimal(v, UINT32_MAX, &id)) {
        return InvalidArgumentError("iptables: bad " + t + " " + v);
      }
      return static_cast<uint32_t>(id);
    };
    if (t == "-A") {
      NORMAN_ASSIGN_OR_RETURN(std::string c, next());
      if (c == "INPUT") {
        chain = kernel::Chain::kInput;
        rule.direction = net::Direction::kRx;
      } else if (c == "OUTPUT") {
        chain = kernel::Chain::kOutput;
        rule.direction = net::Direction::kTx;
      } else {
        return InvalidArgumentError("iptables: unknown chain " + c);
      }
      have_chain = true;
    } else if (t == "-p") {
      NORMAN_ASSIGN_OR_RETURN(std::string p, next());
      if (p == "tcp") {
        rule.proto = net::IpProto::kTcp;
      } else if (p == "udp") {
        rule.proto = net::IpProto::kUdp;
      } else if (p == "icmp") {
        rule.proto = net::IpProto::kIcmp;
      } else {
        return InvalidArgumentError("iptables: unknown proto " + p);
      }
    } else if (t == "-s" || t == "-d") {
      NORMAN_ASSIGN_OR_RETURN(std::string a, next());
      uint32_t prefix = 32;
      NORMAN_ASSIGN_OR_RETURN(net::Ipv4Address ip, ParseIp(a, &prefix));
      if (t == "-s") {
        rule.src_ip = ip;
        rule.src_ip_prefix = prefix;
      } else {
        rule.dst_ip = ip;
        rule.dst_ip_prefix = prefix;
      }
    } else if (t == "--sport" || t == "--dport") {
      NORMAN_ASSIGN_OR_RETURN(std::string p, next());
      NORMAN_ASSIGN_OR_RETURN(dataplane::PortRange range, ParsePorts(p));
      if (t == "--sport") {
        rule.src_port = range;
      } else {
        rule.dst_port = range;
      }
    } else if (t == "-m") {
      NORMAN_ASSIGN_OR_RETURN(std::string m, next());
      if (m != "owner") {
        return InvalidArgumentError("iptables: unknown match " + m);
      }
    } else if (t == "--uid-owner") {
      NORMAN_ASSIGN_OR_RETURN(rule.owner_uid, next_id());
    } else if (t == "--pid-owner") {
      NORMAN_ASSIGN_OR_RETURN(rule.owner_pid, next_id());
    } else if (t == "--cmd-owner") {
      NORMAN_ASSIGN_OR_RETURN(std::string v, next());
      rule.owner_comm = k->CommIdFor(v);
      rule.label = "cmd-owner " + v;
    } else if (t == "--cgroup") {
      NORMAN_ASSIGN_OR_RETURN(rule.owner_cgroup, next_id());
    } else if (t == "-j") {
      NORMAN_ASSIGN_OR_RETURN(std::string a, next());
      if (a == "ACCEPT") {
        rule.action = dataplane::FilterAction::kAccept;
      } else if (a == "DROP") {
        rule.action = dataplane::FilterAction::kDrop;
      } else if (a == "FALLBACK") {
        rule.action = dataplane::FilterAction::kSoftwareFallback;
      } else {
        return InvalidArgumentError("iptables: unknown target " + a);
      }
      have_action = true;
    } else {
      return InvalidArgumentError("iptables: unknown token " + t);
    }
  }
  if (!have_chain || !have_action) {
    return InvalidArgumentError("iptables: need -A CHAIN and -j TARGET");
  }
  return k->AppendFilterRule(caller, chain, rule);
}

Status IptablesDelete(kernel::Kernel* k, kernel::Uid caller,
                      kernel::Chain chain, size_t index) {
  return k->DeleteFilterRule(caller, chain, index);
}

Status IptablesFlush(kernel::Kernel* k, kernel::Uid caller,
                     kernel::Chain chain) {
  return k->FlushFilterRules(caller, chain);
}

std::string IptablesList(const kernel::Kernel& k) {
  std::ostringstream out;
  RenderChain(k, kernel::Chain::kInput, out);
  RenderChain(k, kernel::Chain::kOutput, out);
  return out.str();
}

// ---- tc -----------------------------------------------------------------------

namespace {

// Linux's TCQ_PRIO_BANDS.
constexpr uint64_t kMaxPrioBands = 16;

// A finite, positive number; `*rest` gets what follows it.
bool ParsePositive(std::string_view text, double* out,
                   std::string_view* rest) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  *rest = std::string_view(ptr, static_cast<size_t>(end - ptr));
  return ec == std::errc() && std::isfinite(*out) && *out > 0;
}

struct Unit {
  std::string_view suffix;
  double scale;
};
constexpr Unit kRateUnits[] = {
    {"gbit", 1e9}, {"mbit", 1e6}, {"kbit", 1e3}, {"bit", 1}, {"", 1}};
constexpr Unit kSizeUnits[] = {
    {"mb", 1024.0 * 1024}, {"kb", 1024}, {"b", 1}, {"", 1}};

// "<number><unit>" as a whole count of bits or bytes: at least 1 and below
// 2^64 once scaled.
StatusOr<uint64_t> ParseAmount(const std::string& s,
                               std::span<const Unit> units,
                               const std::string& what) {
  double value = 0;
  std::string_view suffix;
  if (ParsePositive(s, &value, &suffix)) {
    for (const Unit& unit : units) {
      const double scaled = value * unit.scale;
      if (unit.suffix == suffix && scaled >= 1 && scaled < 0x1p64) {
        return static_cast<uint64_t>(scaled);
      }
    }
  }
  return InvalidArgumentError("tc: bad " + what + " " + s);
}

StatusOr<BitsPerSecond> ParseRate(const std::string& s) {
  return ParseAmount(s, kRateUnits, "rate");
}

StatusOr<uint64_t> ParseSize(const std::string& s) {
  return ParseAmount(s, kSizeUnits, "size");
}

}  // namespace

Status TcReplace(kernel::Kernel* k, kernel::Uid caller,
                 const std::string& spec) {
  const auto tokens = Tokenize(spec);
  // Expect: qdisc replace dev <dev> root <kind> [args...]
  size_t i = 0;
  auto expect = [&](const std::string& word) -> Status {
    if (i >= tokens.size() || tokens[i] != word) {
      return InvalidArgumentError("tc: expected '" + word + "'");
    }
    ++i;
    return OkStatus();
  };
  NORMAN_RETURN_IF_ERROR(expect("qdisc"));
  NORMAN_RETURN_IF_ERROR(expect("replace"));
  NORMAN_RETURN_IF_ERROR(expect("dev"));
  if (i >= tokens.size()) {
    return InvalidArgumentError("tc: missing device");
  }
  ++i;  // device name (single simulated NIC; accepted and ignored)
  NORMAN_RETURN_IF_ERROR(expect("root"));
  if (i >= tokens.size()) {
    return InvalidArgumentError("tc: missing qdisc kind");
  }
  const std::string kind = tokens[i++];

  std::unique_ptr<nic::Scheduler> qdisc;
  if (kind == "fifo") {
    qdisc = std::make_unique<nic::FifoScheduler>();
  } else if (kind == "prio") {
    uint64_t bands = 3;
    if (i + 1 < tokens.size() && tokens[i] == "bands") {
      if (!ParseDecimal(tokens[i + 1], kMaxPrioBands, &bands) || bands == 0) {
        return InvalidArgumentError("tc: bad prio bands " + tokens[i + 1]);
      }
      i += 2;
    }
    // Default prio classifier: DSCP EF (46) -> band 0, rest -> last band.
    const auto n = static_cast<uint32_t>(bands);
    qdisc = std::make_unique<dataplane::PrioQdisc>(
        n, dataplane::ClassifyByDscp({{46, 0}, {0, n - 1}}));
  } else if (kind == "tbf") {
    BitsPerSecond rate = 0;
    uint64_t burst = 32 * 1024;
    while (i + 1 < tokens.size()) {
      if (tokens[i] == "rate") {
        NORMAN_ASSIGN_OR_RETURN(rate, ParseRate(tokens[i + 1]));
        i += 2;
      } else if (tokens[i] == "burst") {
        NORMAN_ASSIGN_OR_RETURN(burst, ParseSize(tokens[i + 1]));
        i += 2;
      } else {
        return InvalidArgumentError("tc: unknown tbf arg " + tokens[i]);
      }
    }
    if (rate == 0) {
      return InvalidArgumentError("tc: tbf needs a rate");
    }
    qdisc = std::make_unique<dataplane::TokenBucketQdisc>(rate, burst);
  } else if (kind == "drr") {
    uint64_t quantum = 1514;
    if (i + 1 < tokens.size() && tokens[i] == "quantum") {
      if (!ParseDecimal(tokens[i + 1], UINT64_MAX, &quantum) ||
          quantum == 0) {
        return InvalidArgumentError("tc: bad drr quantum " + tokens[i + 1]);
      }
      i += 2;
    }
    qdisc = std::make_unique<dataplane::DrrQdisc>(
        dataplane::ClassifyByUid({}), quantum);
  } else if (kind == "wfq") {
    std::map<uint32_t, uint32_t> uid_class;
    std::map<uint32_t, uint32_t> cgroup_class;
    std::vector<std::pair<uint32_t, double>> weights;  // class -> weight
    uint32_t next_class = 1;
    while (i + 1 < tokens.size()) {
      const std::string& key = tokens[i];
      const std::string_view pair = tokens[i + 1];
      const size_t colon = pair.find(':');
      uint64_t id = 0;
      double weight = 0;
      std::string_view rest;
      if (colon == std::string_view::npos ||
          !ParseDecimal(pair.substr(0, colon), UINT32_MAX, &id) ||
          !ParsePositive(pair.substr(colon + 1), &weight, &rest) ||
          !rest.empty()) {
        return InvalidArgumentError("tc: bad wfq spec " + tokens[i + 1]);
      }
      const uint32_t cls = next_class++;
      if (key == "uid") {
        uid_class[static_cast<uint32_t>(id)] = cls;
      } else if (key == "cgroup") {
        cgroup_class[static_cast<uint32_t>(id)] = cls;
      } else {
        return InvalidArgumentError("tc: unknown wfq key " + key);
      }
      weights.emplace_back(cls, weight);
      i += 2;
    }
    dataplane::Classifier classifier;
    if (!cgroup_class.empty() && uid_class.empty()) {
      classifier = dataplane::ClassifyByCgroup(cgroup_class);
    } else if (!uid_class.empty() && cgroup_class.empty()) {
      classifier = dataplane::ClassifyByUid(uid_class);
    } else {
      return InvalidArgumentError(
          "tc: wfq needs uid or cgroup weights (not both)");
    }
    auto wfq = std::make_unique<dataplane::WfqQdisc>(std::move(classifier));
    for (const auto& [cls, weight] : weights) {
      wfq->SetWeight(cls, weight);
    }
    qdisc = std::move(wfq);
  } else {
    return InvalidArgumentError("tc: unknown qdisc kind " + kind);
  }
  if (i != tokens.size()) {
    return InvalidArgumentError("tc: unexpected argument " + tokens[i]);
  }
  return k->SetQdisc(caller, std::move(qdisc));
}

Status TcRateLimit(kernel::Kernel* k, kernel::Uid caller,
                   const std::string& spec) {
  const auto tokens = Tokenize(spec);
  // conn <id> rate <rate> [burst <size>]
  if ((tokens.size() != 4 && tokens.size() != 6) || tokens[0] != "conn" ||
      tokens[2] != "rate" || (tokens.size() == 6 && tokens[4] != "burst")) {
    return InvalidArgumentError(
        "tc: expected 'conn <id> rate <rate> [burst <size>]'");
  }
  uint64_t conn = 0;
  if (!ParseDecimal(tokens[1], UINT32_MAX, &conn)) {
    return InvalidArgumentError("tc: bad connection id " + tokens[1]);
  }
  BitsPerSecond rate = 0;
  if (tokens[3] != "0") {
    NORMAN_ASSIGN_OR_RETURN(rate, ParseRate(tokens[3]));
  }
  uint64_t burst = 16 * 1024;
  if (tokens.size() == 6) {
    NORMAN_ASSIGN_OR_RETURN(burst, ParseSize(tokens[5]));
  }
  return k->SetConnRateLimit(caller, static_cast<net::ConnectionId>(conn),
                             rate, burst);
}

namespace {

// "pid=104 (postgres)" — owner annotation for drop ledger lines; pid 0 is
// wire traffic with no registered owner.
std::string OwnerLabel(const kernel::Kernel& k, uint32_t pid) {
  if (pid == 0) {
    return "pid=0 (-)";
  }
  const kernel::Process* proc = k.processes().Lookup(pid);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "pid=%u (%s)", pid,
                proc != nullptr ? proc->comm.c_str() : "?");
  return buf;
}

void RenderDropLedger(const kernel::Kernel& k, const nic::SmartNic& nic,
                      std::ostringstream& out) {
  const auto ledger = nic.stats().DropLedger();
  if (ledger.empty()) {
    out << "  drops: none\n";
    return;
  }
  out << "  drops by reason (owner-annotated):\n";
  for (const auto& rec : ledger) {
    out << "    " << (rec.direction == net::Direction::kTx ? "tx" : "rx")
        << " " << DropReasonName(rec.reason) << " "
        << OwnerLabel(k, rec.owner_pid) << ": " << rec.count << "\n";
  }
}

}  // namespace

std::string NicStat(const kernel::Kernel& k, const nic::SmartNic& nic) {
  std::ostringstream out;
  const auto& s = nic.stats();
  const Nanos now = const_cast<kernel::Kernel&>(k).simulator()->Now();
  out << "NIC statistics (virtual time " << FormatNanos(now) << "):\n";
  out << "  tx: seen " << s.tx_seen() << ", accepted " << s.tx_accepted()
      << ", filtered " << s.tx_dropped() << ", sched-drop "
      << s.tx_sched_dropped() << ", sw-fallback " << s.tx_fallback()
      << ", wire bytes " << s.tx_bytes_wire() << "\n";
  out << "  rx: seen " << s.rx_seen() << ", accepted " << s.rx_accepted()
      << ", filtered " << s.rx_dropped() << ", unmatched " << s.rx_unmatched()
      << ", ring-overflow " << s.rx_ring_overflow() << ", sw-fallback "
      << s.rx_fallback() << "\n";
  out << "  dma transfers " << s.dma_transfers()
      << ", overlay instructions " << s.overlay_instructions() << "\n";
  RenderDropLedger(k, nic, out);
  const auto& ddio = nic.ddio();
  char ddio_line[128];
  std::snprintf(ddio_line, sizeof(ddio_line),
                "  ddio: %.1f%% hit (%llu/%llu), resident %llu B of %llu B\n",
                ddio.hit_rate() * 100,
                static_cast<unsigned long long>(ddio.hits()),
                static_cast<unsigned long long>(ddio.accesses()),
                static_cast<unsigned long long>(ddio.resident_bytes()),
                static_cast<unsigned long long>(ddio.ddio_capacity()));
  out << ddio_line;
  const auto& sram =
      const_cast<kernel::Kernel&>(k).nic_control().sram();
  out << "  sram: " << sram.used() << " / " << sram.capacity() << " B";
  for (const auto& [cat, bytes] : sram.by_category()) {
    out << "  " << cat << "=" << bytes;
  }
  out << "\n";
  if (now > 0) {
    char util[128];
    std::snprintf(util, sizeof(util),
                  "  utilization: wire %.1f%%, pipeline %.1f%%, dma %.1f%%, "
                  "kernel-core %.1f%%\n",
                  nic.wire().Utilization(now) * 100,
                  nic.PipelineUtilization(now) * 100,
                  nic.DmaUtilization(now) * 100,
                  k.kernel_core().Utilization(now) * 100);
    out << util;
  }
  return out.str();
}

std::string NicStatDrops(const kernel::Kernel& k, const nic::SmartNic& nic) {
  std::ostringstream out;
  const auto& s = nic.stats();
  sim::Simulator* sim = const_cast<kernel::Kernel&>(k).simulator();
  const Nanos now = sim->Now();
  out << "Drop accounting (virtual time " << FormatNanos(now) << "):\n";
  char header[96];
  std::snprintf(header, sizeof(header), "  %-16s %9s %9s\n", "reason", "tx",
                "rx");
  out << header;
  uint64_t tx_total = 0, rx_total = 0;
  for (size_t r = 1; r < kNumDropReasons; ++r) {
    const auto reason = static_cast<DropReason>(r);
    const uint64_t tx = s.tx_drops(reason);
    const uint64_t rx = s.rx_drops(reason);
    tx_total += tx;
    rx_total += rx;
    if (tx == 0 && rx == 0) {
      continue;  // only reasons that fired; totals keep the full picture
    }
    char line[96];
    std::snprintf(line, sizeof(line), "  %-16s %9llu %9llu\n",
                  std::string(DropReasonName(reason)).c_str(),
                  static_cast<unsigned long long>(tx),
                  static_cast<unsigned long long>(rx));
    out << line;
  }
  char total[96];
  std::snprintf(total, sizeof(total), "  %-16s %9llu %9llu\n", "total",
                static_cast<unsigned long long>(tx_total),
                static_cast<unsigned long long>(rx_total));
  out << total;
  RenderDropLedger(k, nic, out);
  auto& m = sim->metrics();
  out << "  kernel slow path: malformed "
      << m.GetCounter("kernel.drop.malformed")->value() << ", unmatched "
      << m.GetCounter("kernel.drop.unmatched")->value()
      << ", sram_exhausted "
      << m.GetCounter("kernel.drop.sram_exhausted")->value() << "\n";
  return out.str();
}

std::string NicStatFastPath(const kernel::Kernel& k,
                            const nic::SmartNic& nic) {
  (void)nic;
  auto& fc = const_cast<kernel::Kernel&>(k).nic_control().flow_cache();
  std::ostringstream out;
  out << "Flow fast path: " << (fc.enabled() ? "enabled" : "disabled")
      << " (epoch " << fc.epoch() << ")\n";
  const uint64_t lookups = fc.hits() + fc.misses();
  char line[128];
  std::snprintf(line, sizeof(line),
                "  entries      %8llu / %llu (%llu B SRAM)\n",
                static_cast<unsigned long long>(fc.size()),
                static_cast<unsigned long long>(fc.max_entries()),
                static_cast<unsigned long long>(fc.sram_bytes()));
  out << line;
  std::snprintf(line, sizeof(line), "  hits         %8llu (%.1f%%)\n",
                static_cast<unsigned long long>(fc.hits()),
                lookups == 0 ? 0.0
                             : 100.0 * static_cast<double>(fc.hits()) /
                                   static_cast<double>(lookups));
  out << line;
  std::snprintf(line, sizeof(line), "  misses       %8llu\n",
                static_cast<unsigned long long>(fc.misses()));
  out << line;
  std::snprintf(line, sizeof(line), "  uncacheable  %8llu\n",
                static_cast<unsigned long long>(fc.uncacheable()));
  out << line;
  std::snprintf(line, sizeof(line), "  invalidations%8llu\n",
                static_cast<unsigned long long>(fc.invalidations()));
  out << line;
  std::snprintf(line, sizeof(line), "  evictions    %8llu\n",
                static_cast<unsigned long long>(fc.evictions()));
  out << line;
  return out.str();
}

std::string TcShow(const kernel::Kernel& k) {
  std::ostringstream out;
  const auto* sched =
      const_cast<kernel::Kernel&>(k).nic_control().scheduler();
  out << "qdisc " << (sched != nullptr ? sched->name() : "none")
      << " dev nic0 root";
  if (sched != nullptr) {
    out << " backlog " << sched->backlog_packets() << "p";
  }
  out << "\n";
  return out.str();
}

// ---- top ----------------------------------------------------------------------

namespace {

struct ProcBandwidth {
  uint64_t tx_packets = 0;
  uint64_t rx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t rx_bytes = 0;
};

// Aggregate per-connection counters by owning pid (sorted by pid).
std::map<uint32_t, ProcBandwidth> ByProcess(const kernel::Kernel& k) {
  std::map<uint32_t, ProcBandwidth> by_pid;
  for (const auto& c : k.ListConnections()) {
    ProcBandwidth& b = by_pid[c.pid];
    b.tx_packets += c.tx_packets;
    b.rx_packets += c.rx_packets;
    b.tx_bytes += c.tx_bytes;
    b.rx_bytes += c.rx_bytes;
  }
  return by_pid;
}

// Average goodput over the elapsed virtual time, Mbit/s.
double Mbps(uint64_t bytes, Nanos now) {
  if (now <= 0) {
    return 0;
  }
  return static_cast<double>(bytes) * 8e3 / static_cast<double>(now);
}

// Every "queue.<name>.depth" gauge with its high watermark, sorted by name.
struct QueueRow {
  std::string name;  // "nic.qdisc", "kernel.accept", ...
  int64_t depth = 0;
  int64_t high_water = 0;
};

std::vector<QueueRow> QueueRows(const telemetry::MetricsRegistry& m) {
  std::vector<QueueRow> rows;
  m.ForEachGauge([&](const std::string& name, const telemetry::Gauge& g) {
    constexpr std::string_view kPrefix = "queue.";
    constexpr std::string_view kSuffix = ".depth";
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      return;
    }
    QueueRow row;
    row.name = name.substr(kPrefix.size(),
                           name.size() - kPrefix.size() - kSuffix.size());
    row.depth = g.value();
    const telemetry::Gauge* hw =
        m.FindGauge("queue." + row.name + ".high_water");
    row.high_water = hw != nullptr ? hw->value() : 0;
    rows.push_back(std::move(row));
  });
  return rows;  // ForEachGauge iterates sorted, so rows are sorted
}

std::string TupleLabel(const net::FiveTuple& t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s:%u->%s:%u/%u",
                t.src_ip.ToString().c_str(), t.src_port,
                t.dst_ip.ToString().c_str(), t.dst_port,
                static_cast<unsigned>(t.proto));
  return buf;
}

}  // namespace

std::string TopRender(const kernel::Kernel& k, const nic::SmartNic& nic,
                      size_t max_flows) {
  std::ostringstream out;
  auto& mutable_k = const_cast<kernel::Kernel&>(k);
  sim::Simulator* sim = mutable_k.simulator();
  const Nanos now = sim->Now();
  char line[160];

  out << "norman-top (virtual time " << FormatNanos(now) << ", "
      << k.sampler().samples_taken() << " samples, "
      << k.maintenance_ticks() << " maintenance ticks)\n";

  const nic::NicStats& ns = nic.stats();
  std::snprintf(line, sizeof(line),
                "nic: tx %llu pkts / %llu wire bytes, rx %llu pkts, "
                "%llu drops (%.2f Mbit/s on wire)\n",
                static_cast<unsigned long long>(ns.tx_accepted()),
                static_cast<unsigned long long>(ns.tx_bytes_wire()),
                static_cast<unsigned long long>(ns.rx_accepted()),
                static_cast<unsigned long long>(ns.total_drops()),
                Mbps(ns.tx_bytes_wire(), now));
  out << line;

  out << "processes:\n";
  std::snprintf(line, sizeof(line), "  %-22s %9s %9s %12s %12s %10s\n",
                "pid (comm)", "tx-pkts", "rx-pkts", "tx-bytes", "rx-bytes",
                "Mbit/s");
  out << line;
  for (const auto& [pid, b] : ByProcess(k)) {
    std::snprintf(line, sizeof(line),
                  "  %-22s %9llu %9llu %12llu %12llu %10.2f\n",
                  OwnerLabel(k, pid).c_str(),
                  static_cast<unsigned long long>(b.tx_packets),
                  static_cast<unsigned long long>(b.rx_packets),
                  static_cast<unsigned long long>(b.tx_bytes),
                  static_cast<unsigned long long>(b.rx_bytes),
                  Mbps(b.tx_bytes + b.rx_bytes, now));
    out << line;
  }

  out << "flows (on-NIC top talkers):\n";
  const nic::TopTalkers* talkers = mutable_k.nic_control().top_talkers();
  if (talkers == nullptr) {
    out << "  disabled (kernel did not enable flow accounting)\n";
  } else {
    std::snprintf(line, sizeof(line), "  %-34s %-18s %9s %12s %10s\n",
                  "flow", "owner", "packets", "bytes", "Mbit/s");
    out << line;
    for (const auto& e : talkers->Top(max_flows)) {
      std::snprintf(line, sizeof(line),
                    "  %-34s %-18s %9llu %12llu %10.2f\n",
                    TupleLabel(e.tuple).c_str(),
                    OwnerLabel(k, e.owner_pid).c_str(),
                    static_cast<unsigned long long>(e.packets),
                    static_cast<unsigned long long>(e.bytes),
                    Mbps(e.bytes, now));
      out << line;
    }
    std::snprintf(line, sizeof(line),
                  "  table: %llu/%llu entries, tracked %llu, evicted %llu, "
                  "untracked %llu\n",
                  static_cast<unsigned long long>(talkers->size()),
                  static_cast<unsigned long long>(talkers->max_entries()),
                  static_cast<unsigned long long>(talkers->tracked()),
                  static_cast<unsigned long long>(talkers->evicted()),
                  static_cast<unsigned long long>(talkers->untracked()));
    out << line;
  }

  out << "queues (depth / high-water):\n";
  for (const auto& row : QueueRows(sim->metrics())) {
    std::snprintf(line, sizeof(line), "  %-20s %9lld %9lld\n",
                  row.name.c_str(), static_cast<long long>(row.depth),
                  static_cast<long long>(row.high_water));
    out << line;
  }

  out << "health:\n";
  std::istringstream health(k.watchdog().Render());
  for (std::string hline; std::getline(health, hline);) {
    out << "  " << hline << "\n";
  }
  std::snprintf(line, sizeof(line), "  alerts dropped: %llu\n",
                static_cast<unsigned long long>(k.watchdog().alerts_dropped()));
  out << line;
  return out.str();
}

std::string TopAlerts(const kernel::Kernel& k) {
  std::ostringstream out;
  char line[224];
  const telemetry::HealthWatchdog& dog = k.watchdog();
  out << "alerts (" << dog.alerts().size() << " kept, "
      << dog.alerts_dropped() << " dropped):\n";
  for (const telemetry::HealthAlert& a : dog.alerts()) {
    std::snprintf(line, sizeof(line), "  t=%-12lld %-10s %s->%s owner=%s  %s\n",
                  static_cast<long long>(a.t), a.component.c_str(),
                  telemetry::HealthStateName(a.from),
                  telemetry::HealthStateName(a.to), a.owner.c_str(),
                  a.reason.c_str());
    out << line;
  }
  return out.str();
}

std::string TopJson(const kernel::Kernel& k, const nic::SmartNic& nic,
                    size_t max_flows) {
  std::ostringstream out;
  auto& mutable_k = const_cast<kernel::Kernel&>(k);
  sim::Simulator* sim = mutable_k.simulator();
  const Nanos now = sim->Now();
  const nic::NicStats& ns = nic.stats();
  out << "{\"t\":" << now
      << ",\"samples\":" << k.sampler().samples_taken()
      << ",\"maintenance_ticks\":" << k.maintenance_ticks()
      << ",\"nic\":{\"tx_packets\":" << ns.tx_accepted()
      << ",\"tx_bytes_wire\":" << ns.tx_bytes_wire()
      << ",\"rx_packets\":" << ns.rx_accepted()
      << ",\"drops\":" << ns.total_drops() << "}"
      << ",\"processes\":[";
  bool first = true;
  for (const auto& [pid, b] : ByProcess(k)) {
    const kernel::Process* proc = k.processes().Lookup(pid);
    if (!first) out << ",";
    first = false;
    std::string comm;
    telemetry::AppendJsonString(comm, proc != nullptr ? proc->comm : "?");
    out << "{\"pid\":" << pid << ",\"comm\":" << comm << ",\"tx_packets\":"
        << b.tx_packets << ",\"rx_packets\":" << b.rx_packets
        << ",\"tx_bytes\":" << b.tx_bytes << ",\"rx_bytes\":" << b.rx_bytes
        << "}";
  }
  out << "],\"flows\":[";
  const nic::TopTalkers* talkers = mutable_k.nic_control().top_talkers();
  if (talkers != nullptr) {
    first = true;
    for (const auto& e : talkers->Top(max_flows)) {
      if (!first) out << ",";
      first = false;
      out << "{\"flow\":\"" << TupleLabel(e.tuple) << "\",\"pid\":"
          << e.owner_pid << ",\"packets\":" << e.packets << ",\"bytes\":"
          << e.bytes << ",\"first_seen\":" << e.first_seen
          << ",\"last_seen\":" << e.last_seen << "}";
    }
  }
  out << "],\"flow_table\":{";
  if (talkers != nullptr) {
    out << "\"entries\":" << talkers->size() << ",\"max_entries\":"
        << talkers->max_entries() << ",\"tracked\":" << talkers->tracked()
        << ",\"evicted\":" << talkers->evicted() << ",\"untracked\":"
        << talkers->untracked();
  }
  out << "},\"queues\":{";
  first = true;
  for (const auto& row : QueueRows(sim->metrics())) {
    if (!first) out << ",";
    first = false;
    out << "\"" << row.name << "\":{\"depth\":" << row.depth
        << ",\"high_water\":" << row.high_water << "}";
  }
  out << "},\"health\":" << k.watchdog().JsonReport() << "}";
  return out.str();
}

// ---- norman-prof --------------------------------------------------------------

namespace {

std::string ProfOwnerName(const kernel::Kernel& k, uint32_t pid) {
  if (pid == 0) {
    return "unowned";
  }
  if (pid == telemetry::Profiler::kOverflowPid) {
    return "overflow";
  }
  const kernel::Process* proc = k.processes().Lookup(pid);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "pid %u (%s)", pid,
                proc != nullptr ? proc->comm.c_str() : "?");
  return buf;
}

}  // namespace

std::string ProfByStage(const kernel::Kernel& k) {
  const telemetry::Profiler& prof =
      const_cast<kernel::Kernel&>(k).simulator()->profiler();
  std::ostringstream out;
  char line[200];
  if (!prof.enabled()) {
    out << "profiler: disabled (no attribution recorded)\n";
  }
  out << "cores (busy == attributed + unaccounted):\n";
  std::snprintf(line, sizeof(line), "  %-14s %-5s %14s %14s %14s\n", "core",
                "kind", "busy-ns", "attributed-ns", "unaccounted-ns");
  out << line;
  for (const auto& c : prof.CoreReports()) {
    std::snprintf(
        line, sizeof(line), "  %-14s %-5s %14llu %14llu %14llu\n",
        c.name.c_str(),
        c.kind == telemetry::Profiler::CoreKind::kNic ? "nic" : "host",
        static_cast<unsigned long long>(c.busy_ns),
        static_cast<unsigned long long>(c.attributed_ns),
        static_cast<unsigned long long>(c.unaccounted_ns));
    out << line;
  }
  out << "stages (attribution-context tree, per core):\n";
  std::snprintf(line, sizeof(line), "  %-44s %-14s %14s %10s\n", "stack",
                "core", "ns", "entries");
  out << line;
  for (const auto& s : prof.StackReports()) {
    std::snprintf(line, sizeof(line), "  %-44s %-14s %14llu %10llu\n",
                  s.stack.c_str(), s.core.empty() ? "-" : s.core.c_str(),
                  static_cast<unsigned long long>(s.ns),
                  static_cast<unsigned long long>(s.entries));
    out << line;
  }
  return out.str();
}

std::string ProfByOwner(const kernel::Kernel& k) {
  const telemetry::Profiler& prof =
      const_cast<kernel::Kernel&>(k).simulator()->profiler();
  std::ostringstream out;
  char line[200];
  if (!prof.enabled()) {
    out << "profiler: disabled (no attribution recorded)\n";
  }
  out << "owners (cycle & resource attribution):\n";
  std::snprintf(line, sizeof(line), "  %-24s %12s %12s %9s %12s %7s %8s\n",
                "owner", "nic-ns", "host-ns", "pkts", "bytes", "drops",
                "sram-B");
  out << line;
  for (const auto& o : prof.OwnerReports()) {
    std::snprintf(line, sizeof(line),
                  "  %-24s %12llu %12llu %9llu %12llu %7llu %8lld\n",
                  ProfOwnerName(k, o.pid).c_str(),
                  static_cast<unsigned long long>(o.nic_ns),
                  static_cast<unsigned long long>(o.host_ns),
                  static_cast<unsigned long long>(o.pkts),
                  static_cast<unsigned long long>(o.bytes),
                  static_cast<unsigned long long>(o.drops),
                  static_cast<long long>(o.sram_bytes));
    out << line;
  }
  return out.str();
}

std::string TopByPid(const kernel::Kernel& k) {
  std::ostringstream out;
  const Nanos now = const_cast<kernel::Kernel&>(k).simulator()->Now();
  out << "norman-top --by-pid (virtual time " << FormatNanos(now) << ")\n";
  out << ProfByOwner(k);
  return out.str();
}

std::string TopByCore(const kernel::Kernel& k, const nic::SmartNic& nic) {
  auto& mutable_k = const_cast<kernel::Kernel&>(k);
  sim::Simulator* sim = mutable_k.simulator();
  const telemetry::Profiler& prof = sim->profiler();
  std::ostringstream out;
  char line[200];
  out << "norman-top --by-core (virtual time " << FormatNanos(sim->Now())
      << ", " << nic.shard_queues() << " lanes)\n";
  if (!prof.enabled()) {
    out << "profiler: disabled (no attribution recorded)\n";
  }
  out << "cores (busy == attributed + unaccounted):\n";
  std::snprintf(line, sizeof(line), "  %-18s %-5s %14s %14s %14s\n", "core",
                "kind", "busy-ns", "attributed-ns", "unaccounted-ns");
  out << line;
  for (const auto& c : prof.CoreReports()) {
    std::snprintf(
        line, sizeof(line), "  %-18s %-5s %14llu %14llu %14llu\n",
        c.name.c_str(),
        c.kind == telemetry::Profiler::CoreKind::kNic ? "nic" : "host",
        static_cast<unsigned long long>(c.busy_ns),
        static_cast<unsigned long long>(c.attributed_ns),
        static_cast<unsigned long long>(c.unaccounted_ns));
    out << line;
  }
  out << "per-queue rings:\n";
  std::snprintf(line, sizeof(line), "  %-22s %10s %12s\n", "queue", "depth",
                "high-water");
  out << line;
  for (const auto& row : QueueRows(sim->metrics())) {
    // Only the lanes' ring pairs ("nic.{tx,rx}_ring.q<N>").
    if (row.name.find("_ring.q") == std::string::npos) {
      continue;
    }
    std::snprintf(line, sizeof(line), "  %-22s %10lld %12lld\n",
                  row.name.c_str(), static_cast<long long>(row.depth),
                  static_cast<long long>(row.high_water));
    out << line;
  }
  return out.str();
}

std::string TopByTenant(const kernel::Kernel& k, const nic::SmartNic& nic) {
  auto& mutable_k = const_cast<kernel::Kernel&>(k);
  sim::Simulator* sim = mutable_k.simulator();
  const telemetry::Profiler& prof = sim->profiler();
  const nic::TenantTable& tenants = nic.tenants();
  std::ostringstream out;
  char line[200];
  out << "norman-top --by-tenant (virtual time " << FormatNanos(sim->Now())
      << ", " << tenants.size() << " tenants, isolation "
      << (tenants.enabled() ? "on" : "off") << ")\n";
  out << "tenants (WFQ cycle shares & quotas):\n";
  std::snprintf(line, sizeof(line),
                "  %-8s %7s %10s %14s %14s %7s %7s %10s\n", "tenant",
                "weight", "pkts", "cycles-ns", "throttled-ns", "drops",
                "denied", "sram-B");
  out << line;
  for (const auto& s : tenants.Reports()) {
    std::snprintf(line, sizeof(line),
                  "  %-8u %7llu %10llu %14llu %14llu %7llu %7llu %10lld\n",
                  s.tenant, static_cast<unsigned long long>(s.weight),
                  static_cast<unsigned long long>(s.pkts),
                  static_cast<unsigned long long>(s.cycles_ns),
                  static_cast<unsigned long long>(s.throttled_ns),
                  static_cast<unsigned long long>(s.drops),
                  static_cast<unsigned long long>(s.denied),
                  static_cast<long long>(s.sram_bytes));
    out << line;
  }
  // The profiler's owner ledger, with each pid resolved to its owning
  // tenant (pid -> uid -> tenant; unregistered uids read as tenant 0).
  if (!prof.enabled()) {
    out << "profiler: disabled (no attribution recorded)\n";
  }
  out << "owners by tenant (cycle & resource attribution):\n";
  std::snprintf(line, sizeof(line), "  %-8s %-20s %12s %12s %9s %12s %7s\n",
                "tenant", "owner", "nic-ns", "host-ns", "pkts", "bytes",
                "drops");
  out << line;
  for (const auto& o : prof.OwnerReports()) {
    const kernel::Process* p = k.processes().Lookup(o.pid);
    const kernel::TenantId tenant =
        p == nullptr ? kernel::kSystemTenant : k.TenantOf(p->uid);
    std::snprintf(line, sizeof(line),
                  "  %-8u %-20s %12llu %12llu %9llu %12llu %7llu\n", tenant,
                  ProfOwnerName(k, o.pid).c_str(),
                  static_cast<unsigned long long>(o.nic_ns),
                  static_cast<unsigned long long>(o.host_ns),
                  static_cast<unsigned long long>(o.pkts),
                  static_cast<unsigned long long>(o.bytes),
                  static_cast<unsigned long long>(o.drops));
    out << line;
  }
  return out.str();
}

// ---- netstat ------------------------------------------------------------------

std::string Netstat(const kernel::Kernel& k) {
  std::ostringstream out;
  out << "Proto Local Address          Foreign Address        TX-pkts RX-pkts"
         "  PID/Program (User)\n";
  for (const auto& c : k.ListConnections()) {
    char local[32], foreign[32];
    std::snprintf(local, sizeof(local), "%s:%u",
                  c.tuple.src_ip.ToString().c_str(), c.tuple.src_port);
    std::snprintf(foreign, sizeof(foreign), "%s:%u",
                  c.tuple.dst_ip.ToString().c_str(), c.tuple.dst_port);
    char line[256];
    std::snprintf(line, sizeof(line), "%-5s %-22s %-22s %7llu %7llu  %u/%s (%s)%s\n",
                  ProtoName(c.tuple.proto).c_str(), local, foreign,
                  static_cast<unsigned long long>(c.tx_packets),
                  static_cast<unsigned long long>(c.rx_packets), c.pid,
                  c.comm.c_str(), k.processes().UserName(c.uid).c_str(),
                  c.software_fallback ? " [sw-fallback]" : "");
    out << line;
  }
  return out.str();
}

// ---- arp ----------------------------------------------------------------------

std::string ArpShow(const kernel::Kernel& k) {
  std::ostringstream out;
  out << "ARP cache:\n";
  for (const auto& [ip, entry] : k.arp().cache()) {
    out << "  " << entry.ip.ToString() << " is-at " << entry.mac.ToString()
        << " (updated " << FormatNanos(entry.updated) << ")\n";
  }
  const auto& observations = k.arp().tx_observations();
  out << "Application-originated ARP (" << observations.size()
      << " frames):\n";
  // Aggregate by pid for the debugging workflow.
  std::map<uint32_t, uint64_t> by_pid;
  for (const auto& obs : observations) {
    ++by_pid[obs.owner.owner_pid];
  }
  for (const auto& [pid, count] : by_pid) {
    const auto* proc = k.processes().Lookup(pid);
    out << "  pid " << pid << " (" << (proc != nullptr ? proc->comm : "?")
        << "/" << (proc != nullptr ? k.processes().UserName(proc->uid) : "?")
        << "): " << count << " ARP frames\n";
  }
  return out.str();
}

bool ParseDecimal(std::string_view text, uint64_t max, uint64_t* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace norman::tools
