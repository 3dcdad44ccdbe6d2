// Differential property test: the overlay-compiled filter chain must agree
// with an independent reference implementation of iptables first-match
// semantics, over thousands of randomized (ruleset, packet) pairs, with
// random inserts, deletes and default-policy changes between packets.
//
// This is the compiler's correctness argument: CompileFilterChain and the
// decoded programs the engine runs on one side; a direct, obviously-correct
// C++ matcher on the other. Any divergence in match semantics (prefix
// arithmetic, port ranges, owner fields, direction, first-match ordering,
// default policy) fails here with the full rule and packet dump, and so
// does a compiled program left stale by a rule change. Every packet's
// instruction count is also pinned to the reference interpreter's
// (overlay::Execute) on the ISA program the engine exposes.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "src/common/rng.h"
#include "src/dataplane/filter_engine.h"
#include "src/overlay/interpreter.h"
#include "tests/test_util.h"

namespace norman::dataplane {
namespace {

using net::Direction;
using net::IpProto;
using net::Ipv4Address;

// ---- Reference matcher (deliberately naive) ----

bool RefMatches(const FilterRule& r, const overlay::PacketContext& ctx) {
  const net::ParsedPacket* p = ctx.parsed;
  if (r.direction && *r.direction != ctx.direction) {
    return false;
  }
  if (r.proto) {
    if (p == nullptr || !p->is_ipv4() || p->ipv4->protocol != *r.proto) {
      return false;
    }
  }
  auto prefix_match = [](Ipv4Address have, Ipv4Address want,
                         uint32_t prefix) {
    if (prefix == 0) {
      return true;
    }
    const uint32_t shift = 32 - prefix;
    return (have.addr >> shift) == (want.addr >> shift);
  };
  if (r.src_ip) {
    if (p == nullptr || !p->is_ipv4() ||
        !prefix_match(p->ipv4->src, *r.src_ip, r.src_ip_prefix.value_or(32))) {
      return false;
    }
  }
  if (r.dst_ip) {
    if (p == nullptr || !p->is_ipv4() ||
        !prefix_match(p->ipv4->dst, *r.dst_ip, r.dst_ip_prefix.value_or(32))) {
      return false;
    }
  }
  auto port_of = [&](bool src) -> std::optional<uint16_t> {
    if (p == nullptr) {
      return std::nullopt;
    }
    if (p->is_udp()) {
      return src ? p->udp->src_port : p->udp->dst_port;
    }
    if (p->is_tcp()) {
      return src ? p->tcp->src_port : p->tcp->dst_port;
    }
    return std::nullopt;
  };
  if (r.src_port) {
    const auto port = port_of(true);
    // Overlay semantics: missing fields read 0, so a port rule matches a
    // portless packet only if 0 is inside the range.
    const uint16_t value = port.value_or(0);
    if (value < r.src_port->lo || value > r.src_port->hi) {
      return false;
    }
  }
  if (r.dst_port) {
    const auto port = port_of(false);
    const uint16_t value = port.value_or(0);
    if (value < r.dst_port->lo || value > r.dst_port->hi) {
      return false;
    }
  }
  if (r.owner_uid && ctx.conn.owner_uid != *r.owner_uid) {
    return false;
  }
  if (r.owner_pid && ctx.conn.owner_pid != *r.owner_pid) {
    return false;
  }
  if (r.owner_comm && ctx.conn.owner_comm != *r.owner_comm) {
    return false;
  }
  if (r.owner_cgroup && ctx.conn.owner_cgroup != *r.owner_cgroup) {
    return false;
  }
  return true;
}

FilterAction RefEvaluate(const std::vector<FilterRule>& rules,
                         FilterAction default_action,
                         const overlay::PacketContext& ctx) {
  for (const auto& r : rules) {
    if (RefMatches(r, ctx)) {
      return r.action;
    }
  }
  return default_action;
}

// ---- Random generators ----

FilterRule RandomRule(Rng& rng) {
  FilterRule r;
  if (rng.NextBool(0.3)) {
    r.direction = rng.NextBool(0.5) ? Direction::kTx : Direction::kRx;
  }
  if (rng.NextBool(0.4)) {
    r.proto = rng.NextBool(0.5) ? IpProto::kUdp : IpProto::kTcp;
  }
  if (rng.NextBool(0.3)) {
    r.src_ip = Ipv4Address::FromOctets(10, 0, 0,
                                       static_cast<uint8_t>(rng.NextBounded(4)));
    r.src_ip_prefix = static_cast<uint32_t>(rng.NextInRange(0, 32));
  }
  if (rng.NextBool(0.3)) {
    r.dst_ip = Ipv4Address::FromOctets(10, 0, 0,
                                       static_cast<uint8_t>(rng.NextBounded(4)));
    r.dst_ip_prefix = static_cast<uint32_t>(rng.NextInRange(0, 32));
  }
  if (rng.NextBool(0.4)) {
    const auto lo = static_cast<uint16_t>(rng.NextBounded(100));
    const auto hi = static_cast<uint16_t>(lo + rng.NextBounded(5));
    r.dst_port = PortRange{lo, hi};
  }
  if (rng.NextBool(0.2)) {
    const auto lo = static_cast<uint16_t>(rng.NextBounded(100));
    r.src_port = PortRange{lo, static_cast<uint16_t>(lo + rng.NextBounded(3))};
  }
  if (rng.NextBool(0.3)) {
    r.owner_uid = 1000 + static_cast<uint32_t>(rng.NextBounded(3));
  }
  if (rng.NextBool(0.2)) {
    r.owner_pid = 100 + static_cast<uint32_t>(rng.NextBounded(3));
  }
  if (rng.NextBool(0.2)) {
    r.owner_comm = static_cast<uint32_t>(rng.NextBounded(4));
  }
  if (rng.NextBool(0.2)) {
    r.owner_cgroup = static_cast<uint32_t>(rng.NextBounded(3) + 1);
  }
  const auto action = rng.NextBounded(3);
  r.action = static_cast<FilterAction>(action);
  return r;
}

std::unique_ptr<test::ContextBundle> RandomPacket(Rng& rng) {
  // Small value domains so rules and packets actually collide.
  const auto src_port = static_cast<uint16_t>(rng.NextBounded(100));
  const auto dst_port = static_cast<uint16_t>(rng.NextBounded(100));
  const auto dir = rng.NextBool(0.5) ? Direction::kTx : Direction::kRx;
  overlay::ConnMetadata owner;
  owner.conn_id = 1;
  owner.owner_uid = 1000 + static_cast<uint32_t>(rng.NextBounded(3));
  owner.owner_pid = 100 + static_cast<uint32_t>(rng.NextBounded(3));
  owner.owner_comm = static_cast<uint32_t>(rng.NextBounded(4));
  owner.owner_cgroup = static_cast<uint32_t>(rng.NextBounded(3) + 1);
  if (rng.NextBool(0.5)) {
    return test::MakeUdpContext(src_port, dst_port, dir, owner,
                                rng.NextBounded(64));
  }
  return test::MakeTcpContext(src_port, dst_port, net::TcpFlags::kAck, dir,
                              owner, rng.NextBounded(64));
}

std::string DumpRule(const FilterRule& r, size_t index) {
  std::ostringstream out;
  out << "rule[" << index << "]:";
  if (r.direction) {
    out << " dir=" << (*r.direction == Direction::kRx ? "rx" : "tx");
  }
  if (r.proto) {
    out << " proto=" << static_cast<int>(*r.proto);
  }
  if (r.src_ip) {
    out << " src=" << r.src_ip->ToString() << "/" << *r.src_ip_prefix;
  }
  if (r.dst_ip) {
    out << " dst=" << r.dst_ip->ToString() << "/" << *r.dst_ip_prefix;
  }
  if (r.src_port) {
    out << " sport=" << r.src_port->lo << "-" << r.src_port->hi;
  }
  if (r.dst_port) {
    out << " dport=" << r.dst_port->lo << "-" << r.dst_port->hi;
  }
  if (r.owner_uid) {
    out << " uid=" << *r.owner_uid;
  }
  if (r.owner_pid) {
    out << " pid=" << *r.owner_pid;
  }
  if (r.owner_comm) {
    out << " comm=" << *r.owner_comm;
  }
  if (r.owner_cgroup) {
    out << " cgroup=" << *r.owner_cgroup;
  }
  out << " -> " << static_cast<int>(r.action);
  return out.str();
}

// Applies one random rule-set change to both the engine and the reference
// list, so a program left stale by the change diverges on the next packet.
void MutateBoth(Rng& rng, FilterEngine& engine,
                std::vector<FilterRule>& rules) {
  switch (rng.NextBounded(3)) {
    case 0: {
      const size_t at = rng.NextBounded(rules.size() + 1);
      const FilterRule r = RandomRule(rng);
      const Status s = engine.InsertRule(at, r);
      if (s.ok()) {
        rules.insert(rules.begin() + static_cast<ptrdiff_t>(at), r);
      } else {
        ASSERT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
      }
      break;
    }
    case 1:
      if (!rules.empty()) {
        const size_t at = rng.NextBounded(rules.size());
        ASSERT_TRUE(engine.DeleteRule(at).ok());
        rules.erase(rules.begin() + static_cast<ptrdiff_t>(at));
      }
      break;
    default:
      engine.SetDefaultAction(static_cast<FilterAction>(rng.NextBounded(3)));
      break;
  }
}

nic::Verdict VerdictOf(FilterAction action) {
  switch (action) {
    case FilterAction::kAccept:
      return nic::Verdict::kAccept;
    case FilterAction::kDrop:
      return nic::Verdict::kDrop;
    case FilterAction::kSoftwareFallback:
      return nic::Verdict::kSoftwareFallback;
  }
  return nic::Verdict::kAccept;
}

class FilterDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterDifferentialTest, CompiledChainAgreesWithReference) {
  Rng rng(GetParam());
  for (int world = 0; world < 40; ++world) {
    const size_t num_rules = rng.NextBounded(12);
    FilterEngine engine(rng.NextBool(0.5) ? FilterAction::kAccept
                                          : FilterAction::kDrop);
    std::vector<FilterRule> rules;
    for (size_t i = 0; i < num_rules; ++i) {
      const FilterRule r = RandomRule(rng);
      auto added = engine.AppendRule(r);
      ASSERT_TRUE(added.ok()) << added.status();
      rules.push_back(r);
    }
    for (int trial = 0; trial < 40; ++trial) {
      if (rng.NextBool(0.25)) {
        ASSERT_NO_FATAL_FAILURE(MutateBoth(rng, engine, rules));
      }
      auto pkt = RandomPacket(rng);
      const FilterAction expected =
          RefEvaluate(rules, engine.default_action(), pkt->ctx);
      const nic::StageResult result = engine.Process(pkt->packet, pkt->ctx);
      if (result.verdict != VerdictOf(expected)) {
        std::ostringstream dump;
        for (size_t i = 0; i < rules.size(); ++i) {
          dump << DumpRule(rules[i], i) << "\n";
        }
        dump << "default=" << static_cast<int>(engine.default_action())
             << "\npacket: " << (pkt->parsed.is_udp() ? "udp" : "tcp")
             << " dir=" << (pkt->ctx.direction == Direction::kRx ? "rx" : "tx")
             << " flow=" << pkt->parsed.flow()->ToString()
             << " uid=" << pkt->ctx.conn.owner_uid
             << " pid=" << pkt->ctx.conn.owner_pid
             << " comm=" << pkt->ctx.conn.owner_comm
             << " cgroup=" << pkt->ctx.conn.owner_cgroup;
        FAIL() << "divergence (world " << world << " trial " << trial
               << "):\n"
               << dump.str();
      }
      // The instruction count sets the virtual time the NIC charges: it
      // must be the reference interpreter's count on the bucket the engine
      // ran.
      const auto reference = overlay::Execute(
          engine.compiled_for(pkt->parsed.ipv4->protocol), pkt->ctx);
      ASSERT_TRUE(reference.ok()) << reference.status();
      ASSERT_EQ(result.overlay_instructions, reference->instructions_executed)
          << "world " << world << " trial " << trial;
      // ARP and unparsed frames run the full chain: the verdict against
      // the reference matcher (address rules match IPv4 only), verdict and
      // count against the reference interpreter on compiled().
      for (const auto& other :
           {test::MakeArpContext(pkt->ctx.direction, pkt->ctx.conn),
            test::MakeUnparsedContext(std::vector<uint8_t>(40, 0xab),
                                      pkt->ctx.direction, pkt->ctx.conn)}) {
        const nic::StageResult r = engine.Process(other->packet, other->ctx);
        ASSERT_EQ(r.verdict, VerdictOf(RefEvaluate(
                                 rules, engine.default_action(), other->ctx)))
            << "world " << world << " trial " << trial << " "
            << (other->ctx.parsed != nullptr ? "arp" : "unparsed");
        const auto ref = overlay::Execute(engine.compiled(), other->ctx);
        ASSERT_TRUE(ref.ok()) << ref.status();
        ASSERT_EQ(r.verdict,
                  VerdictOf(static_cast<FilterAction>(ref->verdict & 0x3)));
        ASSERT_EQ(r.overlay_instructions, ref->instructions_executed)
            << "world " << world << " trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace norman::dataplane
