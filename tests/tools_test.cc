// Tests for the administrative tools: iptables/tc spec parsing, tcpdump
// rendering with process annotations, netstat, arp.
#include "src/tools/tools.h"

#include <gtest/gtest.h>

#include "src/norman/socket.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

namespace norman::tools {
namespace {

using kernel::Chain;
using kernel::kRootUid;

class ToolsTest : public ::testing::Test {
 protected:
  ToolsTest() {
    bed_.kernel().processes().AddUser(1001, "bob");
    bed_.kernel().processes().AddUser(1002, "charlie");
    bob_pg_ = *bed_.kernel().processes().Spawn(1001, "postgres");
    charlie_my_ = *bed_.kernel().processes().Spawn(1002, "mysql");
  }

  workload::TestBed bed_;
  kernel::Pid bob_pg_ = 0;
  kernel::Pid charlie_my_ = 0;
};

TEST_F(ToolsTest, IptablesAppendParsesOwnerRules) {
  auto idx = IptablesAppend(
      &bed_.kernel(), kRootUid,
      "-A OUTPUT -p tcp --dport 5432 -m owner --uid-owner 1001 "
      "--cmd-owner postgres -j ACCEPT");
  ASSERT_TRUE(idx.ok()) << idx.status();
  auto idx2 = IptablesAppend(&bed_.kernel(), kRootUid,
                             "-A OUTPUT -p tcp --dport 5432 -j DROP");
  ASSERT_TRUE(idx2.ok());

  const auto& rules = bed_.kernel().filter(Chain::kOutput).rules();
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].proto, net::IpProto::kTcp);
  EXPECT_EQ(rules[0].dst_port->lo, 5432);
  EXPECT_EQ(rules[0].owner_uid, 1001u);
  EXPECT_TRUE(rules[0].owner_comm.has_value());
  EXPECT_EQ(rules[1].action, dataplane::FilterAction::kDrop);
}

TEST_F(ToolsTest, IptablesRejectsGarbage) {
  EXPECT_FALSE(IptablesAppend(&bed_.kernel(), kRootUid, "frobnicate").ok());
  EXPECT_FALSE(IptablesAppend(&bed_.kernel(), kRootUid, "-A SIDEWAYS -j DROP").ok());
  EXPECT_FALSE(IptablesAppend(&bed_.kernel(), kRootUid, "-A OUTPUT").ok());
  EXPECT_FALSE(
      IptablesAppend(&bed_.kernel(), kRootUid, "-A OUTPUT -j EXPLODE").ok());
  EXPECT_FALSE(IptablesAppend(&bed_.kernel(), kRootUid,
                              "-A OUTPUT -s 999.1.2.3 -j DROP")
                   .ok());
  EXPECT_FALSE(IptablesAppend(&bed_.kernel(), kRootUid,
                              "-A OUTPUT --dport 70000 -j DROP")
                   .ok());
  // Malformed numbers fail with a Status: no throw, no truncation, no
  // trailing bytes.
  for (const char* spec : {
           "-A OUTPUT --uid-owner x -j DROP",
           "-A OUTPUT --pid-owner x -j DROP",
           "-A OUTPUT --cgroup x -j DROP",
           "-A OUTPUT --uid-owner 4294967297 -j DROP",
           "-A OUTPUT --uid-owner 1001x -j DROP",
           "-A OUTPUT --dport 80abc -j DROP",
           "-A OUTPUT --sport 80: -j DROP",
           "-A OUTPUT -s 10.0.0.1junk -j DROP",
           "-A OUTPUT -d 10.0.0.0/33 -j DROP",
       }) {
    EXPECT_EQ(IptablesAppend(&bed_.kernel(), kRootUid, spec).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
  EXPECT_TRUE(bed_.kernel().filter(Chain::kOutput).rules().empty());
}

TEST_F(ToolsTest, IptablesRequiresRoot) {
  EXPECT_EQ(IptablesAppend(&bed_.kernel(), 1001, "-A OUTPUT -j DROP")
                .status()
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(ToolsTest, IptablesListShowsRulesAndCounters) {
  ASSERT_TRUE(IptablesAppend(&bed_.kernel(), kRootUid,
                             "-A OUTPUT -p udp --dport 53 -j DROP")
                  .ok());
  auto sock = Socket::Connect(&bed_.kernel(), bob_pg_,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2), 53,
                              {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("blocked dns").ok());
  bed_.sim().Run();

  const std::string listing = IptablesList(bed_.kernel());
  EXPECT_NE(listing.find("Chain OUTPUT"), std::string::npos);
  EXPECT_NE(listing.find("DROP -p udp --dport 53:53"), std::string::npos);
  EXPECT_NE(listing.find("[1 hits]"), std::string::npos);
}

TEST_F(ToolsTest, IptablesDeleteAndFlush) {
  ASSERT_TRUE(
      IptablesAppend(&bed_.kernel(), kRootUid, "-A INPUT -j DROP").ok());
  ASSERT_TRUE(IptablesDelete(&bed_.kernel(), kRootUid, Chain::kInput, 0).ok());
  EXPECT_TRUE(bed_.kernel().filter(Chain::kInput).rules().empty());
  ASSERT_TRUE(
      IptablesAppend(&bed_.kernel(), kRootUid, "-A INPUT -j DROP").ok());
  ASSERT_TRUE(IptablesFlush(&bed_.kernel(), kRootUid, Chain::kInput).ok());
  EXPECT_TRUE(bed_.kernel().filter(Chain::kInput).rules().empty());
}

TEST_F(ToolsTest, TcInstallsEachQdiscKind) {
  EXPECT_TRUE(TcReplace(&bed_.kernel(), kRootUid,
                        "qdisc replace dev nic0 root fifo")
                  .ok());
  EXPECT_TRUE(TcReplace(&bed_.kernel(), kRootUid,
                        "qdisc replace dev nic0 root prio bands 3")
                  .ok());
  EXPECT_TRUE(TcReplace(&bed_.kernel(), kRootUid,
                        "qdisc replace dev nic0 root tbf rate 100mbit "
                        "burst 32kb")
                  .ok());
  EXPECT_TRUE(TcReplace(&bed_.kernel(), kRootUid,
                        "qdisc replace dev nic0 root drr quantum 1514")
                  .ok());
  EXPECT_TRUE(TcReplace(&bed_.kernel(), kRootUid,
                        "qdisc replace dev nic0 root wfq uid 1001:8 "
                        "uid 1002:1")
                  .ok());
  const std::string shown = TcShow(bed_.kernel());
  EXPECT_NE(shown.find("qdisc wfq"), std::string::npos);
}

TEST_F(ToolsTest, TcRejectsBadSpecs) {
  EXPECT_FALSE(TcReplace(&bed_.kernel(), kRootUid, "qdisc add root fifo").ok());
  EXPECT_FALSE(TcReplace(&bed_.kernel(), kRootUid,
                         "qdisc replace dev nic0 root htb")
                   .ok());
  EXPECT_FALSE(TcReplace(&bed_.kernel(), kRootUid,
                         "qdisc replace dev nic0 root tbf burst 32kb")
                   .ok());  // no rate
  EXPECT_FALSE(TcReplace(&bed_.kernel(), kRootUid,
                         "qdisc replace dev nic0 root wfq uid bogus")
                   .ok());
  // Malformed numbers fail with a Status and leave the qdisc in place.
  const nic::Scheduler* installed = bed_.kernel().nic_control().scheduler();
  for (const char* args : {
           "prio bands x",
           "prio bands 0",
           "prio bands 17",
           "prio bands 4294967299",
           "drr quantum x",
           "drr quantum 1k",
           "drr quantum 0",
           "wfq uid 1001:nan",
           "wfq uid 1001:inf",
           "wfq uid 1001:2x",
           "wfq uid 4294967297:1",
           "tbf rate 1e400mbit",
           "tbf rate nanmbit",
           "tbf rate 1e30gbit",
           "tbf rate 0.5bit",
           "tbf rate 1mbit burst infkb",
           "fifo junk",
           "prio bands",
           "drr quantum",
           "tbf rate 1mbit burst",
           "wfq uid 1001:8 uid",
       }) {
    EXPECT_EQ(TcReplace(&bed_.kernel(), kRootUid,
                        std::string("qdisc replace dev nic0 root ") + args)
                  .code(),
              StatusCode::kInvalidArgument)
        << args;
    EXPECT_EQ(bed_.kernel().nic_control().scheduler(), installed) << args;
  }
  EXPECT_EQ(TcReplace(&bed_.kernel(), 1002,
                      "qdisc replace dev nic0 root fifo")
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(ToolsTest, TbfShapesTraffic) {
  // 80 Mbit/s shaping on a 100G link: egress should take ~bytes*8/80M.
  ASSERT_TRUE(TcReplace(&bed_.kernel(), kRootUid,
                        "qdisc replace dev nic0 root tbf rate 80mbit "
                        "burst 2kb")
                  .ok());
  auto sock = Socket::Connect(&bed_.kernel(), bob_pg_,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              7000, {});
  ASSERT_TRUE(sock.ok());
  workload::BulkSender sender(&bed_.sim(), &*sock, 1000, 10 * kMicrosecond);
  sender.Start(0, 5 * kMillisecond);
  bed_.sim().Run();
  ASSERT_GT(bed_.egress_frames(), 10u);
  const Nanos span = bed_.egress().back()->meta().completed_at;
  const double achieved = AchievedBps(bed_.egress_bytes(), span);
  EXPECT_LT(achieved, 95e6);   // shaped under the 80mbit rate (+burst slack)
  EXPECT_GT(achieved, 40e6);   // but not starved
}

TEST_F(ToolsTest, TcpdumpRendersProcessAnnotations) {
  ASSERT_TRUE(TcpdumpStart(&bed_.kernel(), kRootUid).ok());
  auto sock = Socket::Connect(&bed_.kernel(), bob_pg_,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              5432, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("select 1").ok());
  bed_.sim().Run();
  ASSERT_TRUE(TcpdumpStop(&bed_.kernel(), kRootUid).ok());

  const std::string dump = TcpdumpRender(bed_.kernel());
  EXPECT_NE(dump.find("postgres/bob"), std::string::npos);
  EXPECT_NE(dump.find(":5432"), std::string::npos);
  EXPECT_NE(dump.find("udp"), std::string::npos);
}

TEST_F(ToolsTest, TcpdumpOverlayFilterExpression) {
  // Capture only ARP, expressed as overlay assembly.
  ASSERT_TRUE(TcpdumpStart(&bed_.kernel(), kRootUid,
                           "ldf r1, is_arp\nret r1")
                  .ok());
  auto sock = Socket::Connect(&bed_.kernel(), bob_pg_,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              5432, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("not arp").ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.kernel().sniffer().captured(), 0u);

  EXPECT_FALSE(TcpdumpStart(&bed_.kernel(), kRootUid, "bogus asm").ok());
}

TEST_F(ToolsTest, TcpdumpWritesPcapFile) {
  ASSERT_TRUE(TcpdumpStart(&bed_.kernel(), kRootUid).ok());
  auto sock = Socket::Connect(&bed_.kernel(), bob_pg_,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              5432, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("captured").ok());
  bed_.sim().Run();
  const std::string path = ::testing::TempDir() + "/tools_test.pcap";
  ASSERT_TRUE(TcpdumpWritePcap(bed_.kernel(), path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
}

TEST_F(ToolsTest, NetstatShowsOwners) {
  auto s1 = Socket::Connect(&bed_.kernel(), bob_pg_,
                            net::Ipv4Address::FromOctets(10, 0, 0, 2), 5432,
                            {});
  auto s2 = Socket::Connect(&bed_.kernel(), charlie_my_,
                            net::Ipv4Address::FromOctets(10, 0, 0, 2), 3306,
                            {});
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_TRUE(s1->Send("a").ok());
  bed_.sim().Run();

  const std::string out = Netstat(bed_.kernel());
  EXPECT_NE(out.find("postgres (bob)"), std::string::npos);
  EXPECT_NE(out.find("mysql (charlie)"), std::string::npos);
  EXPECT_NE(out.find(":5432"), std::string::npos);
  EXPECT_NE(out.find(":3306"), std::string::npos);
}

TEST_F(ToolsTest, ArpShowAggregatesTxObservationsByPid) {
  // The buggy app floods ARP through its bypass connection.
  auto sock = Socket::Connect(&bed_.kernel(), charlie_my_,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              9999, {});
  ASSERT_TRUE(sock.ok());
  workload::ArpFlooder flooder(&bed_.sim(), &*sock,
                               net::MacAddress::ForHost(0xbad),
                               net::Ipv4Address::FromOctets(10, 0, 0, 66),
                               50 * kMicrosecond);
  flooder.Start(0, 2 * kMillisecond);
  bed_.sim().Run();
  ASSERT_GT(flooder.sent(), 10u);

  const std::string out = ArpShow(bed_.kernel());
  EXPECT_NE(out.find("pid " + std::to_string(charlie_my_)), std::string::npos);
  EXPECT_NE(out.find("mysql/charlie"), std::string::npos);
}

TEST_F(ToolsTest, TcRateLimitSpecParses) {
  auto sock = Socket::Connect(&bed_.kernel(), bob_pg_,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              7100, {});
  ASSERT_TRUE(sock.ok());
  const std::string spec = "conn " + std::to_string(sock->conn_id()) +
                           " rate 100mbit burst 16kb";
  EXPECT_TRUE(TcRateLimit(&bed_.kernel(), kRootUid, spec).ok());
  // Clear.
  EXPECT_TRUE(TcRateLimit(&bed_.kernel(), kRootUid,
                          "conn " + std::to_string(sock->conn_id()) +
                              " rate 0")
                  .ok());
  // Errors.
  EXPECT_FALSE(TcRateLimit(&bed_.kernel(), kRootUid, "bogus").ok());
  const nic::Scheduler* installed = bed_.kernel().nic_control().scheduler();
  const std::string conn = "conn " + std::to_string(sock->conn_id());
  for (const std::string& bad :
       {std::string("conn x rate 1mbit"),
        std::string("conn 4294967297 rate 1mbit"), conn + " rate 1e400mbit",
        conn + " rate 1mbit burst nankb", conn + " rate 1mbit burst",
        conn + " rate 1mbit junk 2kb"}) {
    EXPECT_EQ(TcRateLimit(&bed_.kernel(), kRootUid, bad).code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(bed_.kernel().nic_control().scheduler(), installed) << bad;
  }
  EXPECT_FALSE(
      TcRateLimit(&bed_.kernel(), kRootUid, "conn 9999 rate 1mbit").ok());
  EXPECT_EQ(TcRateLimit(&bed_.kernel(), 1001,
                        "conn " + std::to_string(sock->conn_id()) +
                            " rate 1mbit")
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(ToolsTest, TcRateLimitActuallyShapes) {
  auto sock = Socket::Connect(&bed_.kernel(), bob_pg_,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              7200, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(TcRateLimit(&bed_.kernel(), kRootUid,
                          "conn " + std::to_string(sock->conn_id()) +
                              " rate 40mbit burst 2kb")
                  .ok());
  constexpr Nanos kRunFor = 10 * kMillisecond;
  workload::BulkSender sender(&bed_.sim(), &*sock, 1200, 10 * kMicrosecond);
  sender.Start(0, kRunFor);
  bed_.sim().RunUntil(kRunFor);
  const double bps = AchievedBps(bed_.egress_bytes(), kRunFor);
  EXPECT_LT(bps, 55e6);
  EXPECT_GT(bps, 20e6);
}

TEST_F(ToolsTest, NicStatRendersCountersAndUtilization) {
  auto sock = Socket::Connect(&bed_.kernel(), bob_pg_,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              7300, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("counted").ok());
  bed_.sim().Run();
  const std::string out = NicStat(bed_.kernel(), bed_.nic());
  EXPECT_NE(out.find("tx: seen 1"), std::string::npos);
  EXPECT_NE(out.find("ddio:"), std::string::npos);
  EXPECT_NE(out.find("sram:"), std::string::npos);
  EXPECT_NE(out.find("flow_table"), std::string::npos);
  EXPECT_NE(out.find("utilization:"), std::string::npos);
}

// A process name is arbitrary text: the JSON view escapes it, so a quote
// or backslash in it cannot break the document.
TEST_F(ToolsTest, TopJsonEscapesProcessName) {
  const auto pid = bed_.kernel().processes().Spawn(1001, "a\"b\\c");
  ASSERT_TRUE(pid.ok());
  auto sock = Socket::Connect(&bed_.kernel(), *pid,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              7400, {});
  ASSERT_TRUE(sock.ok());
  const std::string json = TopJson(bed_.kernel(), bed_.nic());
  EXPECT_NE(json.find(R"("comm":"a\"b\\c")"), std::string::npos) << json;
}

}  // namespace
}  // namespace norman::tools
