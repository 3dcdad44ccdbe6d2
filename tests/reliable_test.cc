// ReliableChannel tests over the two-host duplex network with fault
// injection: loss, reordering jitter, duplication via lost ACKs — the
// channel must deliver every message exactly once, in order.
#include "src/norman/reliable.h"

#include <gtest/gtest.h>

#include "src/norman/listener.h"
#include "src/workload/duplex.h"

namespace norman {
namespace {

struct Endpoints {
  Socket client;
  Socket server;
};

// Runs `profile` on both directions of the duplex wire.
void SetWireProfile(workload::DuplexTestBed& bed,
                    const sim::FaultProfile& profile) {
  bed.fault().SetProfile(workload::DuplexTestBed::kLinkAtoB, profile);
  bed.fault().SetProfile(workload::DuplexTestBed::kLinkBtoA, profile);
}

class ReliableTest : public ::testing::Test {
 protected:
  // Builds a duplex world whose wire runs `profile` from the start, and a
  // connected client/server socket pair with RX notifications enabled.
  void BuildWorld(const sim::FaultProfile& profile, uint64_t seed = 0x5eed) {
    workload::DuplexOptions opts;
    opts.fault_seed = seed;
    bed_ = std::make_unique<workload::DuplexTestBed>(opts);
    SetWireProfile(*bed_, profile);
    bed_->a().kernel->processes().AddUser(1, "a");
    bed_->b().kernel->processes().AddUser(2, "b");
    const auto pid_a = *bed_->a().kernel->processes().Spawn(1, "client");
    const auto pid_b = *bed_->b().kernel->processes().Spawn(2, "server");

    kernel::ConnectOptions copts;
    copts.notify_rx = true;
    auto listener = Listener::Create(bed_->b().kernel.get(), pid_b, 4500,
                                     net::IpProto::kUdp, copts);
    ASSERT_TRUE(listener.ok()) << listener.status();
    listener_ = std::make_unique<Listener>(std::move(listener).value());
    auto client =
        Socket::Connect(bed_->a().kernel.get(), pid_a, bed_->ip_b(), 4500,
                        copts);
    ASSERT_TRUE(client.ok());
    // Fire one raw datagram to trigger the server-side accept, then drain
    // it before the channels start (it is not a channel frame).
    ASSERT_TRUE(client->Send(std::vector<uint8_t>{0xff, 0, 0, 0, 0}).ok());
    bed_->sim().Run();
    auto server = listener_->Accept();
    ASSERT_TRUE(server.ok()) << server.status();
    while (server->RecvFrame() != nullptr) {
    }
    endpoints_ = std::make_unique<Endpoints>(
        Endpoints{std::move(*client), std::move(*server)});
  }

  std::unique_ptr<workload::DuplexTestBed> bed_;
  std::unique_ptr<Listener> listener_;  // keeps the port bound for the test
  std::unique_ptr<Endpoints> endpoints_;
};

TEST_F(ReliableTest, LosslessInOrderDelivery) {
  BuildWorld({});
  ReliableChannel tx(&bed_->sim(), bed_->a().kernel.get(),
                     &endpoints_->client);
  ReliableChannel rx(&bed_->sim(), bed_->b().kernel.get(),
                     &endpoints_->server);
  std::vector<std::string> delivered;
  rx.SetMessageHandler([&](std::vector<uint8_t> m) {
    delivered.emplace_back(m.begin(), m.end());
  });
  ASSERT_TRUE(tx.Start().ok());
  ASSERT_TRUE(rx.Start().ok());

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tx.Send("msg " + std::to_string(i)).ok());
  }
  bed_->sim().RunUntil(200 * kMillisecond);

  ASSERT_EQ(delivered.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(delivered[i], "msg " + std::to_string(i));
  }
  EXPECT_EQ(tx.stats().retransmissions, 0u);
  EXPECT_EQ(rx.stats().duplicates_discarded, 0u);
  EXPECT_EQ(tx.unacked_segments(), 0u);
}

struct LossCase {
  double loss;
  uint64_t seed;
};

class ReliableLossTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(ReliableLossTest, ExactlyOnceInOrderUnderLoss) {
  const auto param = GetParam();
  workload::DuplexOptions opts;
  opts.fault_seed = param.seed;
  workload::DuplexTestBed bed(opts);
  SetWireProfile(bed, {.loss = param.loss});
  bed.a().kernel->processes().AddUser(1, "a");
  bed.b().kernel->processes().AddUser(2, "b");
  const auto pid_a = *bed.a().kernel->processes().Spawn(1, "client");
  const auto pid_b = *bed.b().kernel->processes().Spawn(2, "server");
  kernel::ConnectOptions copts;
  copts.notify_rx = true;
  auto listener = Listener::Create(bed.b().kernel.get(), pid_b, 4500,
                                   net::IpProto::kUdp, copts);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto client = Socket::Connect(bed.a().kernel.get(), pid_a, bed.ip_b(),
                                4500, copts);
  ASSERT_TRUE(client.ok());
  // Trigger accept; the trigger datagram itself may be lost, so retry.
  StatusOr<Socket> server = UnavailableError("pending");
  for (int attempt = 0; attempt < 50 && !server.ok(); ++attempt) {
    ASSERT_TRUE(client->Send(std::vector<uint8_t>{0xff, 0, 0, 0, 0}).ok());
    bed.sim().Run();
    server = listener->Accept();
  }
  ASSERT_TRUE(server.ok());
  while (server->RecvFrame() != nullptr) {
  }

  ReliableChannel tx(&bed.sim(), bed.a().kernel.get(), &*client);
  ReliableChannel rx(&bed.sim(), bed.b().kernel.get(), &*server);
  std::vector<int> delivered;
  rx.SetMessageHandler([&](std::vector<uint8_t> m) {
    delivered.push_back(std::stoi(std::string(m.begin(), m.end())));
  });
  ASSERT_TRUE(tx.Start().ok());
  ASSERT_TRUE(rx.Start().ok());

  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(tx.Send(std::to_string(i)).ok());
  }
  bed.sim().RunUntil(5000 * kMillisecond);

  ASSERT_EQ(delivered.size(), static_cast<size_t>(kMessages))
      << "loss=" << param.loss << " lost_frames=" << bed.frames_lost();
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_EQ(delivered[i], i) << "order violated at " << i;
  }
  EXPECT_FALSE(tx.failed());
  EXPECT_GT(tx.stats().retransmissions, 0u);
  EXPECT_GT(bed.frames_lost(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LossRates, ReliableLossTest,
    ::testing::Values(LossCase{0.05, 1}, LossCase{0.10, 2},
                      LossCase{0.25, 3}, LossCase{0.10, 42}));

TEST_F(ReliableTest, ReorderingJitterHandled) {
  // Jitter larger than frame spacing reorders frames on the wire.
  BuildWorld({.jitter = 200 * kMicrosecond});
  ReliableChannel tx(&bed_->sim(), bed_->a().kernel.get(),
                     &endpoints_->client);
  ReliableChannel rx(&bed_->sim(), bed_->b().kernel.get(),
                     &endpoints_->server);
  std::vector<int> delivered;
  rx.SetMessageHandler([&](std::vector<uint8_t> m) {
    delivered.push_back(std::stoi(std::string(m.begin(), m.end())));
  });
  ASSERT_TRUE(tx.Start().ok());
  ASSERT_TRUE(rx.Start().ok());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(tx.Send(std::to_string(i)).ok());
  }
  bed_->sim().RunUntil(2000 * kMillisecond);
  ASSERT_EQ(delivered.size(), 150u);
  for (int i = 0; i < 150; ++i) {
    ASSERT_EQ(delivered[i], i);
  }
  EXPECT_GT(rx.stats().out_of_order_buffered, 0u);
}

TEST_F(ReliableTest, WindowNeverExceeded) {
  BuildWorld({});
  ReliableOptions ropts;
  ropts.window = 8;
  ReliableChannel tx(&bed_->sim(), bed_->a().kernel.get(),
                     &endpoints_->client, ropts);
  ReliableChannel rx(&bed_->sim(), bed_->b().kernel.get(),
                     &endpoints_->server);
  rx.SetMessageHandler([](std::vector<uint8_t>) {});
  ASSERT_TRUE(tx.Start().ok());
  ASSERT_TRUE(rx.Start().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tx.Send(std::to_string(i)).ok());
    EXPECT_LE(tx.unacked_segments(), 8u);
  }
  bed_->sim().RunUntil(500 * kMillisecond);
  EXPECT_EQ(rx.stats().messages_delivered, 100u);
  EXPECT_EQ(tx.unacked_segments(), 0u);
}

TEST_F(ReliableTest, BidirectionalChannels) {
  BuildWorld({.loss = 0.10, .jitter = 50 * kMicrosecond}, /*seed=*/7);
  ReliableChannel a(&bed_->sim(), bed_->a().kernel.get(),
                    &endpoints_->client);
  ReliableChannel b(&bed_->sim(), bed_->b().kernel.get(),
                    &endpoints_->server);
  int a_got = 0, b_got = 0;
  a.SetMessageHandler([&](std::vector<uint8_t>) { ++a_got; });
  b.SetMessageHandler([&](std::vector<uint8_t>) { ++b_got; });
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(a.Send("from a " + std::to_string(i)).ok());
    ASSERT_TRUE(b.Send("from b " + std::to_string(i)).ok());
  }
  bed_->sim().RunUntil(5000 * kMillisecond);
  EXPECT_EQ(a_got, 50);
  EXPECT_EQ(b_got, 50);
}

TEST_F(ReliableTest, TotalLossEventuallyFailsTheChannel) {
  BuildWorld({});                        // connect over a clean link...
  SetWireProfile(*bed_, {.loss = 1.0});  // ...then the link goes dark
  ReliableOptions ropts;
  ropts.max_retries = 5;
  ropts.initial_rto = 100 * kMicrosecond;
  ReliableChannel tx(&bed_->sim(), bed_->a().kernel.get(),
                     &endpoints_->client, ropts);
  Status failure = OkStatus();
  tx.SetFailureHandler([&](Status s) { failure = s; });
  ASSERT_TRUE(tx.Start().ok());
  ASSERT_TRUE(tx.Send("into the void").ok());
  bed_->sim().RunUntil(10000 * kMillisecond);
  EXPECT_TRUE(tx.failed());
  EXPECT_EQ(failure.code(), StatusCode::kUnavailable);
  EXPECT_EQ(tx.Send("more").code(), StatusCode::kUnavailable);
}

TEST_F(ReliableTest, DoubleStartRejected) {
  BuildWorld({});
  ReliableChannel tx(&bed_->sim(), bed_->a().kernel.get(),
                     &endpoints_->client);
  ASSERT_TRUE(tx.Start().ok());
  EXPECT_EQ(tx.Start().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace norman
