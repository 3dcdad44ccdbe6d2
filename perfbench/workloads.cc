#include "workloads.h"

#include <algorithm>
#include <array>
#include <memory>
#include <string>

#include "alloc_count.h"
#include "src/common/rng.h"
#include "src/dataplane/qdisc.h"
#include "src/net/packet_pool.h"
#include "src/norman/socket.h"
#include "src/overlay/assembler.h"

namespace perfbench {
namespace {

using namespace norman;  // NOLINT

constexpr size_t kPatternBytes = 8192;
constexpr size_t kMaxPayload = 1472;
constexpr int kFirewallRules = 32;
// Connection i talks to peer port kFirstPeerPort + i (closed loops) or
// kFirstPeerPort + i % 256 (rpc_churn); the firewall's ports sit below.
constexpr uint16_t kFirstPeerPort = 7000;

net::Ipv4Address PeerIp() { return net::Ipv4Address::FromOctets(10, 0, 0, 2); }

Inputs BaseInputs(Size size, Rng& rng) {
  Inputs in;
  in.size = size;
  in.pattern.resize(kPatternBytes + kMaxPayload);
  for (uint8_t& b : in.pattern) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return in;
}

// Timed measured phase: schedules the first messages, then runs the
// simulator until the world is idle.
template <typename Start>
void Measure(World& world, RoundResult& r, Start&& start) {
  const PoolCounters& pool = net::PacketPool::Default().counters();
  const uint64_t hits0 = pool.hits;
  const uint64_t misses0 = pool.misses;
  const uint64_t allocs0 = AllocCount();
  const double t0 = CpuSeconds();
  start();
  {
    ScopedSpan run(world.tracer(), Layer::kSimRun, 0);
    world.sim().Run();
  }
  r.run_cpu_s = CpuSeconds() - t0;
  r.run_allocs = AllocCount() - allocs0;
  r.pool_hits = pool.hits - hits0;
  r.pool_misses = pool.misses - misses0;
}

void Require(const Status& s, const char* what, Ledger& ledger) {
  if (!s.ok()) {
    ledger.Fail(std::string(what) + ": " + s.ToString());
  }
}

// Every packet a round built must be back in the pool once its world is
// gone.
void CheckPoolDrained(RoundResult& r) {
  const uint64_t out = net::PacketPool::Default().counters().outstanding;
  if (out != 0 && r.failure.empty()) {
    r.failure = "packet pool: " + std::to_string(out) +
                " packets outstanding after teardown";
  }
}

// ---- Closed loops: bare_echo and interposed_mtu ----------------------------

// A polling app checks its sockets once per period of virtual time.
constexpr Nanos kPollPeriod = 1 * kMicrosecond;
// An app that sees no echo for this long gives up (a lossy loop then ends
// with its missing messages counted as failed instead of polling forever).
constexpr Nanos kStallLimit = 1 * kMillisecond;
constexpr uint32_t kMaxWindow = 64;
constexpr size_t kRecvBurst = 64;

struct ClosedLoopSpec {
  uint32_t users;           // one polling process per user
  uint32_t conns_per_user;
  uint32_t window;          // messages in flight per connection
  uint16_t payload;         // bytes per message
  bool zero_copy;           // AllocFrame/Payload/SendFrame, not Send
  uint64_t full_msgs;       // per round
  uint64_t tiny_msgs;
  void (*configure)(World&, Ledger&);
};

class ClosedLoop {
 public:
  ClosedLoop(const ClosedLoopSpec& spec, const Inputs& in, World& world,
             Ledger& ledger)
      : spec_(spec),
        in_(in),
        world_(world),
        ledger_(ledger),
        conns_(spec.users * spec.conns_per_user),
        scratch_(spec.payload) {
    ledger_.Attempt(Messages(spec, in));
  }

  static uint64_t Messages(const ClosedLoopSpec& spec, const Inputs& in) {
    return in.size == Size::kFull ? spec.full_msgs : spec.tiny_msgs;
  }

  // Processes and connections: part of set-up.
  void Connect();
  // Each process's first poll sends its initial windows.
  void Start() {
    for (uint32_t a = 0; a < spec_.users; ++a) {
      world_.sim().ScheduleAt(in_.stagger[a], [this, a] { Poll(a); });
    }
  }
  Status Close();

  uint64_t sent() const { return sent_; }
  void AddCounts(Counts& c) const {
    c.polls = polls_;
    c.useful_polls = useful_polls_;
    c.conns = conns_.size();
  }

 private:
  struct Pending {
    uint64_t msg = 0;
    Nanos sent_at = 0;
  };
  struct Conn {
    Socket sock;
    uint32_t index = 0;
    uint32_t quota = 0;
    uint32_t sent = 0;  // handed to the socket; also the next sequence
    uint32_t done = 0;
    // In-flight messages by sequence % kMaxWindow; msg 0 = free slot.
    std::array<Pending, kMaxWindow> window{};
  };

  void Poll(uint32_t app);
  void Receive(Conn& c, const net::Packet& frame, Nanos now);
  void SendOne(Conn& c, Nanos now);

  const ClosedLoopSpec& spec_;
  const Inputs& in_;
  World& world_;
  Ledger& ledger_;
  std::vector<kernel::Pid> pids_;
  std::vector<Conn> conns_;
  std::vector<uint8_t> scratch_;
  std::array<net::PacketPtr, kRecvBurst> burst_;
  uint64_t sent_ = 0;
  uint64_t polls_ = 0;
  uint64_t useful_polls_ = 0;
  Nanos last_progress_ = 0;
};

void ClosedLoop::Connect() {
  kernel::Kernel& k = world_.kernel();
  for (uint32_t u = 0; u < spec_.users; ++u) {
    const kernel::Uid uid = u + 1;
    k.processes().AddUser(uid, "user" + std::to_string(uid));
    auto pid = k.processes().Spawn(uid, "echo_client");
    Require(pid.status(), "spawn", ledger_);
    pids_.push_back(pid.ok() ? *pid : 0);
  }
  const auto per_conn = static_cast<uint32_t>(Messages(spec_, in_) /
                                              conns_.size());
  for (uint32_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    c.index = i;
    auto sock = [&] {
      ScopedSpan span(world_.tracer(), Layer::kKernelConnect, 0);
      return Socket::Connect(&k, pids_[i / spec_.conns_per_user], PeerIp(),
                             static_cast<uint16_t>(kFirstPeerPort + i));
    }();
    if (!sock.ok()) {
      ledger_.Fail("connect " + std::to_string(i) + ": " +
                   sock.status().ToString());
      continue;  // quota stays 0: its messages count as failed
    }
    c.sock = std::move(*sock);
    c.quota = per_conn;
  }
}

void ClosedLoop::Poll(uint32_t app) {
  Tracer* tr = world_.tracer();
  ScopedSpan span(tr, Layer::kApp, 0);
  const Nanos now = world_.sim().Now();
  bool active = false;
  for (uint32_t i = app * spec_.conns_per_user;
       i < (app + 1) * spec_.conns_per_user; ++i) {
    Conn& c = conns_[i];
    size_t n = 0;
    {
      ScopedSpan recv(tr, Layer::kNormanRecv, 0);
      n = c.sock.RecvFrames(burst_);
    }
    ++polls_;
    useful_polls_ += n != 0 ? 1 : 0;
    for (size_t f = 0; f < n; ++f) {
      Receive(c, *burst_[f], now);
      burst_[f].reset();
    }
    while (c.sent - c.done < spec_.window && c.sent < c.quota) {
      SendOne(c, now);
    }
    active |= c.done < c.quota;
  }
  if (active && now - last_progress_ <= kStallLimit) {
    world_.sim().ScheduleAt(now + kPollPeriod, [this, app] { Poll(app); });
  }
}

void ClosedLoop::Receive(Conn& c, const net::Packet& frame, Nanos now) {
  // Echoes may return out of send order (a fast-path hit can overtake the
  // chain walk of its flow's first packet), so match them by id. At most
  // kMaxWindow messages are in flight, so the slot is the sequence modulo it.
  const auto payload = Socket::Payload(frame);
  const uint64_t msg = PayloadId(payload);
  Pending& p = c.window[static_cast<uint32_t>(msg) % kMaxWindow];
  if (msg == 0 || p.msg != msg ||
      !PayloadMatches(in_, msg, spec_.payload, payload)) {
    ledger_.Fail("wrong echo on conn " + std::to_string(c.index) +
                 " (message " + std::to_string(msg) + ")");
    return;
  }
  ledger_.Complete(msg, now - p.sent_at);
  p.msg = 0;
  ++c.done;
  last_progress_ = now;
}

void ClosedLoop::SendOne(Conn& c, Nanos now) {
  const uint64_t msg = MessageId(c.index, c.sent);
  Status st;
  if (spec_.zero_copy) {
    ScopedSpan span(world_.tracer(), Layer::kNormanSend, msg);
    net::PacketPtr frame = c.sock.AllocFrame(spec_.payload);
    FillPayload(in_, msg, Socket::Payload(*frame));
    st = c.sock.SendFrame(std::move(frame));
  } else {
    FillPayload(in_, msg, scratch_);
    ScopedSpan span(world_.tracer(), Layer::kNormanSend, msg);
    st = c.sock.Send(scratch_);
  }
  if (!st.ok()) {
    ledger_.Fail("send refused on conn " + std::to_string(c.index) + ": " +
                 st.ToString());
    c.quota = c.sent;  // stop this connection; the rest count as failed
    return;
  }
  c.window[c.sent % kMaxWindow] = Pending{msg, now};
  ++c.sent;
  ++sent_;
}

Status ClosedLoop::Close() {
  Status first;
  for (Conn& c : conns_) {
    if (!c.sock.valid()) {
      continue;
    }
    ScopedSpan span(world_.tracer(), Layer::kKernelClose, 0);
    if (Status s = c.sock.Close(); !s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

RoundResult RunClosedLoop(const ClosedLoopSpec& spec, const Inputs& in,
                          Tracer* tracer) {
  RoundResult r;
  Ledger ledger(ClosedLoop::Messages(spec, in));
  const double t0 = CpuSeconds();
  auto world = std::make_unique<World>(tracer);
  spec.configure(*world, ledger);
  auto loop = std::make_unique<ClosedLoop>(spec, in, *world, ledger);
  loop->Connect();
  r.setup_cpu_s = CpuSeconds() - t0;

  Measure(*world, r, [&] { loop->Start(); });
  CollectAndCheck(*world, ledger, loop->sent(), r);
  loop->AddCounts(r.counts);
  if (Status s = loop->Close(); !s.ok() && r.failure.empty()) {
    r.failure = "close: " + s.ToString();
  }
  loop.reset();
  world.reset();
  CheckPoolDrained(r);
  return r;
}

void ConfigureBareEcho(World& world, Ledger& ledger) {
  // Today's serial NIC: default config, empty chains, FIFO.
  Require(world.kernel().Configure(kernel::kRootUid, kernel::NicConfig()),
          "configure", ledger);
}

void ConfigureInterposed(World& world, Ledger& ledger) {
  kernel::Kernel& k = world.kernel();
  kernel::NicConfig config;
  config.flow_cache = true;
  config.top_talkers = true;
  config.maintenance = true;
  config.shard_queues = 4;
  Require(k.Configure(kernel::kRootUid, config), "configure", ledger);
  Require(world.InstallFirewall(kFirewallRules), "firewall", ledger);
  // tcpdump on one connection's peer port, both directions.
  const std::string port = std::to_string(kFirstPeerPort);
  auto filter = overlay::Assemble(
      "    ldf r1, dst_port\n"
      "    jeq r1, " + port + ", hit\n"
      "    ldf r1, src_port\n"
      "    jeq r1, " + port + ", hit\n"
      "    ret 0\n"
      "hit:\n"
      "    ret 1\n");
  Require(filter.status(), "capture filter", ledger);
  if (filter.ok()) {
    Require(k.StartCapture(kernel::kRootUid, std::move(*filter)), "capture",
            ledger);
  }
  // tc: WFQ by owner uid, weights 3:1.
  auto wfq = std::make_unique<dataplane::WfqQdisc>(
      dataplane::ClassifyByUid({{1, 1}, {2, 2}}));
  wfq->SetWeight(1, 3.0);
  wfq->SetWeight(2, 1.0);
  Require(k.SetQdisc(kernel::kRootUid, std::move(wfq)), "qdisc", ledger);
}

const ClosedLoopSpec kBareEcho = {
    .users = 1,
    .conns_per_user = 4,
    .window = 16,
    .payload = 18,  // 60-B frames
    .zero_copy = false,
    .full_msgs = 40000,
    .tiny_msgs = 2000,
    .configure = ConfigureBareEcho,
};

const ClosedLoopSpec kInterposedMtu = {
    .users = 2,
    .conns_per_user = 2,
    .window = 16,
    .payload = 1472,  // 1514-B frames
    .zero_copy = true,
    .full_msgs = 20000,
    .tiny_msgs = 1000,
    .configure = ConfigureInterposed,
};

Inputs ClosedLoopInputs(const ClosedLoopSpec& spec, uint64_t seed,
                        Size size) {
  Rng rng(seed);
  Inputs in = BaseInputs(size, rng);
  for (uint32_t a = 0; a < spec.users; ++a) {
    in.stagger.push_back(static_cast<Nanos>(
        rng.NextBounded(static_cast<uint64_t>(kPollPeriod))));
  }
  return in;
}

Inputs BareEchoInputs(uint64_t seed, Size size) {
  return ClosedLoopInputs(kBareEcho, seed, size);
}
RoundResult BareEchoRound(const Inputs& in, Tracer* tracer) {
  return RunClosedLoop(kBareEcho, in, tracer);
}
Inputs InterposedMtuInputs(uint64_t seed, Size size) {
  return ClosedLoopInputs(kInterposedMtu, seed, size);
}
RoundResult InterposedMtuRound(const Inputs& in, Tracer* tracer) {
  return RunClosedLoop(kInterposedMtu, in, tracer);
}

// ---- rpc_churn --------------------------------------------------------------

// Sizing (Little's law): 1-15 exchanges with ~20 ms think time between
// them keep a connection open ~140 ms, so 14,500 arrivals/s hold ~2,000
// open. At ~115k messages/s the virtual kernel core (2 us per wake-up plus
// interrupts) stays well below saturation.
constexpr uint32_t kRpcProcesses = 8;
constexpr double kRpcArrivalMeanNs = 1e9 / 14500;
constexpr double kRpcThinkMeanNs = 20e6;
constexpr uint64_t kRpcMaxExchanges = 15;
constexpr uint64_t kRpcMinBytes = 16;
constexpr uint64_t kRpcMaxBytes = 128;
constexpr uint32_t kRpcFullConns = 5000;
constexpr uint32_t kRpcTinyConns = 300;

Inputs RpcChurnInputs(uint64_t seed, Size size) {
  Rng rng(seed);
  Inputs in = BaseInputs(size, rng);
  const uint32_t n = size == Size::kFull ? kRpcFullConns : kRpcTinyConns;
  Fnv1a arrivals;
  double t = 0;
  for (uint32_t i = 0; i < n; ++i) {
    t += rng.NextExponential(kRpcArrivalMeanNs);
    in.arrival.push_back(static_cast<Nanos>(t));
    arrivals.Add(static_cast<uint64_t>(in.arrival.back()));
    const auto exchanges =
        static_cast<uint16_t>(rng.NextInRange(1, kRpcMaxExchanges));
    in.first.push_back(static_cast<uint32_t>(in.sizes.size()));
    in.exchanges.push_back(exchanges);
    for (uint16_t k = 0; k < exchanges; ++k) {
      in.sizes.push_back(
          static_cast<uint16_t>(rng.NextInRange(kRpcMinBytes, kRpcMaxBytes)));
      in.think.push_back(k == 0 ? 0
                                : static_cast<Nanos>(
                                      rng.NextExponential(kRpcThinkMeanNs)));
    }
  }
  in.arrivals_digest = arrivals.value();
  return in;
}

class RpcChurn {
 public:
  RpcChurn(const Inputs& in, World& world, Ledger& ledger)
      : in_(in),
        world_(world),
        ledger_(ledger),
        conns_(in.arrival.size()),
        scratch_(kRpcMaxBytes) {
    ledger_.Attempt(in.sizes.size());
  }

  // Serial NIC with flow cache and maintenance, the 32-rule firewall, and
  // the client processes: part of set-up.
  void Setup();
  void Start() {
    if (!conns_.empty()) {
      world_.sim().ScheduleAt(in_.arrival[0], [this] { Arrive(0); });
    }
  }

  uint64_t sent() const { return sent_; }
  void AddCounts(Counts& c) const {
    c.conns = opened_;
    c.open_max = open_max_;
    c.open_mean = in_.arrival.empty()
                      ? 0
                      : open_area_ / static_cast<double>(in_.arrival.back());
  }
  // Every connection that opened must have closed.
  uint64_t still_open() const { return open_; }

 private:
  struct Conn {
    Socket sock;
    uint16_t next = 0;        // exchange in progress
    Nanos scheduled_at = 0;   // its request's scheduled send time
  };

  void Arrive(uint32_t i);
  void SendRequest(uint32_t i);
  void OnResponse(uint32_t i, const std::vector<uint8_t>& data);
  void Close(uint32_t i);
  void OpenDelta(int delta);

  const Inputs& in_;
  World& world_;
  Ledger& ledger_;
  std::vector<kernel::Pid> pids_;
  // Sized once: blocked receives hold pointers to their Socket.
  std::vector<Conn> conns_;
  std::vector<uint8_t> scratch_;
  uint64_t sent_ = 0;
  uint64_t opened_ = 0;
  uint64_t open_ = 0;
  uint64_t open_max_ = 0;
  double open_area_ = 0;  // open connections x ns, up to the last arrival
  Nanos last_change_ = 0;
};

void RpcChurn::Setup() {
  kernel::Kernel& k = world_.kernel();
  kernel::NicConfig config;
  config.flow_cache = true;
  config.maintenance = true;
  Require(k.Configure(kernel::kRootUid, config), "configure", ledger_);
  Require(world_.InstallFirewall(kFirewallRules), "firewall", ledger_);
  k.processes().AddUser(1, "rpc");
  for (uint32_t p = 0; p < kRpcProcesses; ++p) {
    auto pid = k.processes().Spawn(1, "rpc_client");
    Require(pid.status(), "spawn", ledger_);
    pids_.push_back(pid.ok() ? *pid : 0);
  }
}

void RpcChurn::OpenDelta(int delta) {
  const Nanos t = std::min(world_.sim().Now(), in_.arrival.back());
  if (t > last_change_) {
    open_area_ += static_cast<double>(open_) *
                  static_cast<double>(t - last_change_);
    last_change_ = t;
  }
  open_ = delta > 0 ? open_ + 1 : open_ - 1;
  open_max_ = std::max(open_max_, open_);
}

void RpcChurn::Arrive(uint32_t i) {
  Tracer* tr = world_.tracer();
  ScopedSpan span(tr, Layer::kApp, 0);
  if (i + 1 < conns_.size()) {
    world_.sim().ScheduleAt(in_.arrival[i + 1], [this, i] { Arrive(i + 1); });
  }
  kernel::ConnectOptions opts;
  opts.notify_rx = true;
  auto sock = [&] {
    ScopedSpan connect(tr, Layer::kKernelConnect, 0);
    return Socket::Connect(&world_.kernel(), pids_[i % kRpcProcesses],
                           PeerIp(),
                           static_cast<uint16_t>(kFirstPeerPort + i % 256),
                           opts);
  }();
  if (!sock.ok()) {
    ledger_.Fail("connect " + std::to_string(i) + ": " +
                 sock.status().ToString());
    return;  // all of its exchanges count as failed
  }
  conns_[i].sock = std::move(*sock);
  ++opened_;
  OpenDelta(+1);
  SendRequest(i);
}

void RpcChurn::SendRequest(uint32_t i) {
  Tracer* tr = world_.tracer();
  Conn& c = conns_[i];
  const uint64_t msg = MessageId(i, c.next);
  const std::span<uint8_t> payload(scratch_.data(),
                                   in_.sizes[in_.first[i] + c.next]);
  FillPayload(in_, msg, payload);
  // This runs at the request's scheduled time: the arrival, or the previous
  // response plus think time.
  c.scheduled_at = world_.sim().Now();
  Status st;
  {
    ScopedSpan send(tr, Layer::kNormanSend, msg);
    st = c.sock.Send(payload);
  }
  if (st.ok()) {
    ++sent_;
    ScopedSpan block(tr, Layer::kKernelBlock, msg);
    st = c.sock.RecvBlocking([this, i](std::vector<uint8_t> data) {
      OnResponse(i, data);
    });
  }
  if (!st.ok()) {
    ledger_.Fail("request " + std::to_string(msg) + ": " + st.ToString());
    Close(i);
  }
}

void RpcChurn::OnResponse(uint32_t i, const std::vector<uint8_t>& data) {
  Conn& c = conns_[i];
  const uint64_t msg = MessageId(i, c.next);
  ScopedSpan span(world_.tracer(), Layer::kApp, msg);
  const Nanos now = world_.sim().Now();
  if (PayloadMatches(in_, msg, in_.sizes[in_.first[i] + c.next], data)) {
    ledger_.Complete(msg, now - c.scheduled_at);
  } else {
    ledger_.Fail("wrong echo payload for message " + std::to_string(msg));
  }
  ++c.next;
  if (c.next < in_.exchanges[i]) {
    world_.sim().ScheduleAt(now + in_.think[in_.first[i] + c.next],
                            [this, i] {
                              ScopedSpan app(world_.tracer(), Layer::kApp, 0);
                              SendRequest(i);
                            });
  } else {
    Close(i);
  }
}

void RpcChurn::Close(uint32_t i) {
  Status st;
  {
    ScopedSpan close(world_.tracer(), Layer::kKernelClose, 0);
    st = conns_[i].sock.Close();
  }
  Require(st, "close", ledger_);
  OpenDelta(-1);
}

RoundResult RpcChurnRound(const Inputs& in, Tracer* tracer) {
  RoundResult r;
  Ledger ledger(in.sizes.size());
  const double t0 = CpuSeconds();
  auto world = std::make_unique<World>(tracer);
  auto churn = std::make_unique<RpcChurn>(in, *world, ledger);
  churn->Setup();
  r.setup_cpu_s = CpuSeconds() - t0;

  Measure(*world, r, [&] { churn->Start(); });
  CollectAndCheck(*world, ledger, churn->sent(), r);
  churn->AddCounts(r.counts);
  if (churn->still_open() != 0 && r.failure.empty()) {
    r.failure = std::to_string(churn->still_open()) +
                " connections never closed";
  }
  churn.reset();
  world.reset();
  CheckPoolDrained(r);
  return r;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"bare_echo", BareEchoInputs, BareEchoRound,
       {"kernel.block", "kernel.wakeups", "nic.fastpath", "dataplane.capture",
        "telemetry"}},
      {"interposed_mtu", InterposedMtuInputs, InterposedMtuRound,
       {"kernel.block", "kernel.wakeups"}},
      {"rpc_churn", RpcChurnInputs, RpcChurnRound,
       {"norman.recv", "dataplane.capture"}},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace perfbench
