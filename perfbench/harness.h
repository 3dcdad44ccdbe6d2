// Shared pieces of every perfbench workload: the seeded inputs, the world
// (simulator + SmartNIC + kernel, with the benchmark's own wire and echo
// peer), the message ledger that checks echoes and digests virtual RTTs,
// and the per-round result.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "span_trace.h"
#include "src/kernel/kernel.h"
#include "src/net/packet.h"
#include "src/nic/smart_nic.h"
#include "src/sim/simulator.h"

namespace perfbench {

using norman::Nanos;

enum class Size { kFull, kTiny };

// Everything the library sees is generated here from the seed.
struct Inputs {
  Size size = Size::kFull;
  // Payload bytes: message i carries its 8-byte id, then pattern bytes from
  // a seeded offset (see FillPayload).
  std::vector<uint8_t> pattern;
  // Closed loops: per-process first-poll offset (the start stagger).
  std::vector<Nanos> stagger;
  // rpc_churn: per connection, its arrival time and its first index into
  // `sizes`/`think`; exchange k of connection i uses entry first[i] + k.
  std::vector<Nanos> arrival;
  std::vector<uint32_t> first;
  std::vector<uint16_t> exchanges;
  std::vector<uint16_t> sizes;
  std::vector<Nanos> think;
  uint64_t arrivals_digest = 0;
};

// FNV-1a, 64-bit.
class Fnv1a {
 public:
  void Add(uint64_t v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Message ids are never 0 (0 marks spans that serve no single message).
inline uint64_t MessageId(uint32_t conn, uint32_t seq) {
  return (uint64_t{conn} + 1) << 32 | seq;
}

// Writes message `msg`'s payload (id, then seeded pattern) into `out`.
void FillPayload(const Inputs& in, uint64_t msg, std::span<uint8_t> out);
// True when `payload` is exactly the `len` bytes FillPayload wrote for `msg`.
bool PayloadMatches(const Inputs& in, uint64_t msg, size_t len,
                    std::span<const uint8_t> payload);
// The message id a payload carries (0 when it is too short to carry one).
uint64_t PayloadId(std::span<const uint8_t> payload);

// Attempted/completed messages, virtual RTTs and their digest. Sized before
// the measured phase so that recording never allocates.
class Ledger {
 public:
  explicit Ledger(uint64_t expected);
  void Complete(uint64_t msg, Nanos rtt);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  // A wrong echo, a refused send or a failed Connect.
  void Fail(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t completed() const { return rtts_.size(); }
  uint64_t digest() const { return digest_.value(); }
  const std::vector<Nanos>& rtts() const { return rtts_; }
  const std::string& failure() const { return failure_; }

 private:
  uint64_t attempted_ = 0;
  std::vector<Nanos> rtts_;
  Fnv1a digest_;
  std::string failure_;
};

// One simulated host wired to the benchmark's echo peer. The wire hands
// each egress frame to the peer after 2 us; the peer's echo enters through
// SmartNic::DeliverFromWire 2 us later (TestBed's event shape).
class World {
 public:
  static constexpr Nanos kPropagation = 2 * norman::kMicrosecond;

  explicit World(Tracer* tracer);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  norman::sim::Simulator& sim() { return sim_; }
  norman::nic::SmartNic& nic() { return nic_; }
  norman::kernel::Kernel& kernel() { return kernel_; }
  Tracer* tracer() { return tracer_; }

  uint64_t peer_frames() const { return peer_frames_; }
  uint64_t peer_other() const { return peer_other_; }
  uint64_t echoes_delivered() const { return echoes_delivered_; }

  // Installs `rules` UDP drop rules on ports no workload uses (5001..) on
  // both chains, so every packet walks a realistic firewall.
  norman::Status InstallFirewall(int rules);

 private:
  void OnEgress(norman::net::PacketPtr packet);

  Tracer* tracer_;
  norman::sim::Simulator sim_;
  norman::nic::SmartNic nic_;
  norman::kernel::Kernel kernel_;
  uint64_t peer_frames_ = 0;
  uint64_t peer_other_ = 0;
  uint64_t echoes_delivered_ = 0;
};

// Exact per-round counts (virtual-time and event outputs). Two rounds of
// one seed must agree on every field.
struct Counts {
  uint64_t completed = 0;
  uint64_t digest = 0;
  Nanos final_virtual_ns = 0;
  Nanos rtt_p50_ns = 0;
  Nanos rtt_p99_ns = 0;
  uint64_t events = 0;
  // Registry values the per-layer metrics read (sim.metrics().Snapshot()).
  std::map<std::string, int64_t> registry;
  uint64_t ddio_hits = 0;
  uint64_t ddio_misses = 0;
  uint64_t event_pool_hits = 0;
  uint64_t event_pool_misses = 0;
  uint64_t capture_records = 0;
  uint64_t maintenance_ticks = 0;
  uint64_t samples = 0;
  uint64_t polls = 0;
  uint64_t useful_polls = 0;
  uint64_t conns = 0;
  // rpc_churn sizing: open connections, max and time-averaged, and the
  // virtual kernel core's utilisation.
  uint64_t open_max = 0;
  double open_mean = 0;
  double kernel_core_util = 0;

  bool operator==(const Counts&) const = default;
};

struct RoundResult {
  double setup_cpu_s = 0;
  double run_cpu_s = 0;
  uint64_t attempted = 0;
  uint64_t run_allocs = 0;
  // Packet-pool activity during the measured phase.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  Counts counts;
  std::string failure;  // empty when every check passed
};

// Process CPU time in seconds.
double CpuSeconds();

// Reads the world's counters into `r`, then runs the conservation check:
// every message sent was echoed, nothing dropped, nothing in flight.
void CollectAndCheck(World& world, const Ledger& ledger, uint64_t app_sent,
                     RoundResult& r);

// Which registry counters are drops, by reason.
bool IsDropCounter(const std::string& name);

// A kept registry value of a round (0 when the name is absent).
int64_t RegistryValue(const Counts& c, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
