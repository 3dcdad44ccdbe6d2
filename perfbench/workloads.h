// The three perfbench workloads (README.md says why each exists):
//  bare_echo       closed loop, 60-B frames, default serial NIC;
//  interposed_mtu  closed loop, 1514-B zero-copy frames, every interposition
//                  on (flow cache, 4 lanes, firewall, capture, WFQ, monitor);
//  rpc_churn       open-loop connection arrivals with blocking RPCs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string_view>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Workload {
  std::string_view name;
  Inputs (*make_inputs)(uint64_t seed, Size size);
  // Builds a fresh world, runs one round to idle, checks it and tears the
  // world down. A null tracer is an untraced round.
  RoundResult (*run_round)(const Inputs& in, Tracer* tracer);
  // Prefixes of the per-layer metrics this workload has no use for; they
  // read n/a (value 0, listed in the report).
  std::vector<std::string_view> unused;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
