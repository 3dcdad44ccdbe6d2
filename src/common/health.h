// Continuous monitoring, layer 2: rule-driven health evaluation over the
// sampled time series.
//
// The watchdog watches what the TimeSeriesSampler records — it never touches
// the dataplane. Rules bind a named component ("nic.qdisc", "app.rx") and an
// owner annotation (who to page: "kernel.tc", "pid=3 (echo)") to a series:
//
//   queue-stall  — depth series has not drained for N consecutive windows
//   rate-spike   — a .rate series exceeded a threshold in the latest window
//   latency      — a .p99 series exceeded a threshold (ns)
//
// Each Evaluate() folds every rule into a per-component state
// (healthy -> degraded -> stalled, worst rule wins) and logs transitions to
// a bounded, owner-annotated alert log. Evaluation runs from the kernel's
// maintenance tick on the virtual clock, so alerts carry virtual timestamps
// and the whole state machine is deterministic.
#ifndef NORMAN_COMMON_HEALTH_H_
#define NORMAN_COMMON_HEALTH_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/timeseries.h"
#include "src/common/tracepoint.h"
#include "src/common/units.h"

namespace norman::telemetry {

enum class HealthState : uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kStalled = 2,
};

const char* HealthStateName(HealthState s);

// One logged state transition. `reason` names the rule finding that drove
// the change ("queue.nic.qdisc.depth held >=1 for 3 windows") or "recovered".
struct HealthAlert {
  Nanos t = 0;
  std::string component;
  std::string owner;
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  std::string reason;
};

class HealthWatchdog {
 public:
  // Alert log bound; older entries are dropped.
  static constexpr size_t kMaxAlerts = 256;

  HealthWatchdog(const TimeSeriesSampler* sampler, MetricsRegistry* registry);

  HealthWatchdog(const HealthWatchdog&) = delete;
  HealthWatchdog& operator=(const HealthWatchdog&) = delete;

  // Stalled when the depth series stayed >= `min_depth` without draining
  // (no sample lower than its predecessor) for `windows` consecutive
  // samples; degraded at half that streak.
  void AddQueueStallRule(std::string_view component,
                         std::string_view depth_series, std::string_view owner,
                         int windows = 3, int64_t min_depth = 1);
  // Degraded while the latest sample of a ".rate" series exceeds
  // `per_second`.
  void AddRateSpikeRule(std::string_view component, std::string_view series,
                        std::string_view owner, double per_second);
  // Degraded while the latest sample of a ".p99" series exceeds
  // `threshold_ns`.
  void AddLatencyRule(std::string_view component, std::string_view series,
                      std::string_view owner, Nanos threshold_ns);
  // Stalled while the latest sample of a gauge-level series is positive
  // (e.g. "fault.link.down" counts links administratively down). A missing
  // or empty series reads healthy, so worlds without a fault plane are
  // unaffected.
  void AddLinkDownRule(std::string_view component, std::string_view series,
                       std::string_view owner);

  // Re-evaluates every rule against the sampler's current series and logs
  // state transitions at virtual time `now`. Call after Sample().
  void Evaluate(Nanos now);

  HealthState StateOf(std::string_view component) const;
  const std::vector<HealthAlert>& alerts() const { return alerts_; }
  uint64_t alerts_dropped() const { return alerts_dropped_; }

  // "watchdog.transition" probe hookup; fires on every logged transition,
  // which is what the flight recorder's unhealthy trigger latches on.
  void AttachTracepoints(Tracepoints* tp) { tp_ = tp; }

  // "component state owner [reason]" lines, sorted by component, followed by
  // the alert log; byte-stable for a deterministic run.
  std::string Render() const;
  // {"components":{...},"alerts":[...]}, sorted and byte-stable.
  std::string JsonReport() const;

 private:
  enum class RuleKind : uint8_t { kQueueStall, kRateSpike, kLatency,
                                  kLinkDown };

  struct Rule {
    RuleKind kind;
    std::string component;
    std::string series;
    std::string owner;
    int windows = 3;          // queue-stall
    int64_t min_depth = 1;    // queue-stall
    double threshold = 0;     // rate-spike (per-second) / latency (ns)
  };

  struct ComponentStatus {
    HealthState state = HealthState::kHealthy;
    std::string owner;   // owner of the rule that set the current state
    std::string reason;  // finding behind the current state ("" = healthy)
  };

  // Severity this rule contributes right now, plus the human reason when
  // not healthy.
  HealthState EvaluateRule(const Rule& rule, std::string* reason) const;
  void LogTransition(Nanos now, const std::string& component,
                     const ComponentStatus& prev, const ComponentStatus& next);

  const TimeSeriesSampler* sampler_;
  std::vector<Rule> rules_;
  std::map<std::string, ComponentStatus, std::less<>> components_;
  std::vector<HealthAlert> alerts_;
  uint64_t alerts_dropped_ = 0;

  Counter* alerts_total_;     // health.alerts
  Gauge* gauge_healthy_;      // health.components.healthy
  Gauge* gauge_degraded_;     // health.components.degraded
  Gauge* gauge_stalled_;      // health.components.stalled
  Tracepoints* tp_ = nullptr;
};

}  // namespace norman::telemetry

#endif  // NORMAN_COMMON_HEALTH_H_
