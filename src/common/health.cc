#include "src/common/health.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace norman::telemetry {

const char* HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kStalled: return "stalled";
  }
  return "unknown";
}

HealthWatchdog::HealthWatchdog(const TimeSeriesSampler* sampler,
                               MetricsRegistry* registry)
    : sampler_(sampler),
      alerts_total_(registry->GetCounter("health.alerts")),
      gauge_healthy_(registry->GetGauge("health.components.healthy")),
      gauge_degraded_(registry->GetGauge("health.components.degraded")),
      gauge_stalled_(registry->GetGauge("health.components.stalled")) {}

void HealthWatchdog::AddQueueStallRule(std::string_view component,
                                       std::string_view depth_series,
                                       std::string_view owner, int windows,
                                       int64_t min_depth) {
  rules_.push_back(Rule{RuleKind::kQueueStall, std::string(component),
                        std::string(depth_series), std::string(owner), windows,
                        min_depth, 0});
  auto& status = components_[std::string(component)];
  if (status.owner.empty()) status.owner = std::string(owner);
}

void HealthWatchdog::AddRateSpikeRule(std::string_view component,
                                      std::string_view series,
                                      std::string_view owner,
                                      double per_second) {
  rules_.push_back(Rule{RuleKind::kRateSpike, std::string(component),
                        std::string(series), std::string(owner), 0, 0,
                        per_second});
  auto& status = components_[std::string(component)];
  if (status.owner.empty()) status.owner = std::string(owner);
}

void HealthWatchdog::AddLatencyRule(std::string_view component,
                                    std::string_view series,
                                    std::string_view owner,
                                    Nanos threshold_ns) {
  rules_.push_back(Rule{RuleKind::kLatency, std::string(component),
                        std::string(series), std::string(owner), 0, 0,
                        static_cast<double>(threshold_ns)});
  auto& status = components_[std::string(component)];
  if (status.owner.empty()) status.owner = std::string(owner);
}

void HealthWatchdog::AddLinkDownRule(std::string_view component,
                                     std::string_view series,
                                     std::string_view owner) {
  rules_.push_back(Rule{RuleKind::kLinkDown, std::string(component),
                        std::string(series), std::string(owner), 0, 0, 0});
  auto& status = components_[std::string(component)];
  if (status.owner.empty()) status.owner = std::string(owner);
}

HealthState HealthWatchdog::EvaluateRule(const Rule& rule,
                                         std::string* reason) const {
  const TimeSeries* series = sampler_->Find(rule.series);
  if (series == nullptr || series->size() == 0) {
    return HealthState::kHealthy;  // no data yet — nothing to judge
  }
  char buf[192];
  switch (rule.kind) {
    case RuleKind::kQueueStall: {
      // Trailing streak of samples that stayed backed up (>= min_depth)
      // without draining below the preceding sample.
      const size_t n = series->size();
      int streak = 0;
      for (size_t back = 0; back < n; ++back) {
        const size_t i = n - 1 - back;
        const double v = series->At(i).value;
        if (v < static_cast<double>(rule.min_depth)) break;
        if (back > 0 && v > series->At(i + 1).value) break;  // was draining
        ++streak;
      }
      if (streak >= rule.windows) {
        std::snprintf(buf, sizeof(buf),
                      "%s held >=%" PRId64 " without draining for %d windows",
                      rule.series.c_str(), rule.min_depth, streak);
        *reason = buf;
        return HealthState::kStalled;
      }
      if (streak >= (rule.windows + 1) / 2) {
        std::snprintf(buf, sizeof(buf),
                      "%s backed up for %d of %d windows", rule.series.c_str(),
                      streak, rule.windows);
        *reason = buf;
        return HealthState::kDegraded;
      }
      return HealthState::kHealthy;
    }
    case RuleKind::kRateSpike: {
      const double v = series->Latest().value;
      if (v > rule.threshold) {
        std::snprintf(buf, sizeof(buf), "%s at %.10g/s > %.10g/s",
                      rule.series.c_str(), v, rule.threshold);
        *reason = buf;
        return HealthState::kDegraded;
      }
      return HealthState::kHealthy;
    }
    case RuleKind::kLatency: {
      const double v = series->Latest().value;
      if (v > rule.threshold) {
        std::snprintf(buf, sizeof(buf), "%s at %.0fns > %.0fns",
                      rule.series.c_str(), v, rule.threshold);
        *reason = buf;
        return HealthState::kDegraded;
      }
      return HealthState::kHealthy;
    }
    case RuleKind::kLinkDown: {
      const double v = series->Latest().value;
      if (v > 0) {
        std::snprintf(buf, sizeof(buf), "%s reports %.0f link(s) down",
                      rule.series.c_str(), v);
        *reason = buf;
        return HealthState::kStalled;
      }
      return HealthState::kHealthy;
    }
  }
  return HealthState::kHealthy;
}

void HealthWatchdog::LogTransition(Nanos now, const std::string& component,
                                   const ComponentStatus& prev,
                                   const ComponentStatus& next) {
  if (alerts_.size() >= kMaxAlerts) {
    alerts_.erase(alerts_.begin());
    ++alerts_dropped_;
  }
  HealthAlert alert;
  alert.t = now;
  alert.component = component;
  alert.owner = next.owner;
  alert.from = prev.state;
  alert.to = next.state;
  alert.reason = next.reason.empty() ? std::string("recovered") : next.reason;
  alerts_.push_back(std::move(alert));
  alerts_total_->Increment();
  if (tp_ != nullptr) {
    // a0 = state entered, a1 = state left; the flight recorder's canned
    // "unhealthy" trigger matches a1 == kHealthy (any departure from green).
    tp_->Emit(Probe::kWatchdogTransition, Tracepoints::kCoreHost, /*pid=*/0,
              static_cast<uint64_t>(next.state),
              static_cast<uint64_t>(prev.state));
  }
}

void HealthWatchdog::Evaluate(Nanos now) {
  // Fold every rule into its component: worst severity wins; the first rule
  // (registration order) at that severity supplies owner and reason, so the
  // outcome is deterministic even with several rules firing at once.
  std::map<std::string, ComponentStatus, std::less<>> next;
  for (const auto& [name, status] : components_) {
    ComponentStatus fresh;
    fresh.owner = status.owner;  // default pager when healthy
    next.emplace(name, std::move(fresh));
  }
  for (const Rule& rule : rules_) {
    std::string reason;
    const HealthState severity = EvaluateRule(rule, &reason);
    ComponentStatus& status = next[rule.component];
    if (severity > status.state) {
      status.state = severity;
      status.owner = rule.owner;
      status.reason = std::move(reason);
    }
  }
  int64_t healthy = 0, degraded = 0, stalled = 0;
  for (auto& [name, status] : next) {
    const ComponentStatus& prev = components_[name];
    if (status.state != prev.state) {
      LogTransition(now, name, prev, status);
    }
    switch (status.state) {
      case HealthState::kHealthy: ++healthy; break;
      case HealthState::kDegraded: ++degraded; break;
      case HealthState::kStalled: ++stalled; break;
    }
  }
  components_ = std::move(next);
  gauge_healthy_->Set(healthy);
  gauge_degraded_->Set(degraded);
  gauge_stalled_->Set(stalled);
}

HealthState HealthWatchdog::StateOf(std::string_view component) const {
  const auto it = components_.find(component);
  return it == components_.end() ? HealthState::kHealthy : it->second.state;
}

std::string HealthWatchdog::Render() const {
  std::string out;
  char buf[64];
  for (const auto& [name, status] : components_) {
    out += name;
    out.push_back(' ');
    out += HealthStateName(status.state);
    out += " owner=";
    out += status.owner;
    if (!status.reason.empty()) {
      out += "  # ";
      out += status.reason;
    }
    out.push_back('\n');
  }
  for (const HealthAlert& a : alerts_) {
    std::snprintf(buf, sizeof(buf), "t=%lld ", static_cast<long long>(a.t));
    out += buf;
    out += a.component;
    out.push_back(' ');
    out += HealthStateName(a.from);
    out += "->";
    out += HealthStateName(a.to);
    out += " owner=";
    out += a.owner;
    out.push_back(' ');
    out += a.reason;
    out.push_back('\n');
  }
  return out;
}

std::string HealthWatchdog::JsonReport() const {
  std::string out = "{\"components\":{";
  char buf[64];
  bool first = true;
  for (const auto& [name, status] : components_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(out, name);
    out += ":{\"state\":";
    AppendJsonString(out, HealthStateName(status.state));
    out += ",\"owner\":";
    AppendJsonString(out, status.owner);
    out += ",\"reason\":";
    AppendJsonString(out, status.reason);
    out.push_back('}');
  }
  out += "},\"alerts\":[";
  first = true;
  for (const HealthAlert& a : alerts_) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"t\":%lld,", static_cast<long long>(a.t));
    out += buf;
    out += "\"component\":";
    AppendJsonString(out, a.component);
    out += ",\"from\":";
    AppendJsonString(out, HealthStateName(a.from));
    out += ",\"to\":";
    AppendJsonString(out, HealthStateName(a.to));
    out += ",\"owner\":";
    AppendJsonString(out, a.owner);
    out += ",\"reason\":";
    AppendJsonString(out, a.reason);
    out.push_back('}');
  }
  out += "],";
  std::snprintf(buf, sizeof(buf), "\"dropped\":%" PRIu64 "}", alerts_dropped_);
  out += buf;
  return out;
}

}  // namespace norman::telemetry
