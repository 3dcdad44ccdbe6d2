#include "src/common/flight_recorder.h"

#include <cstdio>

#include "src/common/drop_reason.h"
#include "src/common/health.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/profiler.h"

namespace norman::telemetry {

FlightRecorder::FlightRecorder(Tracepoints* tracepoints)
    : tracepoints_(tracepoints) {
  NORMAN_CHECK(tracepoints_ != nullptr);
  tracepoints_->AttachRecorder(this);
}

void FlightRecorder::AddTrigger(TriggerRule rule) {
  if (!tracepoints_->armed(rule.probe)) {
    tracepoints_->Arm(rule.probe);
  }
  triggers_.push_back(std::move(rule));
}

void FlightRecorder::AddWatchdogUnhealthyTrigger() {
  TriggerRule rule;
  rule.name = "watchdog-unhealthy";
  rule.probe = Probe::kWatchdogTransition;
  rule.a1 = static_cast<uint64_t>(HealthState::kHealthy);  // from == healthy
  AddTrigger(std::move(rule));
}

void FlightRecorder::AddDropReasonTrigger(std::string name,
                                          uint64_t drop_reason) {
  TriggerRule rule;
  rule.name = std::move(name);
  rule.probe = Probe::kNicDrop;
  rule.a0 = drop_reason;
  AddTrigger(std::move(rule));
}

void FlightRecorder::AddSramExhaustedTrigger() {
  TriggerRule rule;
  rule.name = "sram-exhausted";
  rule.probe = Probe::kSramExhausted;
  AddTrigger(std::move(rule));
}

void FlightRecorder::OnRecord(const TraceRecord& rec) {
  if (triggered_) {
    return;
  }
  for (const TriggerRule& rule : triggers_) {
    if (rule.Matches(rec)) {
      triggered_ = true;
      fired_name_ = rule.name;
      fired_record_ = rec;
      tracepoints_->Freeze();
      return;
    }
  }
}

std::string FlightRecorder::TriggersReport() const {
  std::string out = "TRIGGER              PROBE                 CONDITIONS"
                    "            STATE\n";
  char buf[192];
  for (const TriggerRule& rule : triggers_) {
    std::string cond;
    if (rule.a0.has_value()) {
      cond += "a0=" + std::to_string(*rule.a0);
    }
    if (rule.a1.has_value()) {
      if (!cond.empty()) {
        cond.push_back(',');
      }
      cond += "a1=" + std::to_string(*rule.a1);
    }
    if (rule.pid != 0) {
      if (!cond.empty()) {
        cond.push_back(',');
      }
      cond += "pid=" + std::to_string(rule.pid);
    }
    if (cond.empty()) {
      cond.push_back('*');
    }
    const std::string_view probe = ProbeName(rule.probe);
    std::snprintf(buf, sizeof(buf), "%-20s %-21.*s %-21s %s\n",
                  rule.name.c_str(), static_cast<int>(probe.size()),
                  probe.data(), cond.c_str(),
                  triggered_ && fired_name_ == rule.name ? "FIRED" : "armed");
    out += buf;
  }
  if (triggers_.empty()) {
    out += "(none)\n";
  }
  return out;
}

std::string FlightRecorder::Bundle(const MetricsRegistry& metrics,
                                   const HealthWatchdog* watchdog,
                                   const Profiler* profiler) const {
  std::string out = "{\"trigger\":";
  if (triggered_) {
    char buf[192];
    const std::string_view probe = ProbeName(
        static_cast<Probe>(fired_record_.probe < kNumProbes
                               ? fired_record_.probe
                               : 0));
    out += "{\"name\":";
    AppendJsonString(out, fired_name_);
    std::snprintf(buf, sizeof(buf),
                  ",\"probe\":\"%.*s\",\"t\":%llu,\"seq\":%llu,\"pid\":%u,"
                  "\"a0\":%llu,\"a1\":%llu,\"a2\":%llu}",
                  static_cast<int>(probe.size()), probe.data(),
                  static_cast<unsigned long long>(fired_record_.t),
                  static_cast<unsigned long long>(fired_record_.seq),
                  fired_record_.pid,
                  static_cast<unsigned long long>(fired_record_.a0),
                  static_cast<unsigned long long>(fired_record_.a1),
                  static_cast<unsigned long long>(fired_record_.a2));
    out += buf;
  } else {
    out += "null";
  }
  out += ",\"journal\":";
  out += tracepoints_->JournalJson();
  out += ",\"metrics\":";
  out += metrics.JsonReport();
  out += ",\"health\":";
  out += watchdog != nullptr ? watchdog->JsonReport() : "null";
  out += ",\"flame\":";
  if (profiler != nullptr) {
    AppendJsonString(out, profiler->FoldedStacks());
  } else {
    out += "null";
  }
  out += "}";
  return out;
}

void FlightRecorder::Reset() {
  triggered_ = false;
  fired_name_.clear();
  fired_record_ = TraceRecord{};
  tracepoints_->Unfreeze();
}

}  // namespace norman::telemetry
