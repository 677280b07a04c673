#include "stores/fault.h"

#include <chrono>
#include <thread>

#include "common/strings.h"

namespace estocada::stores {

void FaultInjector::SetPlan(const std::string& store, FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plans_[store] = plan;
}

void FaultInjector::SetOutage(const std::string& store, bool outage) {
  std::lock_guard<std::mutex> lock(mu_);
  plans_[store].outage = outage;
}

void FaultInjector::FailNextReads(const std::string& store, uint64_t reads) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_next_[store] = reads;
}

Status FaultInjector::OnRead(const std::string& store) {
  uint64_t spike_micros = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.reads;
    auto plan_it = plans_.find(store);
    const FaultPlan* plan =
        plan_it == plans_.end() ? nullptr : &plan_it->second;
    if (plan != nullptr && plan->outage) {
      ++counters_.outage_faults;
      return Status::Unavailable(
          StrCat("store '", store, "' unavailable (injected outage)"));
    }
    if (auto it = fail_next_.find(store);
        it != fail_next_.end() && it->second > 0) {
      --it->second;
      ++counters_.transient_faults;
      return Status::Unavailable(
          StrCat("store '", store, "' unavailable (injected fault)"));
    }
    if (plan == nullptr) return Status::OK();
    if (plan->transient_fault_rate > 0 &&
        rng_.Chance(plan->transient_fault_rate)) {
      ++counters_.transient_faults;
      return Status::Unavailable(
          StrCat("store '", store, "' unavailable (injected fault)"));
    }
    if (plan->latency_spike_rate > 0 && plan->latency_spike_micros > 0 &&
        rng_.Chance(plan->latency_spike_rate)) {
      ++counters_.latency_spikes;
      spike_micros = plan->latency_spike_micros;
    }
  }
  if (spike_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(spike_micros));
  }
  return Status::OK();
}

Status FaultInjector::OnWrite(const std::string& store) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.writes;
  auto it = plans_.find(store);
  if (it != plans_.end() && it->second.outage) {
    ++counters_.write_faults;
    return Status::Unavailable(
        StrCat("store '", store, "' unavailable (injected outage)"));
  }
  return Status::OK();
}

FaultInjector::Counters FaultInjector::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace estocada::stores
