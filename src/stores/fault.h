#ifndef ESTOCADA_STORES_FAULT_H_
#define ESTOCADA_STORES_FAULT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/result.h"
#include "common/rng.h"

namespace estocada::stores {

/// What can go wrong on one store's read path. All knobs compose: an
/// outage dominates, then the fail-next counter, then the random draws.
struct FaultPlan {
  /// Probability in [0, 1] that a read fails with kUnavailable.
  double transient_fault_rate = 0.0;
  /// Probability in [0, 1] that a read is delayed by `latency_spike_micros`
  /// before succeeding (models a slow replica / GC pause, not an error).
  double latency_spike_rate = 0.0;
  uint64_t latency_spike_micros = 0;
  /// Hard outage: every read fails until the flag is cleared. Toggled at
  /// runtime to simulate a store going down and coming back.
  bool outage = false;
};

/// Deterministic chaos for the store stand-ins. One injector is
/// shared by all stores of a deployment; each store registers itself under
/// its catalog name (AttachFaultInjector) and asks the injector before
/// serving any read. Draws come from one seeded common/rng generator, so a
/// run with the same seed, plans, and query order injects the same faults.
///
/// Thread-safe: the plan map, the RNG, and the counters sit behind one
/// mutex (reads are cheap; the injector is consulted once per store API
/// call, not per row). Latency spikes sleep *outside* the lock.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Replaces `store`'s fault plan (missing store = no faults).
  void SetPlan(const std::string& store, FaultPlan plan);

  /// Flips only the hard-outage bit, keeping the rest of the plan.
  void SetOutage(const std::string& store, bool outage);

  /// Forces the next `reads` reads of `store` to fail with kUnavailable —
  /// exact, rate-independent fault sequences for tests.
  void FailNextReads(const std::string& store, uint64_t reads);

  /// The hook stores call at the top of every read. OK = proceed.
  Status OnRead(const std::string& store);

  /// The hook stores call at the top of every mutation. Only a hard
  /// outage fails writes — transient rates and latency spikes stay a
  /// read-path phenomenon (the chaos semantics PR 2/PR 5 calibrated
  /// against), while a killed store must reject writes too, or a dead
  /// replica would never go stale and the repair story would be vacuous.
  Status OnWrite(const std::string& store);

  struct Counters {
    uint64_t reads = 0;            ///< Reads that consulted the injector.
    uint64_t transient_faults = 0; ///< Random + fail-next kUnavailable.
    uint64_t outage_faults = 0;    ///< Reads rejected by a hard outage.
    uint64_t latency_spikes = 0;   ///< Reads delayed before succeeding.
    uint64_t writes = 0;           ///< Writes that consulted the injector.
    uint64_t write_faults = 0;     ///< Writes rejected by a hard outage.
  };
  Counters counters() const;

 private:
  mutable std::mutex mu_;
  Rng rng_;
  std::map<std::string, FaultPlan> plans_;
  /// Per-store pending forced failures (FailNextReads).
  std::map<std::string, uint64_t> fail_next_;
  Counters counters_;
};

}  // namespace estocada::stores

#endif  // ESTOCADA_STORES_FAULT_H_
