#ifndef ESTOCADA_RUNTIME_METRICS_H_
#define ESTOCADA_RUNTIME_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/histogram.h"

namespace estocada::runtime {

/// Point-in-time view of a server's counters, for reports and benchmark
/// JSON. Percentiles come from the latency histogram snapshot.
struct MetricsSnapshot {
  uint64_t queries_served = 0;   ///< Successfully answered queries.
  uint64_t cache_hits = 0;       ///< Plan-cache hits.
  uint64_t cache_misses = 0;     ///< Plan-cache misses.
  uint64_t rewrites = 0;         ///< Full PACB rewrites performed.
  uint64_t errors = 0;           ///< Queries that returned a non-OK status.
  uint64_t retries = 0;          ///< Re-executions after a transient fault.
  uint64_t breaker_trips = 0;    ///< Circuit breakers tripped open.
  uint64_t reroutes = 0;         ///< Immediate sibling-replica re-routes.
  uint64_t failovers = 0;        ///< Re-plans that excluded unhealthy stores.
  uint64_t degraded = 0;         ///< Answers served from the staging area.
  uint64_t replica_rebuilds = 0; ///< Replicas rebuilt and re-admitted.
  uint64_t memo_hits = 0;        ///< Texts found in the canonical memo.
  uint64_t memo_misses = 0;      ///< Texts parsed and canonicalized.
  /// Lifted rewriting sets the merge guard rejected (the text was then
  /// planned with its own constants).
  uint64_t lift_rejections = 0;
  LatencyHistogram::Snapshot latency;

  double CacheHitRate() const {
    uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
  double p50_micros() const { return latency.Quantile(0.50); }
  double p95_micros() const { return latency.Quantile(0.95); }
  double p99_micros() const { return latency.Quantile(0.99); }

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// Per-server counters, written concurrently by every serving thread (all
/// relaxed atomics — the numbers are observability, not synchronization).
class ServerMetrics {
 public:
  void RecordCacheHit() { cache_hits_.fetch_add(1, kRelaxed); }
  void RecordCacheMiss() { cache_misses_.fetch_add(1, kRelaxed); }
  void RecordRewrite() { rewrites_.fetch_add(1, kRelaxed); }
  void RecordRetry() { retries_.fetch_add(1, kRelaxed); }
  void RecordBreakerTrip() { breaker_trips_.fetch_add(1, kRelaxed); }
  void RecordReroute() { reroutes_.fetch_add(1, kRelaxed); }
  void RecordFailover() { failovers_.fetch_add(1, kRelaxed); }
  void RecordDegraded() { degraded_.fetch_add(1, kRelaxed); }
  void RecordReplicaRebuild() { replica_rebuilds_.fetch_add(1, kRelaxed); }
  void RecordMemoHit() { memo_hits_.fetch_add(1, kRelaxed); }
  void RecordMemoMiss() { memo_misses_.fetch_add(1, kRelaxed); }
  void RecordLiftRejection() { lift_rejections_.fetch_add(1, kRelaxed); }

  /// Call once per finished query with its end-to-end latency.
  void RecordQuery(bool ok, double latency_micros) {
    if (ok) {
      queries_served_.fetch_add(1, kRelaxed);
    } else {
      errors_.fetch_add(1, kRelaxed);
    }
    latency_.Record(latency_micros);
  }

  MetricsSnapshot snapshot() const;

  /// Zeroes every counter (between benchmark phases; quiesce writers
  /// first).
  void Reset();

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> rewrites_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> breaker_trips_{0};
  std::atomic<uint64_t> reroutes_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> replica_rebuilds_{0};
  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> memo_misses_{0};
  std::atomic<uint64_t> lift_rejections_{0};
  LatencyHistogram latency_;
};

}  // namespace estocada::runtime

#endif  // ESTOCADA_RUNTIME_METRICS_H_
