#include "runtime/metrics.h"

#include <cstdio>

#include "common/strings.h"

namespace estocada::runtime {

MetricsSnapshot ServerMetrics::snapshot() const {
  MetricsSnapshot s;
  s.queries_served = queries_served_.load(kRelaxed);
  s.cache_hits = cache_hits_.load(kRelaxed);
  s.cache_misses = cache_misses_.load(kRelaxed);
  s.rewrites = rewrites_.load(kRelaxed);
  s.errors = errors_.load(kRelaxed);
  s.retries = retries_.load(kRelaxed);
  s.breaker_trips = breaker_trips_.load(kRelaxed);
  s.reroutes = reroutes_.load(kRelaxed);
  s.failovers = failovers_.load(kRelaxed);
  s.degraded = degraded_.load(kRelaxed);
  s.replica_rebuilds = replica_rebuilds_.load(kRelaxed);
  s.memo_hits = memo_hits_.load(kRelaxed);
  s.memo_misses = memo_misses_.load(kRelaxed);
  s.lift_rejections = lift_rejections_.load(kRelaxed);
  s.latency = latency_.snapshot();
  return s;
}

void ServerMetrics::Reset() {
  queries_served_.store(0, kRelaxed);
  cache_hits_.store(0, kRelaxed);
  cache_misses_.store(0, kRelaxed);
  rewrites_.store(0, kRelaxed);
  errors_.store(0, kRelaxed);
  retries_.store(0, kRelaxed);
  breaker_trips_.store(0, kRelaxed);
  reroutes_.store(0, kRelaxed);
  failovers_.store(0, kRelaxed);
  degraded_.store(0, kRelaxed);
  replica_rebuilds_.store(0, kRelaxed);
  memo_hits_.store(0, kRelaxed);
  memo_misses_.store(0, kRelaxed);
  lift_rejections_.store(0, kRelaxed);
  latency_.Reset();
}

std::string MetricsSnapshot::ToString() const {
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.1f%%", CacheHitRate() * 100.0);
  return StrCat("queries served:  ", queries_served, "\n",
                "errors:          ", errors, "\n",
                "plan cache:      ", cache_hits, " hit(s), ", cache_misses,
                " miss(es) (", rate, " hit rate)\n",
                "PACB rewrites:   ", rewrites, "\n",
                "text memo:       ", memo_hits, " hit(s), ", memo_misses,
                " miss(es); ", lift_rejections,
                " lifted rewriting set(s) rejected by the merge guard\n",
                "resilience:      ", retries, " retry(ies), ", breaker_trips,
                " breaker trip(s), ", reroutes, " reroute(s), ", failovers,
                " failover(s), ", degraded, " degraded, ", replica_rebuilds,
                " replica rebuild(s)\n",
                "latency:         ", latency.ToString(), "\n");
}

}  // namespace estocada::runtime
