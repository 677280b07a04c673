#ifndef ESTOCADA_RUNTIME_PLAN_CACHE_H_
#define ESTOCADA_RUNTIME_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pacb/rewriter.h"

namespace estocada::runtime {

/// Tuning knobs of a PlanCache (namespace scope so it can serve as a
/// default argument before PlanCache is complete).
struct PlanCacheOptions {
  size_t shards = 8;
  /// Total entry budget across all shards (rounded up per shard).
  size_t capacity = 1024;
};

/// Sharded LRU cache from canonical CQ key to the PACB rewriting result,
/// versioned by the Estocada catalog epoch. What is cached is the
/// *parameter-independent* half of planning — the rewritings over the
/// fragment relations — because translation to an executable plan is cheap
/// and depends on the call's parameter bindings, while the PACB rewrite is
/// the most expensive step of the query path and depends only on the query
/// shape and the fragment layout. The QueryServer keys entries with
/// CanonicalizeLifted, so texts that differ only in liftable constants
/// share an entry too. An entry may hold a lifted set that the merge guard
/// (LiftSurvives) rejects; it stays cached so the next text of that shape
/// reads the verdict instead of rewriting again.
///
/// Epoch versioning makes invalidation free of any registry of dependent
/// queries: every catalog change bumps the epoch, a lookup whose entry
/// carries an older epoch is treated as a miss and the stale entry is
/// dropped on the spot. A plan computed before a fragment change can
/// therefore never be served after it.
///
/// Entries carry a second, independent version — the *health epoch* from
/// the runtime's HealthRegistry. Store-availability changes bump it, so
/// rewritings admitted while a store was dead are invalidated when it
/// recovers (and vice versa) exactly like catalog changes invalidate
/// layout-stale plans.
///
/// Thread-safe; each shard has its own mutex, so concurrent lookups of
/// different queries rarely contend.
class PlanCache {
 public:
  using CachedRewritings = std::shared_ptr<const pacb::RewritingResult>;
  using Options = PlanCacheOptions;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;      ///< LRU capacity evictions.
    uint64_t invalidations = 0;  ///< Stale-epoch entries dropped.
    size_t entries = 0;          ///< Current resident entries.
  };

  explicit PlanCache(Options options = Options());

  /// Returns the cached rewritings for `key` when present *and* computed
  /// at (`epoch`, `health_epoch`); nullptr otherwise. A present entry with
  /// a different epoch pair is erased (the fragment layout or store
  /// availability it was computed against is gone).
  CachedRewritings Lookup(const std::string& key, uint64_t epoch,
                          uint64_t health_epoch = 0);

  /// Inserts (or replaces) the entry for `key` at (`epoch`,
  /// `health_epoch`), evicting the least-recently-used entry of the shard
  /// when over budget.
  void Insert(const std::string& key, uint64_t epoch, CachedRewritings value,
              uint64_t health_epoch = 0);

  /// Drops every entry (benchmarks use this to re-measure cold caches).
  void Clear();

  size_t size() const;
  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    uint64_t epoch = 0;
    uint64_t health_epoch = 0;
    CachedRewritings value;
  };
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
  };

  Shard& ShardFor(const std::string& key);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t per_shard_capacity_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace estocada::runtime

#endif  // ESTOCADA_RUNTIME_PLAN_CACHE_H_
