#ifndef ESTOCADA_RUNTIME_QUERY_SERVER_H_
#define ESTOCADA_RUNTIME_QUERY_SERVER_H_

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "estocada/estocada.h"
#include "runtime/canonical.h"
#include "runtime/health.h"
#include "runtime/metrics.h"
#include "runtime/plan_cache.h"
#include "runtime/retry.h"

namespace estocada::runtime {

/// Tuning knobs of a QueryServer.
struct ServerOptions {
  /// Worker threads executing Submit()ted queries. Direct Query() calls
  /// run on the caller's thread, so total concurrency is workers + direct
  /// callers.
  size_t worker_threads = 8;
  PlanCache::Options cache;
  /// Master switch for the resilience ladder (retry → failover rewriting
  /// → staging fallback). Off = PR-1 behavior: the first store error
  /// kills the query. Benchmarks compare both.
  bool fault_tolerant = true;
  RetryPolicy retry;
  /// Bound on immediate sibling re-routes per query. When an attempt
  /// fails *and* the health epoch moved during it (a breaker tripped or
  /// re-opened), routing now sees a different replica set — the server
  /// re-plans right away, without a backoff sleep and without consuming
  /// a retry attempt, so a replica's death costs one failed read, not a
  /// retry ladder. The bound stops a flapping store from spinning.
  int max_reroutes = 8;
  HealthOptions health;
  /// Seeds the backoff-jitter generator (deterministic chaos runs).
  uint64_t backoff_jitter_seed = 0x5ca1ab1e;
};

/// The concurrent serving runtime wrapped around the Estocada facade —
/// the mediator tier the paper's demo does not need (it issues each query
/// once, single-threaded) but a production polystore does:
///
///  * many clients query concurrently: the read path holds a shared lock,
///    so plan translation and execution over the stores run in parallel;
///  * catalog changes (fragment definition/drop, applied recommendations,
///    data updates) take the exclusive lock, rebuild the PACB rewriter
///    once, and bump the catalog epoch;
///  * structurally identical queries share one plan-cache entry keyed by
///    their canonical form, so the PACB rewrite — the most expensive step
///    of the query path — runs once per query shape per fragment layout
///    instead of once per call; body constants are lifted into parameters
///    first, so texts that differ only in constants share it too;
///  * the epoch versioning guarantees a plan cached before a fragment
///    change is never served after it;
///  * store failures walk a degradation ladder instead of killing the
///    query: when a breaker trips mid-attempt the query *re-routes*
///    immediately — replicated fragments re-plan onto sibling replicas
///    with no backoff and no attempt consumed; otherwise transient
///    errors are retried with jittered exponential backoff; repeated
///    failures trip a per-store-instance circuit breaker, after which
///    routing avoids that instance's placements and the best *surviving*
///    rewriting answers (the paper's rewriting multiplicity as
///    availability); when no rewriting survives, the staging area
///    answers — degraded but correct; only non-retryable errors surface.
///
/// The wrapped Estocada must not be mutated behind the server's back while
/// serving; route all catalog/data changes through the server.
class QueryServer {
 public:
  explicit QueryServer(Estocada* system, ServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // -------------------------------------------------------- Query path --

  /// Answers one query on the calling thread. Thread-safe: any number of
  /// client threads may call concurrently.
  Result<Estocada::QueryResult> Query(
      const std::string& query_text,
      const std::map<std::string, engine::Value>& parameters = {});

  /// Enqueues a query on the server's worker pool; the future delivers
  /// the result.
  std::future<Result<Estocada::QueryResult>> Submit(
      std::string query_text,
      std::map<std::string, engine::Value> parameters = {});

  /// Blocks until every Submit()ted query has finished.
  void Drain();

  // -------------------------------------------- Catalog administration --
  // All exclusive: they quiesce the read path, apply the change, rebuild
  // the rewriter, and leave the bumped epoch to invalidate cached plans.

  Status DefineFragment(const std::string& view_text,
                        const std::string& store_name,
                        std::vector<pivot::Adornment> adornments = {},
                        std::vector<size_t> index_positions = {});
  /// Replicated variant: K placements, one per store in `replica_stores`.
  Status DefineReplicatedFragment(
      const std::string& view_text,
      const std::vector<std::string>& replica_stores,
      std::vector<pivot::Adornment> adornments = {},
      std::vector<size_t> index_positions = {});
  /// Partitioned variant: N shards, each with its own replica store list
  /// (single-element lists = unreplicated shards).
  Status DefinePartitionedFragment(
      const std::string& view_text, catalog::PartitionSpec::Kind kind,
      size_t key_position,
      const std::vector<std::vector<std::string>>& shard_replica_stores,
      std::vector<engine::Value> bounds = {},
      std::vector<pivot::Adornment> adornments = {},
      std::vector<size_t> index_positions = {});
  Status DropFragment(const std::string& name);
  Status ApplyRecommendation(const advisor::Recommendation& rec);
  Status InsertRow(const std::string& relation, engine::Row row);
  Status DeleteRow(const std::string& relation, const engine::Row& row);

  /// Runs the storage advisor over the accumulated workload log.
  std::vector<advisor::Recommendation> Advise(
      const advisor::AdvisorOptions& options = {});

  /// Shared-lock advisor entry points for the Autopilot: they snapshot
  /// the workload log (internally consistent) and run concurrently with
  /// the query path instead of quiescing it — a tuner tick must not stall
  /// serving. AdviseCandidates returns each recommendation with its
  /// workload evidence (shape, observed cost/rows, replayable probes).
  std::vector<advisor::ScoredCandidate> AdviseCandidates(
      const advisor::AdvisorOptions& options = {});

  /// Classifies the current workload (lookup-heavy / join-heavy / mixed /
  /// insufficient) from a log snapshot, under the shared lock.
  advisor::PatternSummary ClassifyWorkload(
      const advisor::AdvisorOptions& options = {});

  /// Runs `fn` against the wrapped facade under the exclusive lock, then
  /// rebuilds the rewriter if `fn` dirtied it. The online migration
  /// engine stages its shadow-fragment work through this: acquiring the
  /// exclusive lock *is* the drain — every in-flight shared-lock query
  /// completes first, and queries admitted afterwards observe whatever
  /// epoch `fn` left behind. Keep `fn` short; the read path is stalled.
  Status WithAdminLock(const std::function<Status(Estocada*)>& fn);

  /// Runs `fn` under the shared lock, concurrently with the query path
  /// (const access only — safe against everything but admin calls).
  Status WithReadLock(const std::function<Status(const Estocada&)>& fn);

  // --------------------------------------------------- Update events --
  // Data updates routed through the server can be observed by listeners
  // (the migration engine captures them as catch-up deltas for its
  // shadow target). Listeners run under the exclusive lock, after the
  // update succeeded and in registration order; they must be fast and
  // must not call back into the server.

  struct UpdateEvent {
    enum class Kind { kInsert, kDelete };
    Kind kind = Kind::kInsert;
    std::string relation;
    engine::Row row;
  };
  using UpdateListener = std::function<void(const UpdateEvent&)>;

  /// Registers a listener; returns a token for RemoveUpdateListener.
  uint64_t AddUpdateListener(UpdateListener listener);
  void RemoveUpdateListener(uint64_t token);

  // ------------------------------------------------------ Introspection --

  MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  /// The live counters (thread-safe): the ReplicaRepairer records
  /// rebuilds here; metrics() above is the snapshot read path.
  ServerMetrics& server_metrics() { return metrics_; }
  PlanCache::Stats cache_stats() const { return cache_.stats(); }
  size_t worker_threads() const { return pool_.num_threads(); }

  /// The per-store circuit breakers (tests and benchmarks inspect states
  /// and reset between phases; execution outcomes feed it automatically).
  HealthRegistry& health() { return health_; }

  /// Drops every cached plan (benchmarks measuring cold caches).
  void ClearPlanCache() { cache_.Clear(); }

  /// Resets the metrics counters (between benchmark phases; do not call
  /// while queries are in flight).
  void ResetMetrics() { metrics_.Reset(); }

 private:
  /// One execution attempt under the shared lock the caller already
  /// holds: canonicalize (memoized, body constants lifted into
  /// parameters) → cache-lookup → (on miss) rewrite → merge guard →
  /// translate with the current breaker exclusions → execute, feeding
  /// breaker state with the outcome. When the guard rejects the lifted
  /// rewriting set, the text is planned with its own constants instead.
  /// Falls back to the staging area when planning is starved by the
  /// exclusions, or when those constants clash in the chase. `attempt` is
  /// 1-based and only labels the result.
  /// `planned_health_epoch` (optional) receives the health epoch the
  /// attempt planned against, so the caller can tell whether a failure
  /// changed the routing landscape (breaker trip → immediate re-route).
  Result<Estocada::QueryResult> ServeLocked(
      const std::string& query_text,
      const std::map<std::string, engine::Value>& parameters, int attempt,
      uint64_t* planned_health_epoch = nullptr);

  /// The PACB rewriting set of `canonical` at (`epoch`, `health_epoch`):
  /// the plan cache's entry, or a fresh rewrite that is then cached.
  Result<PlanCache::CachedRewritings> RewritingsLocked(
      const CanonicalQuery& canonical, uint64_t epoch, uint64_t health_epoch);

  /// Degradation-ladder bottom: answer from the staging area.
  Result<Estocada::QueryResult> ServeFromStaging(
      const CanonicalQuery& canonical,
      const std::map<std::string, engine::Value>& parameters,
      std::vector<std::string> excluded, int attempt);

  /// Stores of `plan_stores` named in `st`'s message ("store '<id>'");
  /// all of them when none is named (can't attribute — suspect every
  /// store the plan read).
  std::vector<std::string> AttributeFailure(
      const Status& st, const std::vector<std::string>& plan_stores) const;

  Result<Estocada::QueryResult> ServeTimed(
      const std::string& query_text,
      const std::map<std::string, engine::Value>& parameters);

  /// Parse + CanonicalizeLifted of `query_text`, memoized. The lift
  /// depends on the rewriter's named constants, so an entry records the
  /// catalog `epoch` it was lifted under and is redone at a later one;
  /// an entry whose text has no body constant holds at every epoch. Call
  /// with the shared lock held and the rewriter ready.
  Result<std::shared_ptr<const CanonicalQuery>> CanonicalizeCached(
      const std::string& query_text, uint64_t epoch);

  /// Fires `event` at every registered listener (exclusive lock held).
  void NotifyUpdate(const UpdateEvent& event);

  Estocada* system_;
  ServerOptions options_;
  /// Update listeners (guarded by their own mutex: registration may race
  /// the admin path).
  std::mutex listeners_mu_;
  std::map<uint64_t, UpdateListener> listeners_;
  uint64_t next_listener_token_ = 1;
  /// Guards the Estocada facade: shared for the query path, exclusive for
  /// catalog/data changes and rewriter rebuilds.
  std::shared_mutex mu_;
  PlanCache cache_;
  /// Raw query text → canonical form, in two generations (guarded by
  /// canon_mu_). New entries go to the current one; when it holds
  /// kCanonGenerationCap texts it becomes the previous one and the old
  /// previous one is dropped. A hit in the previous generation moves the
  /// entry back to the current one, so a text served at least once per
  /// generation is never re-parsed, however many one-off texts stream by.
  struct MemoEntry {
    std::shared_ptr<const CanonicalQuery> canonical;
    uint64_t epoch = 0;      ///< Catalog epoch of the lift.
    bool any_epoch = false;  ///< No body constant: the lift is a no-op.
  };
  using Memo = std::unordered_map<std::string, MemoEntry>;
  /// Inserts into the current generation, rotating first when it is full;
  /// the dropped generation moves to `*retired`, so the caller frees it
  /// after releasing canon_mu_.
  void MemoInsertLocked(const std::string& query_text, MemoEntry entry,
                        Memo* retired);
  std::mutex canon_mu_;
  Memo canon_current_;
  Memo canon_previous_;
  static constexpr size_t kCanonGenerationCap = 2048;
  ServerMetrics metrics_;
  HealthRegistry health_;
  /// Backoff-jitter draws (behind its own mutex; failures are rare).
  std::mutex rng_mu_;
  Rng rng_;
  ThreadPool pool_;
};

}  // namespace estocada::runtime

#endif  // ESTOCADA_RUNTIME_QUERY_SERVER_H_
