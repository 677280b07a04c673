#ifndef ESTOCADA_ESTOCADA_ESTOCADA_H_
#define ESTOCADA_ESTOCADA_ESTOCADA_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "catalog/catalog.h"
#include "catalog/serialize.h"
#include "common/result.h"
#include "encoding/encodings.h"
#include "frontend/docfind.h"
#include "frontend/gmatch.h"
#include "frontend/sql.h"
#include "json/json.h"
#include "pacb/rewriter.h"
#include "rewriting/cq_eval.h"
#include "rewriting/materializer.h"
#include "rewriting/planner.h"
#include "rewriting/translator.h"
#include "runtime/plan_cache.h"

namespace estocada {

/// The ESTOCADA system facade (paper Fig. 1): applications register their
/// dataset schemas and the available DMSs, load data, declare fragments
/// (LAV materialized views placed in specific stores), and then query the
/// *datasets* — the system rewrites each query over the fragments with
/// PACB, picks a plan cost-wise, delegates subqueries to the stores, and
/// evaluates the rest in its own engine.
class Estocada {
 public:
  Estocada() = default;

  // ------------------------------------------------------------- Setup --

  /// Merges a dataset's pivot schema (relations + model constraints).
  Status RegisterSchema(const pivot::Schema& schema);

  /// Registers a DMS instance (non-owning pointer inside the handle).
  Status RegisterStore(catalog::StoreHandle handle);

  /// Loads one tuple of a dataset relation into the staging area (the
  /// application-side ground truth fragments are materialized from).
  Status LoadRow(const std::string& relation, engine::Row row);

  /// Bulk load.
  Status LoadRows(const std::string& relation, std::vector<engine::Row> rows);

  /// Loads a whole staged dataset at once (workload generators).
  Status LoadStaging(const rewriting::StagingData& staging);

  /// Registers a *document-native* dataset collection: merges the path-
  /// relation encoding ("<dataset>.<collection>.<path>"(docID, value) per
  /// path, plus the .doc relation and its constraints) into the pivot
  /// schema. Documents are then loaded with LoadDocument and queried
  /// through the path relations (or the DocFind front-end).
  Status RegisterDocumentCollection(
      const std::string& dataset, const std::string& collection,
      std::vector<encoding::DocumentPath> paths);

  /// Shreds one JSON document of a registered collection into the staging
  /// path relations. The document's string "_id" is used when present
  /// (must be unique), else an id is generated. Array values at a path
  /// stage one row per element (multikey). Returns the document id.
  Result<std::string> LoadDocument(const std::string& dataset,
                                   const std::string& collection,
                                   const json::JsonValue& document);

  /// Registers a dataset in the paper's *generic tree* document encoding
  /// (§III): relations <dataset>.Doc/Root/Child/Desc/Tag/Val/ArrayElem
  /// plus the tree axioms (Child ⊆ Desc, transitivity, one parent/tag/
  /// value, ...). Unlike the path-relation form, this encodes arbitrary
  /// documents without pre-registering paths.
  Status RegisterTreeDataset(const std::string& dataset);

  /// Shreds a JSON document into tree facts and stages them. `Desc` facts
  /// are completed transitively at load time, so structural queries over
  /// Desc are answerable through fragments without chasing at runtime.
  Status LoadTreeDocument(const std::string& dataset,
                          const std::string& doc_id,
                          const json::JsonValue& document);

  /// Registers a dataset in the property-graph encoding (§III applied to
  /// graphs): relations <dataset>.Node/Edge/NodeProp/EdgeProp plus the
  /// bounded-reachability relations Reach1..Reach<max_hops> and their
  /// axioms. The hop bound is remembered so LoadGraph can complete the
  /// Reach relations at load time.
  Status RegisterGraphDataset(const std::string& dataset, size_t max_hops);

  /// Shreds a property graph into pivot facts and stages them. Reach
  /// facts are completed up to the dataset's hop bound (a bounded BFS
  /// over the full staged edge set), so bounded-path queries are
  /// answerable through fragments without chasing at runtime — the same
  /// trick LoadTreeDocument plays for Desc. May be called several times
  /// per dataset; Reach is recomputed over all staged edges each call.
  Status LoadGraph(const std::string& dataset,
                   const encoding::GraphData& graph);

  // ------------------------------------------------ Incremental updates --

  /// Inserts a tuple *after* fragments exist: stages it and incrementally
  /// maintains every fragment whose view mentions the relation (delta
  /// evaluation + append; text fragments rebuild). A delta row that was
  /// already derivable through another witness may be stored twice; query
  /// answers stay correct because evaluation applies set semantics.
  Status InsertRow(const std::string& relation, engine::Row row);

  /// Document-collection variant of InsertRow: shreds and maintains.
  Result<std::string> InsertDocument(const std::string& dataset,
                                     const std::string& collection,
                                     const json::JsonValue& document);

  /// Deletes every staged tuple equal to `row` and *rebuilds* the
  /// fragments whose views mention the relation. Deletions do not have an
  /// efficient delta under bag-free view maintenance (and the paper
  /// leaves dynamic reorganization as ongoing work), so correctness is
  /// bought with a rematerialization, through the write fan-out
  /// (rewriting::MaintainFragmentsOnDelete): a replica whose store fails
  /// stays stale for the repairer, and the delete fails only when no
  /// replica of some shard took it. Returns kNotFound when no such tuple
  /// is staged.
  Status DeleteRow(const std::string& relation, const engine::Row& row);

  // -------------------------------------------------------- Fragments --

  /// Declares and materializes a fragment. `view_text` is pivot syntax,
  /// e.g. "F_cart(u, c) :- mk.carts(u, c)"; `adornments` flags
  /// access-pattern-restricted positions (empty = all free);
  /// `index_positions` requests extra secondary indexes (beyond the
  /// input-adorned positions, which are always indexed).
  Status DefineFragment(const std::string& view_text,
                        const std::string& store_name,
                        std::vector<pivot::Adornment> adornments = {},
                        std::vector<size_t> index_positions = {});

  /// Structured variant.
  Status DefineFragment(pacb::ViewDefinition view,
                        const std::string& store_name,
                        std::vector<size_t> index_positions = {});

  /// Drops a fragment: removes the stored container and the descriptor.
  Status DropFragment(const std::string& name);

  // -------------------------------------------------- Replication --
  // K-way fragment replication (robustness): a replicated fragment keeps
  // one placement per store in its replica set, each with its own
  // container and freshness epoch. Reads route to one healthy fresh
  // replica (rewriting/translator.cc); writes fan out to every fresh one
  // (rewriting/materializer.cc). The per-replica calls below are the
  // ReplicaRepairer's building blocks (the placement fill itself goes
  // through the online-copy calls further down) — they never bump the
  // catalog epoch, because replica routing happens per translation
  // against the live placement bits, not in cached plans. Every one of
  // them addresses a placement as (fragment, shard, replica) — shard 0 is
  // the whole fragment when it is unpartitioned — and answers kOutOfRange
  // for an address the fragment does not have.

  /// Declares a fragment replicated across `replica_stores` (K = size;
  /// the first store is the primary, container "<fragment>") and
  /// materializes every replica. Sibling containers default to
  /// "<fragment>#r<i>".
  Status DefineReplicatedFragment(
      const std::string& view_text,
      const std::vector<std::string>& replica_stores,
      std::vector<pivot::Adornment> adornments = {},
      std::vector<size_t> index_positions = {});

  /// Structured variant.
  Status DefineReplicatedFragment(
      pacb::ViewDefinition view,
      const std::vector<std::string>& replica_stores,
      std::vector<size_t> index_positions = {});

  // -------------------------------------------------- Partitioning --
  // Sharded fragments (scale-out): a partitioned fragment splits its view
  // rows across N shard containers ("<fragment>#p<i>") by hash or range
  // on one head position. Reads with the key bound route to the single
  // owning shard; unbound reads scatter over every shard and gather in
  // shard order (rewriting/translator.cc); writes split the delta and fan
  // each bucket to its shard (rewriting/materializer.cc). Each shard may
  // itself be K-replicated — the two mechanisms compose.

  /// Declares a fragment partitioned across `shard_stores` (one store per
  /// shard, N = size >= 2) by `kind` on head position `key_position`, and
  /// materializes every shard. Range partitioning takes `bounds` — N-1
  /// strictly ascending upper-exclusive split values; hash takes none.
  Status DefinePartitionedFragment(
      const std::string& view_text, catalog::PartitionSpec::Kind kind,
      size_t key_position, const std::vector<std::string>& shard_stores,
      std::vector<engine::Value> bounds = {},
      std::vector<pivot::Adornment> adornments = {},
      std::vector<size_t> index_positions = {});

  /// Structured variant; `shard_replica_stores[s]` lists shard s's
  /// replica stores (first = primary, siblings "<fragment>#p<s>#r<i>"),
  /// so a shard can be replicated for fault tolerance.
  Status DefinePartitionedFragment(
      pacb::ViewDefinition view, catalog::PartitionSpec::Kind kind,
      size_t key_position,
      const std::vector<std::vector<std::string>>& shard_replica_stores,
      std::vector<engine::Value> bounds = {},
      std::vector<size_t> index_positions = {});

  /// Starts a rebuild of one replica: flags the placement `rebuilding`
  /// (routing skips it, write fan-out stops touching its container) and
  /// re-creates its container empty. Re-entrant — retrying an aborted
  /// rebuild restarts from a clean container. Refuses to rebuild the only
  /// replica of a shard (nothing would be left to serve its reads).
  Status BeginReplicaRebuild(const std::string& name, size_t shard,
                             size_t replica);

  /// Re-admits a rebuilt replica: stamps it with its shard's current
  /// write epoch and clears `rebuilding`, so routing and the write
  /// fan-out see it again. Call only after the container verified against
  /// the staging truth (VerifyReplica) — admission itself does not check.
  Status AdmitReplica(const std::string& name, size_t shard, size_t replica);

  /// Set-compares one replica's container against the shard's rows of the
  /// fragment view over staging (the ground truth). OK iff equal.
  Status VerifyReplica(const std::string& name, size_t shard,
                       size_t replica) const;

  /// Order-independent content digest of one replica (anti-entropy:
  /// same-kind siblings of a shard must digest equal). Every kind reads
  /// back, text included; digests compare only within a kind.
  Result<uint64_t> ReplicaDigest(const std::string& name, size_t shard,
                                 size_t replica) const;

  // ---------------------------------------------- Shadow fragments --
  // Building blocks of the online migration engine (src/migration). A
  // *shadow* fragment has a descriptor and a physical container but is
  // invisible to the rewriter/planner, to incremental maintenance, and
  // to catalog export, so it can be backfilled in batches while the old
  // layout keeps serving — and abandoned without a trace on abort. None
  // of these calls bumps the catalog epoch except
  // ActivateShadowFragment, which is the migration's atomic cutover.

  /// Registers a shadow fragment and creates its *empty* container (no
  /// view evaluation, no epoch bump). On failure nothing is left behind.
  Status DefineShadowFragment(pacb::ViewDefinition view,
                              const std::string& store_name,
                              std::vector<size_t> index_positions = {});

  /// Flips a shadow fragment to active — the migration cutover. This is
  /// a catalog change: the rewriter is dirtied and the epoch bumps, so
  /// every cached plan of the old layout is invalidated.
  Status ActivateShadowFragment(const std::string& name);

  /// Rollback: drops a shadow fragment's container and descriptor
  /// without an epoch bump (the planner never saw it).
  Status DropShadowFragment(const std::string& name);

  // ------------------------------------------------- Online copies --
  // Building blocks of the online-copy pipeline (src/migration/
  // online_copy.h) that migrations and replica repairs share. Each call
  // writes one *non-serving* placement — (fragment, shard, replica) of a
  // shadow fragment (shard 0, replica 0, its only placement) or of a
  // replica flagged `rebuilding` — and is refused for a serving
  // placement, which writes reach through the maintenance fan-out only.
  // A shard's placement keeps only the shard's rows. None bumps an epoch.

  /// Appends backfill rows to the placement's container.
  Status AppendToPlacement(const std::string& name, size_t shard,
                           size_t replica,
                           const std::vector<engine::Row>& rows);

  /// Replays captured inserts ((relation, row) pairs already in staging)
  /// into the placement through the delta rule. The placement's kind must
  /// take appends; rebuild the others.
  Status MaintainPlacement(
      const std::string& name, size_t shard, size_t replica,
      const std::vector<std::pair<std::string, engine::Row>>& deltas);

  /// Rebuilds the placement's container from the staging truth (drop +
  /// re-evaluate + native load of the shard's rows): the fill for kinds
  /// that take no appends (text), and the catch-up after a deletion,
  /// which has no append delta.
  Status RebuildPlacement(const std::string& name, size_t shard,
                          size_t replica);

  /// The fragment's view evaluated over the staging area with set
  /// semantics — the ground truth its container must hold.
  Result<std::vector<engine::Row>> EvaluateFragmentView(
      const std::string& name) const;

  /// Set-compares a fragment's physical container against its view over
  /// staging (shadow or active; all five store kinds). OK iff equal.
  Status VerifyFragment(const std::string& name) const;

  const catalog::Catalog& catalog() const { return catalog_; }

  /// Checkpoints the fragment layout (storage descriptors) as JSON text.
  std::string ExportCatalogJson() const;

  /// Re-creates a fragment layout from ExportCatalogJson output: registers
  /// each descriptor and re-materializes it from the staged data. Stores
  /// and dataset schemas must already be registered under the same names.
  Status ImportCatalogJson(const std::string& json_text);

  // ----------------------------------------------------------- Queries --

  struct QueryResult {
    std::vector<engine::Row> rows;
    /// Work split across the underlying DMSs (demo step 3).
    rewriting::RuntimeStats runtime_stats;
    /// The rewriting the cost-based choice picked and its plan.
    std::string rewriting_text;
    std::string plan_text;
    double estimated_cost = 0;
    size_t rewritings_considered = 0;
    pacb::RewriterStats rewriter_stats;
    /// ESTOCADA's own runtime share (demo step 3 splits statistics
    /// "across the underlying DMS and ESTOCADA's runtime"): rows shipped
    /// out of the stores into the engine vs. rows finally returned — the
    /// difference is joined/filtered/deduplicated by the engine.
    uint64_t rows_from_stores = 0;
    /// The answer came from the staging area — correct but slow: the
    /// query's parameter values clash in the chase, so no rewriting
    /// exists, or (fault-tolerant serving path, bottom rung of the
    /// degradation ladder) every fragment-based rewriting was unavailable.
    bool degraded_to_staging = false;
    /// Execution attempts the serving path spent on this query (1 = no
    /// retry; only the fault-tolerant path sets anything higher).
    int attempts = 1;
    /// Immediate re-plans after a circuit breaker tripped mid-attempt:
    /// routing then sees a different replica set, so the serving path
    /// re-plans onto sibling replicas without consuming a retry attempt
    /// or sleeping a backoff.
    int reroutes = 0;
    /// Stores that were open-circuit when this query was planned.
    std::vector<std::string> excluded_stores;

    double simulated_cost() const {
      return runtime_stats.TotalSimulatedCost();
    }

    /// "stores shipped N rows; engine returned M" one-liner.
    std::string RuntimeSplitLine() const;
  };

  /// Answers a query over the *datasets* through the fragments. The query
  /// is pivot CQ text; '$'-variables take values from `parameters`. Like
  /// every query method below, it makes one Answer call keyed by the CQ's
  /// own text.
  Result<QueryResult> Query(
      const std::string& query_text,
      const std::map<std::string, engine::Value>& parameters = {});

  /// Native-language front-ends (paper §III: each dataset is accessed in
  /// the language of its model). All reduce to pivot CQs and share the
  /// whole rewriting/delegation pipeline.
  /// SQL (conjunctive SELECT-FROM-WHERE) for relational datasets:
  Result<QueryResult> QuerySql(
      const std::string& sql,
      const std::map<std::string, engine::Value>& parameters = {});
  /// Document find() for document collections:
  Result<QueryResult> QueryDocFind(
      const frontend::DocFindSpec& spec,
      const std::map<std::string, engine::Value>& parameters = {});
  /// Key-based access for key-value-shaped relations:
  Result<QueryResult> QueryKeyLookup(const std::string& relation,
                                     const engine::Value& key);
  /// Graph pattern matching (MATCH-style) for property-graph datasets:
  Result<QueryResult> QueryGraphMatch(
      const frontend::GraphMatchSpec& spec,
      const std::map<std::string, engine::Value>& parameters = {});

  /// Post-combination operations of the (optional) GAV layer the paper
  /// sketches: algebraic operators applied *on top of* individually
  /// rewritten queries. Aggregation references the union's head columns
  /// by position.
  struct ProgramOps {
    std::vector<size_t> group_by;
    std::vector<engine::AggSpec> aggregates;
    std::vector<size_t> order_by;  ///< Applied after aggregation.
    size_t limit = 0;              ///< 0 = no limit.
  };

  /// Evaluates the union of several CQs (same head arity), each rewritten
  /// and planned independently over the fragments, with `ops` applied to
  /// the combined stream by ESTOCADA's own engine. Once the program has
  /// run, each branch goes into the workload log with the simulated cost
  /// its stores measured; a failed program logs nothing.
  Result<QueryResult> QueryProgram(
      const std::vector<std::string>& cq_texts,
      const std::map<std::string, engine::Value>& parameters,
      const ProgramOps& ops);
  Result<QueryResult> QueryProgram(
      const std::vector<std::string>& cq_texts,
      const std::map<std::string, engine::Value>& parameters = {}) {
    return QueryProgram(cq_texts, parameters, ProgramOps());
  }

  /// Plans without executing (demo step 2: inspect rewritings + plans).
  Result<rewriting::PlanSet> Explain(
      const std::string& query_text,
      const std::map<std::string, engine::Value>& parameters = {});

  /// Reference evaluation directly over the staging area (ground truth
  /// for tests and the vanilla baseline in benches).
  Result<std::vector<engine::Row>> EvaluateOverStaging(
      const std::string& query_text,
      const std::map<std::string, engine::Value>& parameters = {}) const;

  /// Parsed-query variant (const, like the query pipeline).
  Result<std::vector<engine::Row>> EvaluateOverStagingPrepared(
      const pivot::ConjunctiveQuery& query,
      const std::map<std::string, engine::Value>& parameters = {}) const;

  // ---------------------------------------------------- Query pipeline --
  //
  // The one path every query takes (paper Fig. 1; DESIGN.md §2.x). It is
  // const, so a QueryServer runs it under a shared lock after calling
  // PrepareRewriter() under its exclusive one. Steps: (1) plan-cache
  // lookup keyed by (query key, catalog epoch, health epoch) — every
  // catalog change bumps the epoch, so no entry outlives its fragment
  // layout; (2) on a miss, the PACB rewrite; (3) the merge guard
  // (pacb::ParametersSurvive): a set that merged parameters, or a failed
  // rewrite of a lifted query, re-plans once with the values inlined, and
  // when that chase fails after the guard fired the values clash and the
  // staging area answers (`degraded_to_staging`); (4) Planner::
  // PlanRewritings under the request's constraints; (5) execute and log.

  /// One lowered query and how to plan it.
  struct QueryRequest {
    const pivot::ConjunctiveQuery& query;
    const std::string& key;  ///< Plan-cache key: `query.ToString()`.
    const std::map<std::string, engine::Value>& parameters;
    rewriting::PlanConstraints constraints = {};
    uint64_t health_epoch = 0;  ///< Store availability behind constraints.
    bool lifted = false;  ///< Body constants were lifted into parameters.
  };

  /// What one pipeline call did (the server's metrics and breakers).
  struct PipelineReport {
    int cache_hits = 0;
    int cache_misses = 0;  ///< Each miss ran one PACB rewrite.
    bool lift_rejected = false;  ///< Re-planned with the values inlined.
    bool values_clash = false;   ///< That re-plan failed the chase.
    /// The stores of the chosen plan, set once one was chosen.
    std::optional<std::vector<std::string>> plan_stores;
  };

  /// Steps 1–4 (Explain, QueryProgram's branches). A values clash fails
  /// with kChaseFailure. Requires rewriter_ready().
  Result<rewriting::PlanSet> Plan(const QueryRequest& request,
                                  PipelineReport* report = nullptr) const;

  /// Steps 1–5. Requires rewriter_ready().
  Result<QueryResult> Answer(const QueryRequest& request,
                             PipelineReport* report = nullptr) const;

  /// The staging area's exact answer, marked `degraded_to_staging`, for
  /// when no rewriting can run; `reason` completes the plan text.
  Result<QueryResult> AnswerFromStaging(
      const pivot::ConjunctiveQuery& query,
      const std::map<std::string, engine::Value>& parameters,
      const std::string& reason) const;

  /// Monotone counter incremented by every catalog change (schema merge,
  /// fragment definition/drop, catalog import, applied recommendation).
  uint64_t catalog_epoch() const {
    return catalog_epoch_.load(std::memory_order_acquire);
  }

  /// Builds the PACB rewriter if a catalog change left it dirty. Callers
  /// that want the const planning path must run this (under an exclusive
  /// lock, when serving concurrently) after any catalog change.
  Status PrepareRewriter() { return RefreshRewriter(); }

  /// True when the rewriter reflects the current catalog, i.e. the const
  /// planning path is usable without PrepareRewriter().
  bool rewriter_ready() const {
    return !rewriter_dirty_ && rewriter_ != nullptr;
  }

  /// Constants the rewriter's constraint set names (schema/encoding
  /// dependencies and view definitions); requires rewriter_ready(). The
  /// serving runtime lifts every other body constant into a parameter.
  const std::set<pivot::Constant>& named_constants() const {
    return rewriter_->named_constants();
  }

  /// Rewrites a query without mutating the facade or its plan cache;
  /// requires rewriter_ready(). Runs the full PACB rewrite — the system's
  /// most expensive step — and returns the rewriting set, kNoRewriting
  /// when it is empty.
  Result<pacb::RewritingResult> RewritePrepared(
      const pivot::ConjunctiveQuery& query) const;

  /// Executes the best plan of `plans` and assembles the QueryResult,
  /// recording `query` in the workload log (internally synchronized).
  /// Callers that have the concrete parameter bindings pass them so the
  /// log retains replayable samples for the Autopilot's cost probes.
  /// Const: safe to run from many threads as long as no catalog or data
  /// mutation runs concurrently.
  Result<QueryResult> ExecutePlanned(
      rewriting::PlanSet plans, const pivot::ConjunctiveQuery& query,
      const std::map<std::string, engine::Value>& parameters = {}) const;

  /// The plan cache's counters (thread-safe).
  runtime::PlanCache::Stats plan_cache_stats() const {
    return plan_cache_.stats();
  }

  /// Drops every cached rewriting set (benchmarks measuring cold caches).
  void ClearPlanCache() { plan_cache_.Clear(); }

  // ----------------------------------------------------------- Advisor --

  const advisor::WorkloadLog& workload_log() const { return workload_log_; }
  void ClearWorkloadLog() { workload_log_.Clear(); }

  /// Runs the storage advisor over the accumulated workload log.
  std::vector<advisor::Recommendation> Advise(
      const advisor::AdvisorOptions& options = {}) const;

  /// Applies one recommendation (defines or drops the fragment).
  Status ApplyRecommendation(const advisor::Recommendation& rec);

 private:
  /// Rebuilds the PACB rewriter after a fragment change.
  Status RefreshRewriter();

  /// Marks the fragment layout changed: dirties the rewriter and bumps the
  /// catalog epoch so serving-layer plan caches drop their entries.
  void MarkCatalogChanged() {
    rewriter_dirty_ = true;
    catalog_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Registers `desc` and fills its containers — materialized from
  /// staging, or created empty for a shadow — dropping the containers
  /// already created and the descriptor again when that fails. Active
  /// fragments bump the catalog epoch.
  Status RegisterAndMaterialize(catalog::StorageDescriptor desc);

  catalog::Catalog catalog_;
  rewriting::StagingData staging_;
  std::unique_ptr<pacb::Rewriter> rewriter_;
  bool rewriter_dirty_ = true;
  std::atomic<uint64_t> catalog_epoch_{0};
  /// Mutable so the const serving path can log executions; WorkloadLog
  /// synchronizes its writers internally.
  mutable advisor::WorkloadLog workload_log_;
  /// Mutable for the same reason: the const pipeline fills it, and
  /// PlanCache synchronizes itself.
  mutable runtime::PlanCache plan_cache_;
  /// Registered document collections: "<dataset>.<collection>" -> paths.
  std::map<std::string, std::vector<encoding::DocumentPath>> doc_collections_;
  /// Registered graph datasets: dataset -> the encoding's hop bound.
  std::map<std::string, size_t> graph_hop_bounds_;
  uint64_t next_doc_id_ = 0;
};

}  // namespace estocada

#endif  // ESTOCADA_ESTOCADA_ESTOCADA_H_
