#ifndef ESTOCADA_TESTING_DIFFERENTIAL_H_
#define ESTOCADA_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "estocada/estocada.h"
#include "testing/scenario.h"

namespace estocada::testing {

/// Knobs of the differential harness. The booleans select the metamorphic
/// invariant families of the fuzzer:
///  (a) every PACB rewriting, executed through the runtime, returns the
///      staging oracle's tuples;
///  (b) the naive chase & backchase and the PACB rewriter agree on small
///      instances;
///  (c) the chase is idempotent and invariant (up to homomorphic
///      equivalence) under atom/variable permutation of the query;
///  (d) under fault-injector chaos, the serving runtime's degradation
///      ladder returns oracle-correct answers whenever it reports success;
///  (e) query answers are invariant before, during (backfilled shadow,
///      pre-cutover), and after a seeded online migration — live
///      re-fragmentation must be invisible to readers;
///  (f) an Autopilot running at its most aggressive setting (act on a
///      single observation, no dominance gate, trust the cost model
///      blindly) launches, completes, reverts, and blacklists however it
///      likes — and every answer still matches the staging oracle, and no
///      query answerable before tuning becomes unanswerable after;
///  (g) a fragment replicated K=3 ways across same-kind store instances
///      answers byte-identically to the oracle no matter which replica
///      serves: each replica is forced in turn by killing its siblings, a
///      write is taken while one replica is down, and the self-healed
///      (rebuilt, digest-verified, re-admitted) replica must then serve
///      the post-write truth alone — all without staging fallback while
///      at least one replica is healthy;
///  (h) 1–3 base relations re-homed onto *partitioned* identity fragments
///      (hash and range, N in {2, 4, 8} seed-chosen shards across
///      dedicated store instances) answer byte-identically to the
///      unpartitioned staging oracle: through scatter-gather reads,
///      through key-bound reads that prune to one shard, through
///      shard-kill chaos on a shard-replicated layout (the sibling
///      replica must serve, the dead store must not), and through a write
///      taken while a shard replica is down followed by the repairer's
///      Tick, which heals the stale shard replica through the online copy
///      — the healed replica set must then serve the post-write truth
///      alone;
///  (i) a seed-generated property graph, shredded through the graph
///      encoding onto a native graph store, answers byte-identically to
///      the staging oracle: the shred/encode round trip preserves exact
///      fact counts and the Reach1 ⊆ ... ⊆ ReachK containment chain;
///      expansion, scan, bounded-reachability, property-join, and
///      gmatch-lowered queries served by the graph store match the
///      oracle; and with the graph store killed the degradation ladder
///      still returns oracle-correct answers whenever it reports success;
///  (j) lifting invariance: every query with a liftable body constant (and
///      a self-join probe whose constants a key EGD equates) rewrites, with
///      its constants lifted into parameters, to the rewriting set of the
///      text itself once the lifted values are substituted back — unless
///      the merge guard rejects the lifted set, which is counted; served
///      through the QueryServer it returns the oracle's rows; and a second
///      text of the same shape with other constants hits the plan cache
///      and returns its own oracle's rows.
struct HarnessOptions {
  bool check_rewritings = true;   ///< Invariant family (a).
  bool check_naive = true;        ///< Invariant family (b).
  bool check_chase = true;        ///< Invariant family (c).
  bool check_chaos = true;        ///< Invariant family (d).
  bool check_migration = true;    ///< Invariant family (e).
  bool check_autopilot = true;    ///< Invariant family (f).
  bool check_replication = true;  ///< Invariant family (g).
  bool check_partition = true;    ///< Invariant family (h).
  bool check_graph = true;        ///< Invariant family (i).
  bool check_lifting = true;      ///< Invariant family (j).
  /// (b) is exponential in the universal plan; skip it beyond this size.
  size_t max_universal_plan_for_naive = 8;
  /// Subset-size cap fed to the naive enumeration; PACB rewritings above
  /// this body size are excluded from the comparison.
  size_t naive_max_subset = 3;
  /// (c) is checked on at most this many queries per scenario.
  size_t max_chase_queries = 3;
  /// Transient-fault probability per store read during the chaos phase.
  double chaos_fault_rate = 0.2;
  /// Auto-shrink failing scenarios before reporting.
  bool shrink = true;
  /// Maximum CheckScenario evaluations a shrink may spend.
  size_t shrink_budget = 120;
};

/// One invariant violation. `invariant` is a stable family tag
/// ("rewriting-oracle", "naive-vs-pacb", "chase-idempotence",
/// "chase-permutation", "chaos-correctness", "migration-invariance",
/// "autopilot-equivalence", "replication-invariance",
/// "partition-invariance", "graph-invariance", "lifting-invariance", plus
/// "setup" / "oracle" /
/// "plan" / "generator" for harness-level breakage).
struct Mismatch {
  std::string invariant;
  std::string detail;
};

/// What one scenario run checked and found.
struct ScenarioOutcome {
  uint64_t seed = 0;
  size_t queries_checked = 0;
  size_t rewritings_executed = 0;  ///< Invariant (a) executions.
  size_t naive_comparisons = 0;    ///< Invariant (b) comparisons.
  size_t chase_checks = 0;         ///< Invariant (c) query checks.
  size_t chaos_successes = 0;      ///< Invariant (d) verified answers.
  size_t chaos_errors = 0;         ///< Chaos queries that reported failure.
  size_t migration_checks = 0;     ///< Invariant (e) verified answers.
  size_t autopilot_checks = 0;     ///< Invariant (f) verified answers.
  size_t replication_checks = 0;   ///< Invariant (g) verified answers.
  size_t partition_checks = 0;     ///< Invariant (h) verified answers.
  size_t graph_checks = 0;         ///< Invariant (i) verified answers.
  size_t lifting_checks = 0;       ///< Invariant (j) lifted queries checked.
  size_t lift_guard_fired = 0;     ///< (j) lifted sets the guard rejected.
  size_t skipped_unanswerable = 0; ///< Queries with no rewriting (skipped).
  std::vector<Mismatch> mismatches;

  bool ok() const { return mismatches.empty(); }
};

/// Runs plan `index` of `plans` instead of the cost-based choice: builds
/// its operator tree with the arguments the set was planned under and
/// executes it through Estocada::ExecutePlanned, which logs `query`.
/// Family (a) and the plan-regret test run every plan of a set this way;
/// `plans` stays intact. The result counts one rewriting considered.
Result<Estocada::QueryResult> ExecutePlanAt(
    const Estocada& system, const rewriting::PlanSet& plans, size_t index,
    const pivot::ConjunctiveQuery& query);

/// Deploys `scenario` on fresh in-process store stand-ins, computes the
/// staging-oracle answer of every query, and checks the enabled invariant
/// families. Never throws or aborts: every breakage is reported as a
/// Mismatch.
ScenarioOutcome CheckScenario(const Scenario& scenario,
                              const HarnessOptions& options = {});

/// Greedy fixpoint shrinker: repeatedly tries dropping a query, a
/// fragment, a constraint, one query body atom, or half of one relation's
/// rows, keeping any candidate that still violates `invariant`. Bounded
/// by options.shrink_budget CheckScenario evaluations.
struct ShrinkResult {
  Scenario scenario;
  size_t steps = 0;        ///< Accepted shrink transformations.
  size_t evaluations = 0;  ///< CheckScenario calls spent.
};
ShrinkResult ShrinkScenario(const Scenario& scenario,
                            const std::string& invariant,
                            const HarnessOptions& options = {});

/// Generates the scenario of `seed`, checks it, and on failure shrinks
/// and renders a replayable report (seed, mismatches, shrunk scenario
/// dump). `report` is empty when the scenario passed.
struct SeedReport {
  uint64_t seed = 0;
  ScenarioOutcome outcome;
  std::string report;
};
SeedReport RunSeed(uint64_t seed, const ScenarioConfig& config = {},
                   const HarnessOptions& options = {});

/// Runs seeds [first_seed, first_seed + count) and aggregates. At most
/// `max_stored_failures` full failure reports are kept (all failures are
/// counted).
struct SweepReport {
  size_t scenarios = 0;
  size_t failures = 0;
  size_t queries = 0;
  size_t rewritings = 0;
  size_t naive_comparisons = 0;
  size_t chase_checks = 0;
  size_t chaos_successes = 0;
  size_t chaos_errors = 0;
  size_t migration_checks = 0;
  size_t autopilot_checks = 0;
  size_t replication_checks = 0;
  size_t partition_checks = 0;
  size_t graph_checks = 0;
  size_t lifting_checks = 0;
  size_t lift_guard_fired = 0;
  std::vector<SeedReport> failed;

  bool ok() const { return failures == 0; }
  /// One-line coverage/result summary.
  std::string Summary() const;
};
SweepReport RunSweep(uint64_t first_seed, size_t count,
                     const ScenarioConfig& config = {},
                     const HarnessOptions& options = {},
                     size_t max_stored_failures = 5);

}  // namespace estocada::testing

#endif  // ESTOCADA_TESTING_DIFFERENTIAL_H_
