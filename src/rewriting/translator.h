#ifndef ESTOCADA_REWRITING_TRANSLATOR_H_
#define ESTOCADA_REWRITING_TRANSLATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/operator.h"
#include "pivot/query.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {

/// Planning-time availability constraints: fragment reads route around
/// the excluded stores — each atom resolves to its first replica
/// placement that is fresh, not mid-rebuild, and not excluded. A
/// rewriting with some fragment left placement-less is dropped from the
/// candidate set. Fed by the runtime's circuit breakers — this is what
/// turns rewriting multiplicity *and* replica multiplicity into
/// failover. Exclusions are per store instance: an open breaker on one
/// instance never affects fragments held by other instances of the same
/// kind.
struct PlanConstraints {
  std::vector<std::string> excluded_stores;
  /// Stores on probation (half-open circuit breakers): still routable, but
  /// a fragment read prefers any replica on a fully-healthy store. Probe
  /// traffic reaches a recovering store only when no healthy replica can
  /// serve instead — a flapping dead replica earlier in placement order
  /// must never shadow a live sibling behind it.
  std::vector<std::string> probation_stores;

  bool Excludes(const std::string& store) const;
  bool OnProbation(const std::string& store) const;
};

/// An executable plan for one rewriting: an engine operator tree whose
/// leaves call into the underlying stores (delegated subqueries, point
/// lookups, searches), plus cost estimates and a printable description.
struct PlannedQuery {
  engine::OperatorPtr root;
  /// Work counters filled in while `root` executes.
  std::shared_ptr<RuntimeStats> runtime_stats;
  double estimated_cost = 0;
  double estimated_rows = 0;
  /// The rewriting this plan evaluates (over fragment relations).
  pivot::ConjunctiveQuery rewriting;
  /// Delegated native queries, one line each (SQL text, KV gets, ...).
  std::vector<std::string> delegated;
  /// Names of the stores this plan actually reads — the *routed* replica
  /// placements, not the fragments' primaries (sorted, deduplicated).
  /// The serving runtime attributes execution failures and targets
  /// circuit breakers using this list.
  std::vector<std::string> stores_used;

  /// Operator tree rendering plus the delegation list.
  std::string ToString() const;
};

/// Translates rewritings (CQs over fragment relations) into executable
/// plans: groups atoms per store ("identify the largest subquery that can
/// be delegated"), reformulates each group in the store's native API,
/// stitches groups with hash joins and BindJoins (for access-pattern
/// restricted sources), and estimates cost with textbook cardinality
/// formulas over the catalog's fragment statistics.
class Translator {
 public:
  explicit Translator(const catalog::Catalog* catalog);

  /// Builds the executable plan of `rewriting`. `parameters` supplies
  /// values for '$'-prefixed variables. Each fragment atom is routed to
  /// one available replica placement under `constraints`; with no
  /// constraints and fresh primaries this is always the primary. Fails
  /// kUnavailable when some fragment has no available placement.
  Result<PlannedQuery> Plan(
      const pivot::ConjunctiveQuery& rewriting,
      const std::map<std::string, engine::Value>& parameters = {},
      const PlanConstraints& constraints = {}) const;

  /// Cost-only variant of Plan: identical routing, feasibility checks,
  /// error surface and cost arithmetic (one shared code path — the two
  /// modes cannot disagree on a plan's estimated cost), but fetch
  /// closures and the operator tree are never built: `root` is null.
  /// The planner estimates every candidate this way and fully Plan()s
  /// only the winner.
  Result<PlannedQuery> Estimate(
      const pivot::ConjunctiveQuery& rewriting,
      const std::map<std::string, engine::Value>& parameters = {},
      const PlanConstraints& constraints = {}) const;

 private:
  Result<PlannedQuery> PlanInternal(
      const pivot::ConjunctiveQuery& rewriting,
      const std::map<std::string, engine::Value>& parameters,
      const PlanConstraints& constraints, bool build) const;

  const catalog::Catalog* catalog_;
};

}  // namespace estocada::rewriting

#endif  // ESTOCADA_REWRITING_TRANSLATOR_H_
