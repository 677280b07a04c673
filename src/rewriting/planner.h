#ifndef ESTOCADA_REWRITING_PLANNER_H_
#define ESTOCADA_REWRITING_PLANNER_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "pacb/rewriter.h"
#include "rewriting/translator.h"

namespace estocada::rewriting {

/// Everything the query evaluator produced for one query: the PACB
/// rewritings, an executable plan per rewriting, and the index of the
/// cost-based choice. Demo step 2 ("inspect the translation, the PACB
/// output, the translated form and the executable plan") reads this.
struct PlanSet {
  pacb::RewritingResult rewriting_result;
  /// Parallel to rewritings. Only the best plan carries an operator tree
  /// (`root`), which Estocada::ExecutePlanned runs; the others are
  /// cost-only estimates. To run one of those, Plan its rewriting through
  /// a Translator with `parameters`/`constraints` below.
  std::vector<PlannedQuery> plans;
  size_t best = 0;  ///< Index of the chosen plan.
  /// The planning inputs, kept so a cost-only plan can be materialized
  /// later with the exact arguments it was estimated under.
  std::map<std::string, engine::Value> parameters;
  PlanConstraints constraints;

  PlannedQuery& best_plan() { return plans[best]; }
  const PlannedQuery& best_plan() const { return plans[best]; }
};

/// `query` with each '$'-parameter that `parameters` gives a scalar value
/// replaced by that value as a constant. A list value stays a parameter:
/// the pivot model has no list constants.
pivot::ConjunctiveQuery InlineParameters(
    const pivot::ConjunctiveQuery& query,
    const std::map<std::string, engine::Value>& parameters);

/// The cost-based choice among PACB rewritings: translates every rewriting
/// to an executable plan and picks the cheapest by estimated cost. The
/// rewrite itself is Estocada's query pipeline's step, which caches it.
class Planner {
 public:
  /// The rewriter argument is unused; it stays so existing
  /// `Planner(&catalog, nullptr)` callers compile unchanged.
  Planner(const catalog::Catalog* catalog, const pacb::Rewriter*);

  /// Turns PACB rewritings into executable plans for this call's
  /// parameters and picks the cheapest. Fails with kNoRewriting when no
  /// rewriting plans, kUnavailable when rewritings exist but every one
  /// reads a fragment with no placement `constraints` leave available.
  Result<PlanSet> PlanRewritings(
      pacb::RewritingResult rewriting_result,
      const std::map<std::string, engine::Value>& parameters = {},
      const PlanConstraints& constraints = {}) const;

 private:
  const catalog::Catalog* catalog_;
};

}  // namespace estocada::rewriting

#endif  // ESTOCADA_REWRITING_PLANNER_H_
