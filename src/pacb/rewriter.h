#ifndef ESTOCADA_PACB_REWRITER_H_
#define ESTOCADA_PACB_REWRITER_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/containment.h"
#include "common/result.h"
#include "pacb/feasibility.h"
#include "pacb/view.h"
#include "pivot/query.h"
#include "pivot/schema.h"

namespace estocada::pacb {

/// Knobs for a rewriting run. Every candidate is chase-verified, and
/// rewritings that violate the views' access patterns are dropped.
struct RewriterOptions {
  chase::ChaseOptions chase;
  /// Upper bound on returned rewritings (smallest-body first).
  size_t max_rewritings = 16;
  /// Ablation switch: when false, the backchase does not track provenance
  /// and candidates are enumerated naively from the universal plan (this
  /// is what makes "naive C&B" slow; kept here so the E3 bench can flip
  /// one flag).
  bool track_provenance = true;
  /// Subset-size cap for the naive enumeration path (0 = |universal plan|).
  size_t naive_max_subset = 0;
};

/// Counters reported by one rewriting run (feed the E3 bench and the demo
/// "inspect the output of the PACB rewriting algorithm" step).
struct RewriterStats {
  size_t universal_plan_atoms = 0;   ///< View atoms in the universal plan.
  size_t forward_chase_atoms = 0;    ///< Instance size after forward chase.
  size_t backchase_atoms = 0;        ///< Instance size after backchase.
  size_t query_matches = 0;          ///< Matches of Q in the backchase.
  size_t candidates_considered = 0;  ///< Candidate subsets examined.
  size_t candidates_verified = 0;    ///< Chase-verification calls made.
  size_t rewritings_found = 0;
};

/// One rewriting: a CQ whose body mentions only view relations, equivalent
/// to the input query under the schema + view constraints.
struct Rewriting {
  pivot::ConjunctiveQuery query;
};

struct RewritingResult {
  std::vector<Rewriting> rewritings;  ///< Sorted by body size ascending.
  RewriterStats stats;
};

/// The merge guard of a parameterized query: true when every parameter of
/// `query` (a caller's '$'-parameter or a lifted constant) still appears in
/// every rewriting of `result`. The chase freezes parameters as labelled
/// nulls, so an EGD may merge two of them (or one with a constant) where
/// their values differ and would have failed the chase; every such merge
/// removes a name, and so does a rewriting that projects a parameter away.
/// A set that fails the guard holds only for the values it merged: callers
/// re-plan with the values inlined.
bool ParametersSurvive(const pivot::ConjunctiveQuery& query,
                       const RewritingResult& result);

/// Stable multi-line rendering of a rewriting set: a count header followed
/// by one "  <query text>" line per rewriting, ordered by
/// (body size, text) so the output is independent of tie-breaks inside the
/// rewriter. Golden-file tests diff this against checked-in expectations.
std::string DescribeRewritingSet(const RewritingResult& result);

/// View-based query rewriting under constraints via the Provenance-Aware
/// Chase & Backchase (PACB) of Ileana, Cautis, Deutsch & Katsis
/// (SIGMOD'14), the engine at the heart of ESTOCADA:
///
///  1. (chase) Freeze the query body and chase it with the schema
///     constraints plus the forward view constraints; the view atoms
///     produced form the *universal plan*.
///  2. (backchase) Chase the universal plan with the schema constraints
///     plus the *backward* view constraints, annotating every derived atom
///     with a provenance formula — a minimized positive DNF over universal
///     plan atom ids recording which view atoms suffice to derive it.
///  3. Every match of the query in the backchased instance (with the head
///     mapped onto the frozen head terms) contributes the conjunction of
///     its atoms' provenance; the minimal disjuncts of the combined
///     formula are the candidate rewritings.
///  4. Candidates are verified with a chase-based containment check,
///     minimized, filtered for access-pattern feasibility, and returned
///     smallest-first.
class Rewriter {
 public:
  /// `schema` carries the source relations and their constraints (data
  /// model encodings, keys...); `views` describe the stored fragments.
  Rewriter(pivot::Schema schema, std::vector<ViewDefinition> views);

  /// Pre-compiles the view constraints; call once before Rewrite.
  Status Prepare();

  /// Rewrites `query` (a CQ over source relations) into equivalent CQs
  /// over view relations. Returns an empty set when none exists (the
  /// planner and the serving runtime turn that into kNoRewriting); fails
  /// when the query is invalid or a chase fails. Safe for concurrent
  /// callers on one prepared Rewriter.
  Result<RewritingResult> Rewrite(const pivot::ConjunctiveQuery& query,
                                  const RewriterOptions& options = {}) const;

  const std::vector<ViewDefinition>& views() const { return views_; }
  const pivot::Schema& schema() const { return schema_; }
  const AdornmentMap& view_adornments() const { return adornments_; }

  /// Every constant the constraint set names: in a schema/encoding
  /// dependency or in a view definition. Computed by Prepare(). A query
  /// constant outside this set is generic for the rewriter: renaming it
  /// changes no containment under the constraints, so the serving runtime
  /// may lift it into a parameter and share the rewriting across values.
  const std::set<pivot::Constant>& named_constants() const {
    return named_constants_;
  }

 private:
  struct UniversalPlan {
    /// View atoms produced by the forward chase (ground: nulls+constants).
    std::vector<pivot::Atom> view_atoms;
    /// Canonical image of each frozen query head term after the chase.
    std::vector<pivot::Term> head_targets;
    /// null id -> original query variable name (for readable rewritings
    /// and for preserving '$'-parameter names).
    std::map<uint64_t, std::string> null_names;
    /// The forward-chase instance the plan was read off (the frozen query
    /// body chased with schema + forward view constraints). Kept because it
    /// doubles as the right-hand side of the exactness test q ⊑ candidate:
    /// a candidate whose atoms all still denote atoms of this instance is
    /// exact by the identity homomorphism, no chase needed.
    chase::Instance instance;
  };

  /// Phase 1: forward chase. Fails with kNoRewriting if no view atom is
  /// derivable.
  Result<UniversalPlan> BuildUniversalPlan(const pivot::ConjunctiveQuery& q,
                                           const RewriterOptions& options,
                                           chase::ChaseEngine* forward,
                                           RewriterStats* stats) const;

  /// Converts a subset of universal-plan atoms into a candidate CQ.
  /// Returns kInvalidArgument when a head target is not covered.
  Result<pivot::ConjunctiveQuery> CandidateToQuery(
      const pivot::ConjunctiveQuery& q, const UniversalPlan& plan,
      const std::vector<uint32_t>& atom_ids) const;


  pivot::Schema schema_;
  std::vector<ViewDefinition> views_;
  /// schema + view fwd / bwd constraints. Shared immutable vectors:
  /// Rewrite() stamps out per-call ChaseEngines over them (Rewrite is
  /// const and must stay safe for concurrent callers, so the engines —
  /// which hold run scratch — cannot live here).
  std::shared_ptr<const std::vector<pivot::Dependency>> forward_deps_;
  std::shared_ptr<const std::vector<pivot::Dependency>> backward_deps_;
  AdornmentMap adornments_;
  std::set<pivot::Constant> named_constants_;
  bool prepared_ = false;

  friend class NaiveChaseBackchase;
};

}  // namespace estocada::pacb

#endif  // ESTOCADA_PACB_REWRITER_H_
