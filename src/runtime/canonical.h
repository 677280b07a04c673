#ifndef ESTOCADA_RUNTIME_CANONICAL_H_
#define ESTOCADA_RUNTIME_CANONICAL_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/value.h"
#include "pacb/rewriter.h"
#include "pivot/query.h"

namespace estocada::runtime {

/// A conjunctive query normalized for plan-cache keying: variables renamed
/// positionally ("v0", "v1", ... / parameters "$p0", "$p1", ...), body
/// atoms reordered into a structure-determined order, and the head
/// predicate name dropped (it never affects the answer). Two queries that
/// differ only in variable names, parameter names, atom order, or head
/// name canonicalize to the same key and therefore share one plan-cache
/// entry; parameter *values* are never part of the key. Built by
/// CanonicalizeLifted, the key also leaves out the values of the body
/// constants it lifted into parameters (`lifted`).
struct CanonicalQuery {
  /// The normalized query. Head positions match the original query's, so
  /// rows produced by executing a plan of the canonical query are
  /// positionally identical to the original's answer.
  pivot::ConjunctiveQuery query;
  /// Cache key: `query.ToString()`.
  std::string key;
  /// Original parameter variable name -> canonical name ("$uid" -> "$p0").
  std::map<std::string, std::string> parameter_renaming;
  /// Canonical parameter name -> value of each body constant lifted into
  /// that parameter (empty unless built by CanonicalizeLifted).
  std::map<std::string, engine::Value> lifted;
};

/// Canonicalizes `q`. Deterministic; invariant under variable renaming and
/// body-atom reordering. The body order is fixed by a greedy
/// smallest-label-first construction: repeatedly emit the atom whose
/// rendering (under the names assigned so far, unassigned variables as
/// "?") is lexicographically smallest, then name its fresh variables.
/// Ties between structurally symmetric atoms are broken arbitrarily —
/// that can only split automorphic queries across two cache entries
/// (an extra miss), never merge inequivalent ones (the key is the full
/// canonical text).
CanonicalQuery Canonicalize(const pivot::ConjunctiveQuery& q);

/// Canonicalizes `q` after lifting its body constants into parameters
/// ("simple parameterization"), so texts that differ only in those
/// constants share one key. All occurrences of one constant (by
/// pivot::Constant ==, so 1 and 1.0 too) become one parameter; distinct
/// constants become distinct parameters, so the equality pattern stays in
/// the key. The query pipeline (Estocada::Plan) guards each lifted set
/// with pacb::ParametersSurvive. Head constants, null, and every constant
/// in `named` (the rewriter's named_constants()) stay inline. The lifted
/// parameters get reserved names no query text can spell, so they never
/// collide with a caller's '$'-parameters; their values land in `lifted`.
CanonicalQuery CanonicalizeLifted(const pivot::ConjunctiveQuery& q,
                                  const std::set<pivot::Constant>& named);

/// Rewrites a caller's parameter map into the canonical query's parameter
/// names; entries without a mapping pass through unchanged. The values of
/// lifted constants are added under their canonical names.
std::map<std::string, engine::Value> RemapParameters(
    const CanonicalQuery& canonical,
    const std::map<std::string, engine::Value>& parameters);

/// Sorted, deduplicated canonical keys of every rewriting in `result` — a
/// fingerprint of a rewriting set that is invariant under variable naming
/// and body-atom order. Differential tests compare the PACB and naive
/// chase & backchase outputs through this.
std::vector<std::string> RewritingSetKeys(const pacb::RewritingResult& result);

}  // namespace estocada::runtime

#endif  // ESTOCADA_RUNTIME_CANONICAL_H_
