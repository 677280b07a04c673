#include "chase/containment.h"

#include "chase/homomorphism.h"
#include "common/strings.h"

namespace estocada::chase {

using pivot::ConjunctiveQuery;
using pivot::Substitution;
using pivot::Term;

namespace {

/// Builds the required head mapping: q2's i-th head term must land on
/// `targets[i]` (the canonical image of q1's i-th frozen head term).
/// Returns false when no homomorphism can satisfy the heads (a ground head
/// term mismatches, or one variable would need two distinct targets).
bool RequiredHeadMapping(const ConjunctiveQuery& q2, const Instance& inst,
                         const std::vector<Term>& targets,
                         Substitution* required) {
  for (size_t i = 0; i < q2.head.size(); ++i) {
    const Term& target = targets[i];
    const Term& h2 = q2.head[i];
    if (h2.is_variable()) {
      auto it = required->find(h2.var_name());
      if (it != required->end()) {
        if (!(it->second == target)) return false;
      } else {
        required->emplace(h2.var_name(), target);
      }
    } else {
      if (!(inst.Canonical(h2) == target)) return false;
    }
  }
  return true;
}

}  // namespace

Result<bool> IsContainedIn(const ConjunctiveQuery& q1,
                           const ConjunctiveQuery& q2,
                           const std::vector<pivot::Dependency>& deps,
                           const ChaseOptions& options) {
  ChaseEngine engine(deps);
  return IsContainedIn(q1, q2, engine, options);
}

Result<bool> IsContainedIn(const ConjunctiveQuery& q1,
                           const ConjunctiveQuery& q2, ChaseEngine& engine,
                           const ChaseOptions& options) {
  FixedRightContainment check(q2, engine, options);
  return check.Contains(q1);
}

FixedRightContainment::FixedRightContainment(ConjunctiveQuery q2,
                                             ChaseEngine& engine,
                                             const ChaseOptions& options)
    : q2_(std::move(q2)), engine_(engine), options_(options),
      matcher_(q2_.body) {}

Result<bool> FixedRightContainment::Contains(const ConjunctiveQuery& q1) {
  if (q1.arity() != q2_.arity()) {
    return Status::InvalidArgument(
        StrCat("containment between different arities: ", q1.arity(), " vs ",
               q2_.arity()));
  }
  // Freeze q1 and chase (on the reusable scratch instance).
  pivot::FrozenBody frozen = FreezeBody(q1);
  scratch_.Reset();
  Status st = scratch_.InsertAll(frozen.atoms);
  if (!st.ok()) return st;
  std::vector<Term> head_terms;
  head_terms.reserve(q1.head.size());
  for (const Term& h : q1.head) {
    head_terms.push_back(pivot::ApplySubstitution(frozen.freeze, h));
  }
  return ChaseAndProbe(head_terms);
}

Result<bool> FixedRightContainment::ContainsFrozen(
    const std::vector<const pivot::Atom*>& atoms,
    const std::vector<Term>& head_terms) {
  if (head_terms.size() != q2_.arity()) {
    return Status::InvalidArgument(
        StrCat("containment between different arities: ", head_terms.size(),
               " vs ", q2_.arity()));
  }
  scratch_.Reset();
  for (const pivot::Atom* a : atoms) scratch_.Insert(*a);
  // A head null that occurs in no atom must still not collide with nulls
  // the chase mints (Insert only reserves ids it has seen).
  for (const Term& h : head_terms) {
    if (h.is_labelled_null()) scratch_.ReserveNullIdsUpTo(h.null_id() + 1);
  }
  return ChaseAndProbe(head_terms);
}

Result<bool> FixedRightContainment::ChaseAndProbe(
    const std::vector<Term>& head_terms) {
  Status chase_status = engine_.Run(&scratch_, options_);
  if (!chase_status.ok()) {
    if (chase_status.code() == StatusCode::kChaseFailure) {
      // The left side is unsatisfiable under the constraints: vacuously
      // contained.
      return true;
    }
    return chase_status;
  }
  std::vector<Term> targets;
  targets.reserve(head_terms.size());
  for (const Term& h : head_terms) {
    targets.push_back(scratch_.Canonical(h));
  }
  Substitution required;
  if (!RequiredHeadMapping(q2_, scratch_, targets, &required)) return false;
  return !matcher_.ForEach(scratch_, required,
                           [](const Match&) { return false; });
}

FixedLeftContainment::FixedLeftContainment(ConjunctiveQuery q1,
                                           ChaseEngine& engine,
                                           const ChaseOptions& options)
    : q1_(std::move(q1)), engine_(engine), options_(options) {}

Status FixedLeftContainment::Prepare() {
  pivot::FrozenBody frozen = FreezeBody(q1_);
  ESTOCADA_RETURN_NOT_OK(inst_.InsertAll(frozen.atoms));
  Status chase_status = engine_.Run(&inst_, options_);
  if (!chase_status.ok()) {
    if (chase_status.code() == StatusCode::kChaseFailure) {
      vacuous_ = true;
      return Status::OK();
    }
    return chase_status;
  }
  head_targets_.reserve(q1_.head.size());
  for (const Term& h : q1_.head) {
    head_targets_.push_back(
        inst_.Canonical(pivot::ApplySubstitution(frozen.freeze, h)));
  }
  return Status::OK();
}

Result<bool> FixedLeftContainment::ContainedIn(const ConjunctiveQuery& q2) {
  if (q1_.arity() != q2.arity()) {
    return Status::InvalidArgument(
        StrCat("containment between different arities: ", q1_.arity(), " vs ",
               q2.arity()));
  }
  if (!prepared_) {
    ESTOCADA_RETURN_NOT_OK(Prepare());
    prepared_ = true;
  }
  if (vacuous_) return true;
  Substitution required;
  if (!RequiredHeadMapping(q2, inst_, head_targets_, &required)) return false;
  return ExistsHomomorphism(q2.body, inst_, required);
}

Result<bool> AreEquivalent(const ConjunctiveQuery& q1,
                           const ConjunctiveQuery& q2,
                           const std::vector<pivot::Dependency>& deps,
                           const ChaseOptions& options) {
  ESTOCADA_ASSIGN_OR_RETURN(bool a, IsContainedIn(q1, q2, deps, options));
  if (!a) return false;
  return IsContainedIn(q2, q1, deps, options);
}

}  // namespace estocada::chase
