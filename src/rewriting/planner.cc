#include "rewriting/planner.h"

#include "common/strings.h"

namespace estocada::rewriting {

pivot::ConjunctiveQuery InlineParameters(
    const pivot::ConjunctiveQuery& query,
    const std::map<std::string, engine::Value>& parameters) {
  pivot::Substitution values;
  for (const auto& [name, value] : parameters) {
    if (pacb::IsParameterVariable(name) && !value.is_list()) {
      values[name] = pivot::Term::Const(value.ToConstant());
    }
  }
  pivot::ConjunctiveQuery out = query;
  for (pivot::Term& t : out.head) t = pivot::ApplySubstitution(values, t);
  out.body = pivot::ApplySubstitution(values, out.body);
  return out;
}

Planner::Planner(const catalog::Catalog* catalog, const pacb::Rewriter*)
    : catalog_(catalog) {}

Result<PlanSet> Planner::PlanRewritings(
    pacb::RewritingResult rewriting_result,
    const std::map<std::string, engine::Value>& parameters,
    const PlanConstraints& constraints) const {
  PlanSet out;
  out.rewriting_result = std::move(rewriting_result);
  out.parameters = parameters;
  out.constraints = constraints;
  Translator translator(catalog_);
  Status last_error = Status::OK();
  size_t excluded = 0;
  // A lone candidate is the winner by definition: build it directly
  // instead of estimating first (one translator walk, not two).
  const bool single = out.rewriting_result.rewritings.size() == 1;
  for (const pacb::Rewriting& rw : out.rewriting_result.rewritings) {
    // Exclusions are applied by routing inside the translator, per
    // fragment: a fragment on an excluded store survives whenever a
    // sibling replica can serve it. Only a rewriting with some fragment
    // left placement-less drops out (kUnavailable). Candidates are
    // *estimated* only — a full operator tree is built just for the
    // winner below.
    auto plan = single ? translator.Plan(rw.query, parameters, constraints)
                       : translator.Estimate(rw.query, parameters,
                                             constraints);
    if (!plan.ok()) {
      if (plan.status().code() == StatusCode::kUnavailable) {
        ++excluded;
        continue;
      }
      // An individual rewriting can be unplannable (e.g. unbound
      // parameter for this call); remember and try the others.
      last_error = plan.status();
      continue;
    }
    out.plans.push_back(std::move(*plan));
  }
  if (out.plans.empty()) {
    if (excluded > 0) {
      // Rewritings existed but every one touched an open-circuit store:
      // distinct from kNoRewriting so callers fall back to the staging
      // area instead of surfacing a planning error.
      return Status::Unavailable(
          StrCat("all ", excluded,
                 " candidate rewriting(s) read from unavailable stores"));
    }
    return last_error.ok()
               ? Status::NoRewriting("no executable plan for any rewriting")
               : last_error;
  }
  out.best = 0;
  for (size_t i = 1; i < out.plans.size(); ++i) {
    if (out.plans[i].estimated_cost <
        out.plans[out.best].estimated_cost) {
      out.best = i;
    }
  }
  // Build the winner for real. Estimate and Plan share one code path, so
  // a rewriting that estimated cleanly cannot fail to build.
  if (!single) {
    ESTOCADA_ASSIGN_OR_RETURN(
        out.plans[out.best],
        translator.Plan(out.plans[out.best].rewriting, parameters,
                        constraints));
  }
  return out;
}

}  // namespace estocada::rewriting
