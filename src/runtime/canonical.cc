#include "runtime/canonical.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "pacb/feasibility.h"

namespace estocada::runtime {

namespace {

using pivot::Atom;
using pivot::ConjunctiveQuery;
using pivot::Term;

/// Incrementally built variable renaming: plain variables become v<k>,
/// parameter variables ('$'-prefixed) become $p<k>, numbered separately.
struct Naming {
  std::unordered_map<std::string, std::string> assigned;
  size_t next_plain = 0;
  size_t next_param = 0;

  bool Has(const std::string& var) const { return assigned.count(var) > 0; }

  const std::string& Assign(const std::string& var) {
    auto it = assigned.find(var);
    if (it != assigned.end()) return it->second;
    std::string fresh = pacb::IsParameterVariable(var)
                            ? StrCat("$p", next_param++)
                            : StrCat("v", next_plain++);
    return assigned.emplace(var, std::move(fresh)).first->second;
  }

  /// Renders `t` under the current assignment; unassigned variables as "?".
  std::string Label(const Term& t) const {
    if (!t.is_variable()) return t.ToString();
    auto it = assigned.find(t.var_name());
    return it == assigned.end() ? std::string("?") : it->second;
  }
};

std::string AtomLabel(const Atom& a, const Naming& naming) {
  std::string label = a.relation;
  label += '(';
  for (const Term& t : a.terms) {
    label += naming.Label(t);
    label += ',';
  }
  label += ')';
  return label;
}

Term Rename(const Term& t, Naming* naming) {
  if (!t.is_variable()) return t;
  return Term::Var(naming->Assign(t.var_name()));
}

}  // namespace

CanonicalQuery Canonicalize(const ConjunctiveQuery& q) {
  Naming naming;
  CanonicalQuery out;
  out.query.name = "q";

  // Head first: positions are the output contract, so head variables get
  // the lowest canonical names in head order.
  out.query.head.reserve(q.head.size());
  for (const Term& t : q.head) out.query.head.push_back(Rename(t, &naming));

  // Greedy smallest-label-first body order. Labels depend only on query
  // structure and names assigned so far — never on the input's variable
  // names or atom order — so equivalent inputs converge to one text.
  std::vector<const Atom*> remaining;
  remaining.reserve(q.body.size());
  for (const Atom& a : q.body) remaining.push_back(&a);
  while (!remaining.empty()) {
    size_t pick = 0;
    std::string pick_label = AtomLabel(*remaining[0], naming);
    for (size_t i = 1; i < remaining.size(); ++i) {
      std::string label = AtomLabel(*remaining[i], naming);
      if (label < pick_label) {
        pick = i;
        pick_label = std::move(label);
      }
    }
    const Atom* chosen = remaining[pick];
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick));
    Atom renamed;
    renamed.relation = chosen->relation;
    renamed.terms.reserve(chosen->terms.size());
    for (const Term& t : chosen->terms) renamed.terms.push_back(Rename(t, &naming));
    out.query.body.push_back(std::move(renamed));
  }

  for (const auto& [original, canonical] : naming.assigned) {
    if (pacb::IsParameterVariable(original)) {
      out.parameter_renaming.emplace(original, canonical);
    }
  }
  out.key = out.query.ToString();
  return out;
}

CanonicalQuery CanonicalizeLifted(const ConjunctiveQuery& q,
                                  const std::set<pivot::Constant>& named) {
  ConjunctiveQuery lifted = q;
  std::map<pivot::Constant, std::string> names;
  for (Atom& a : lifted.body) {
    for (Term& t : a.terms) {
      if (!t.is_constant() || t.constant().is_null() ||
          named.count(t.constant()) > 0) {
        continue;
      }
      // '#' is no identifier character of the pivot parser.
      auto it = names.try_emplace(t.constant(), StrCat("$#", names.size()));
      t = Term::Var(it.first->second);
    }
  }
  CanonicalQuery out = Canonicalize(lifted);
  for (const auto& [constant, name] : names) {
    auto it = out.parameter_renaming.find(name);
    out.lifted.emplace(it->second, engine::Value::FromConstant(constant));
    out.parameter_renaming.erase(it);
  }
  return out;
}

std::map<std::string, engine::Value> RemapParameters(
    const CanonicalQuery& canonical,
    const std::map<std::string, engine::Value>& parameters) {
  std::map<std::string, engine::Value> out;
  for (const auto& [name, value] : parameters) {
    auto it = canonical.parameter_renaming.find(name);
    out.emplace(it == canonical.parameter_renaming.end() ? name : it->second,
                value);
  }
  for (const auto& [name, value] : canonical.lifted) out[name] = value;
  return out;
}

bool LiftSurvives(const CanonicalQuery& canonical,
                  const pacb::RewritingResult& result) {
  auto mentions = [](const ConjunctiveQuery& q, const std::string& var) {
    for (const Atom& a : q.body) {
      for (const Term& t : a.terms) {
        if (t.is_variable() && t.var_name() == var) return true;
      }
    }
    return false;
  };
  for (const pacb::Rewriting& rw : result.rewritings) {
    for (const auto& [name, value] : canonical.lifted) {
      if (!mentions(rw.query, name)) return false;
    }
  }
  return true;
}

std::vector<std::string> RewritingSetKeys(const pacb::RewritingResult& result) {
  std::vector<std::string> keys;
  keys.reserve(result.rewritings.size());
  for (const pacb::Rewriting& rw : result.rewritings) {
    keys.push_back(Canonicalize(rw.query).key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace estocada::runtime
