#include "rewriting/cq_eval.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "engine/operator.h"
#include "pacb/feasibility.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {

using engine::Operator;
using engine::OperatorPtr;
using engine::Row;
using engine::RowBatch;
using engine::Value;
using pivot::Atom;
using pivot::ConjunctiveQuery;
using pivot::Term;

namespace {

/// Values of a query's ground terms: its constants, the supplied '$'
/// parameters, and the delta rule's pins (variables fixed to an inserted
/// row's values).
struct GroundTerms {
  const std::map<std::string, Value>& parameters;
  const std::map<std::string, Value>& pins;

  bool IsPinned(const Term& t) const {
    return t.is_variable() && pins.count(t.var_name()) > 0;
  }

  /// The term's value, or nullopt for a free variable.
  std::optional<Value> Resolve(const Term& t) const {
    if (t.is_constant()) return Value::FromConstant(t.constant());
    if (!t.is_variable()) return std::nullopt;
    if (auto it = pins.find(t.var_name()); it != pins.end()) {
      return it->second;
    }
    if (pacb::IsParameterVariable(t.var_name())) {
      if (auto it = parameters.find(t.var_name()); it != parameters.end()) {
        return it->second;
      }
    }
    return std::nullopt;
  }
};

/// Scans one atom's rows in place — its staged relation, or the delta
/// rule's inserted row — and copies into each batch only the rows that
/// match the atom (AtomFilter, the check every store fetch passes too).
class AtomScanOperator final : public Operator {
 public:
  AtomScanOperator(const Atom& atom, const std::vector<Row>& rows,
                   AtomFilter filter)
      : relation_(atom.relation),
        columns_(atom.arity()),  // Unnamed: the head maps by position.
        rows_(rows),
        filter_(std::move(filter)) {}

  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Reset(columns_.size());
    while (pos_ < rows_.size() &&
           out->physical_rows() < RowBatch::kDefaultRows) {
      const Row& row = rows_[pos_++];
      if (filter_.Matches(row)) out->AppendRow(row);
    }
    return !out->empty();
  }

  std::vector<std::string> columns() const override { return columns_; }
  std::string label() const override { return StrCat("Scan ", relation_); }

 private:
  std::string relation_;
  std::vector<std::string> columns_;
  const std::vector<Row>& rows_;
  AtomFilter filter_;
  size_t pos_ = 0;
};

/// One head position: a ground value, or a column of the join result.
struct HeadSlot {
  std::optional<Value> value;
  size_t column = 0;
};

/// A compiled query: the join tree plus the head projection over it. A
/// null tree means the result is provably empty (the delta rule's row
/// fails its own atom).
struct CompiledCq {
  OperatorPtr tree;
  std::vector<HeadSlot> head;
};

/// Compiles `query` into scans and hash joins over the staging. Body atom
/// `pinned_atom` reads `pinned_rows` instead of its staged relation (when
/// given) and goes first; the rest follow in greedy bound-first order.
Result<CompiledCq> CompileCqOverStaging(const ConjunctiveQuery& query,
                                        const StagingData& staging,
                                        const GroundTerms& ground,
                                        size_t pinned_atom = 0,
                                        const std::vector<Row>* pinned_rows =
                                            nullptr) {
  ESTOCADA_RETURN_NOT_OK(query.Validate());

  // Greedy bound-first atom order: maximize shared variables with the
  // running scope (keeps hash joins keyed rather than cross products).
  std::vector<size_t> order;
  std::vector<bool> used(query.body.size(), false);
  std::unordered_set<std::string> scope_vars;
  auto take = [&](size_t i) {
    used[i] = true;
    order.push_back(i);
    for (const Term& t : query.body[i].terms) {
      if (t.is_variable()) scope_vars.insert(t.var_name());
    }
  };
  if (pinned_rows != nullptr) take(pinned_atom);
  while (order.size() < query.body.size()) {
    size_t best = query.body.size();
    int best_score = -1;
    for (size_t i = 0; i < query.body.size(); ++i) {
      if (used[i]) continue;
      int score = 0;
      for (const Term& t : query.body[i].terms) {
        if (!t.is_variable() || ground.IsPinned(t)) {
          score += 1;  // Constants filter early.
        } else if (scope_vars.count(t.var_name())) {
          score += 4;
        }
      }
      if (score > best_score) {
        best = i;
        best_score = score;
      }
    }
    take(best);
  }

  CompiledCq out;
  bool empty = false;
  std::unordered_map<std::string, size_t> scope;  // var -> output column
  for (size_t idx : order) {
    const Atom& atom = query.body[idx];
    auto sit = staging.find(atom.relation);
    if (sit == staging.end()) {
      return Status::NotFound(
          StrCat("relation '", atom.relation, "' has no staged data"));
    }
    const std::vector<Row>& rows =
        pinned_rows != nullptr && idx == pinned_atom ? *pinned_rows
                                                     : sit->second.rows;
    if (!rows.empty() && rows[0].size() != atom.arity()) {
      return Status::InvalidArgument(
          StrCat("relation '", atom.relation, "' arity mismatch: atom has ",
                 atom.arity(), ", staged rows have ", rows[0].size()));
    }

    // Per-atom checks: ground terms and repeated variables.
    AtomFilter::Ground values(atom.arity());
    std::vector<std::string> vars(atom.arity());
    std::unordered_map<std::string, size_t> first_pos;
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const Term& t = atom.terms[i];
      values[i] = ground.Resolve(t);
      if (values[i].has_value()) continue;
      if (t.is_labelled_null()) {
        return Status::InvalidArgument(
            "labelled null in an executable query body");
      }
      if (pacb::IsParameterVariable(t.var_name())) {
        // Unbound parameters are an error (they would silently join as
        // vars).
        return Status::InvalidArgument(
            StrCat("no value supplied for parameter ", t.var_name()));
      }
      vars[i] = t.var_name();
      first_pos.emplace(t.var_name(), i);
    }
    AtomFilter filter(std::move(values), vars);
    if (&rows == pinned_rows) {
      empty = std::none_of(rows.begin(), rows.end(),
                           [&](const Row& row) { return filter.Matches(row); });
    }
    OperatorPtr scan =
        std::make_unique<AtomScanOperator>(atom, rows, std::move(filter));

    if (!out.tree) {
      out.tree = std::move(scan);
      for (const auto& [var, pos] : first_pos) scope.emplace(var, pos);
      continue;
    }
    // Join on shared variables: build on this atom's rows, stream the
    // running tree as the probe. Output = atom columns ++ tree columns.
    std::vector<std::pair<size_t, size_t>> keys;
    for (const auto& [var, pos] : first_pos) {
      auto it = scope.find(var);
      if (it != scope.end()) keys.emplace_back(pos, it->second);
    }
    out.tree = std::make_unique<engine::HashJoinOperator>(
        std::move(scan), std::move(out.tree), std::move(keys));
    for (auto& [var, column] : scope) column += atom.arity();
    for (const auto& [var, pos] : first_pos) {
      scope.emplace(var, pos);  // No-op when already bound.
    }
  }

  for (const Term& h : query.head) {
    if (auto v = ground.Resolve(h)) {
      out.head.push_back({std::move(*v), 0});
    } else if (h.is_variable()) {
      auto it = scope.find(h.var_name());
      if (it == scope.end()) {
        return Status::InvalidArgument(
            StrCat("head variable '", h.var_name(), "' not bound by body"));
      }
      out.head.push_back({std::nullopt, it->second});
    } else {
      return Status::InvalidArgument("unsupported head term");
    }
  }
  if (empty) out.tree.reset();
  return out;
}

/// Drains the join tree, projecting each row to the head. Under set
/// semantics a row is kept only the first time it appears; the seen-set
/// holds indexes into the output, so each kept row is stored once.
Result<std::vector<Row>> Run(const CompiledCq& cq, bool distinct) {
  std::vector<Row> out;
  if (!cq.tree) return out;
  auto hash = [&out](size_t i) { return engine::RowHash()(out[i]); };
  auto equal = [&out](size_t a, size_t b) { return out[a] == out[b]; };
  std::unordered_set<size_t, decltype(hash), decltype(equal)> seen(
      0, hash, equal);
  ESTOCADA_RETURN_NOT_OK(cq.tree->Open());
  RowBatch batch;
  for (;;) {
    ESTOCADA_ASSIGN_OR_RETURN(bool more, cq.tree->NextBatch(&batch));
    if (!more) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      const uint32_t p = batch.ActiveIndex(i);
      Row row;
      row.reserve(cq.head.size());
      for (const HeadSlot& h : cq.head) {
        row.push_back(h.value ? *h.value : batch.column(h.column)[p]);
      }
      out.push_back(std::move(row));
      if (distinct && !seen.insert(out.size() - 1).second) out.pop_back();
    }
  }
  return out;
}

}  // namespace

Result<std::vector<Row>> EvaluateCqOverStaging(
    const ConjunctiveQuery& query, const StagingData& staging,
    const std::map<std::string, Value>& parameters, bool distinct) {
  const std::map<std::string, Value> no_pins;
  ESTOCADA_ASSIGN_OR_RETURN(
      CompiledCq cq,
      CompileCqOverStaging(query, staging, {parameters, no_pins}));
  return Run(cq, distinct);
}

Result<std::vector<Row>> EvaluateCqDeltaOverStaging(
    const ConjunctiveQuery& query, const StagingData& staging, size_t atom,
    const Row& new_row) {
  if (atom >= query.body.size() ||
      query.body[atom].arity() != new_row.size()) {
    return Status::InvalidArgument(
        StrCat("delta row of ", new_row.size(),
               " values does not fit body atom ", atom, " of ",
               query.ToString()));
  }
  // Pin the atom's variables to the row's values.
  std::map<std::string, Value> pins;
  const Atom& pinned = query.body[atom];
  for (size_t i = 0; i < pinned.terms.size(); ++i) {
    const Term& t = pinned.terms[i];
    if (t.is_variable()) pins.emplace(t.var_name(), new_row[i]);
  }
  const std::map<std::string, Value> no_parameters;
  const std::vector<Row> rows = {new_row};
  ESTOCADA_ASSIGN_OR_RETURN(
      CompiledCq cq, CompileCqOverStaging(query, staging,
                                          {no_parameters, pins}, atom, &rows));
  return Run(cq, /*distinct=*/true);
}

}  // namespace estocada::rewriting
