#include "stores/relational_store.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "common/strings.h"

namespace estocada::stores {

using engine::Row;
using engine::Value;

namespace {

bool ValueMatchesType(const Value& v, ColumnType t) {
  if (v.is_null()) return true;  // SQL null fits any column.
  switch (t) {
    case ColumnType::kInt:
      return v.is_int();
    case ColumnType::kReal:
      return v.is_real() || v.is_int();  // Ints widen to real columns.
    case ColumnType::kStr:
      return v.is_string();
    case ColumnType::kBool:
      return v.is_bool();
    case ColumnType::kAny:
      return true;  // Any value, lists included.
  }
  return false;
}

}  // namespace

std::string SpjQuery::ToString() const {
  std::string sql = "SELECT ";
  sql += StrJoinMapped(select, ", ", [](const ColumnRef& c) {
    return StrCat(c.alias, ".", c.column);
  });
  sql += " FROM ";
  sql += StrJoinMapped(from, ", ", [](const TableRef& t) {
    return StrCat(t.table, " ", t.alias);
  });
  std::vector<std::string> conds;
  for (const JoinPredicate& j : joins) {
    conds.push_back(StrCat(j.left.alias, ".", j.left.column, " = ",
                           j.right.alias, ".", j.right.column));
  }
  for (const FilterPredicate& f : filters) {
    std::string lit = f.value.is_string() ? StrCat("'", f.value.ToString(), "'")
                                          : f.value.ToString();
    conds.push_back(StrCat(f.column.alias, ".", f.column.column, " = ", lit));
  }
  if (!conds.empty()) {
    sql += " WHERE ";
    sql += StrJoin(conds, " AND ");
  }
  return sql;
}

std::optional<size_t> RelationalStore::Table::ColumnIndex(
    const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return i;
  }
  return std::nullopt;
}

RelationalStore::RelationalStore(CostProfile profile) : StoreBase(profile) {}

Status RelationalStore::CreateTable(const std::string& name,
                                    std::vector<ColumnDef> columns,
                                    std::vector<std::string> primary_key) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (tables_.count(name)) {
    return Status::AlreadyExists(StrCat("table '", name, "' already exists"));
  }
  if (columns.empty()) {
    return Status::InvalidArgument("a table needs at least one column");
  }
  Table t;
  t.columns = std::move(columns);
  std::unordered_set<std::string> seen;
  for (const ColumnDef& c : t.columns) {
    if (!seen.insert(c.name).second) {
      return Status::InvalidArgument(
          StrCat("duplicate column '", c.name, "' in table '", name, "'"));
    }
  }
  for (const std::string& pk : primary_key) {
    auto idx = t.ColumnIndex(pk);
    if (!idx) {
      return Status::InvalidArgument(
          StrCat("primary key column '", pk, "' not in table '", name, "'"));
    }
    t.primary_key.push_back(*idx);
  }
  tables_.emplace(name, std::move(t));
  return Status::OK();
}

Status RelationalStore::DropTable(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (tables_.erase(name) == 0) {
    return Status::NotFound(StrCat("table '", name, "' does not exist"));
  }
  return Status::OK();
}

bool RelationalStore::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Result<const RelationalStore::Table*> RelationalStore::GetTable(
    const std::string& name) const {
  return FindContainer(tables_, name, "table");
}

Result<RelationalStore::Table*> RelationalStore::GetMutableTable(
    const std::string& name) {
  return FindContainer(tables_, name, "table");
}

Status RelationalStore::Insert(const std::string& table, Row row) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  ESTOCADA_ASSIGN_OR_RETURN(Table * t, GetMutableTable(table));
  if (row.size() != t->columns.size()) {
    return Status::InvalidArgument(
        StrCat("table '", table, "' expects ", t->columns.size(),
               " columns, got ", row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!ValueMatchesType(row[i], t->columns[i].type)) {
      return Status::InvalidArgument(
          StrCat("column '", t->columns[i].name, "' of table '", table,
                 "': type mismatch for value ", row[i].ToString()));
    }
  }
  if (!t->primary_key.empty()) {
    Row key;
    for (size_t k : t->primary_key) key.push_back(row[k]);
    if (t->pk_index.count(key)) {
      return Status::AlreadyExists(
          StrCat("duplicate primary key ", engine::RowToString(key),
                 " in table '", table, "'"));
    }
    t->pk_index.emplace(std::move(key), t->rows.size());
  }
  size_t row_idx = t->rows.size();
  for (auto& [col, index] : t->indexes) {
    index[row[col]].push_back(row_idx);
  }
  t->rows.push_back(std::move(row));
  return Status::OK();
}

Status RelationalStore::CreateIndex(const std::string& table,
                                    const std::string& column) {
  ESTOCADA_ASSIGN_OR_RETURN(Table * t, GetMutableTable(table));
  auto col = t->ColumnIndex(column);
  if (!col) {
    return Status::NotFound(
        StrCat("column '", column, "' not in table '", table, "'"));
  }
  if (t->indexes.count(*col)) {
    return Status::AlreadyExists(
        StrCat("index on ", table, ".", column, " already exists"));
  }
  auto& index = t->indexes[*col];
  for (size_t i = 0; i < t->rows.size(); ++i) {
    index[t->rows[i][*col]].push_back(i);
  }
  return Status::OK();
}

Result<size_t> RelationalStore::RowCount(const std::string& table) const {
  ESTOCADA_ASSIGN_OR_RETURN(const Table* t, GetTable(table));
  return t->rows.size();
}

Result<std::vector<std::string>> RelationalStore::Columns(
    const std::string& table) const {
  ESTOCADA_ASSIGN_OR_RETURN(const Table* t, GetTable(table));
  std::vector<std::string> out;
  out.reserve(t->columns.size());
  for (const ColumnDef& c : t->columns) out.push_back(c.name);
  return out;
}

Result<std::vector<Row>> RelationalStore::Scan(const std::string& table,
                                               StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Table* t, GetTable(table));
  Charge(stats, 1, t->rows.size(), 0, t->rows.size());
  return t->rows;
}

Result<std::vector<Row>> RelationalStore::Lookup(const std::string& table,
                                                 const std::string& column,
                                                 const engine::Value& value,
                                                 StoreStats* stats) const {
  SpjQuery q;
  q.from.push_back({table, "t"});
  ESTOCADA_ASSIGN_OR_RETURN(std::vector<std::string> cols, Columns(table));
  for (const std::string& c : cols) q.select.push_back({"t", c});
  q.filters.push_back({{"t", column}, value});
  return Execute(q, stats);
}

Result<std::vector<std::vector<Row>>> RelationalStore::LookupMany(
    const std::string& table, const std::string& column,
    const std::vector<engine::Value>& values, StoreStats* stats) const {
  std::vector<std::vector<Row>> out;
  out.reserve(values.size());
  for (const engine::Value& v : values) {
    ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              Lookup(table, column, v, stats));
    out.push_back(std::move(rows));
  }
  return out;
}

Result<std::vector<Row>> RelationalStore::Execute(const SpjQuery& query,
                                                  StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  if (query.from.empty()) {
    return Status::InvalidArgument("SPJ query needs at least one table");
  }
  // Resolve aliases.
  struct Resolved {
    const Table* table;
    std::string alias;
  };
  std::map<std::string, size_t> alias_pos;
  std::vector<Resolved> sources;
  for (const auto& ref : query.from) {
    ESTOCADA_ASSIGN_OR_RETURN(const Table* t, GetTable(ref.table));
    if (!alias_pos.emplace(ref.alias, sources.size()).second) {
      return Status::InvalidArgument(
          StrCat("duplicate alias '", ref.alias, "'"));
    }
    sources.push_back({t, ref.alias});
  }
  auto resolve = [&](const SpjQuery::ColumnRef& c)
      -> Result<std::pair<size_t, size_t>> {
    auto it = alias_pos.find(c.alias);
    if (it == alias_pos.end()) {
      return Status::NotFound(StrCat("unknown alias '", c.alias, "'"));
    }
    auto col = sources[it->second].table->ColumnIndex(c.column);
    if (!col) {
      return Status::NotFound(
          StrCat("unknown column '", c.alias, ".", c.column, "'"));
    }
    return std::make_pair(it->second, *col);
  };

  // Pre-resolve predicates and outputs.
  struct RJoin {
    size_t lsrc, lcol, rsrc, rcol;
  };
  struct RFilter {
    size_t src, col;
    Value value;
  };
  struct ROut {
    size_t src, col;
  };
  std::vector<RJoin> joins;
  for (const auto& j : query.joins) {
    ESTOCADA_ASSIGN_OR_RETURN(auto l, resolve(j.left));
    ESTOCADA_ASSIGN_OR_RETURN(auto r, resolve(j.right));
    joins.push_back({l.first, l.second, r.first, r.second});
  }
  std::vector<RFilter> filters;
  for (const auto& f : query.filters) {
    ESTOCADA_ASSIGN_OR_RETURN(auto c, resolve(f.column));
    filters.push_back({c.first, c.second, f.value});
  }
  std::vector<ROut> outputs;
  for (const auto& s : query.select) {
    ESTOCADA_ASSIGN_OR_RETURN(auto c, resolve(s));
    outputs.push_back({c.first, c.second});
  }

  // Greedy bound-first join order with index/nested-loop evaluation:
  // repeatedly pick the unjoined source with a constant filter or a join
  // column bound by already-joined sources, preferring indexed access.
  uint64_t scanned = 0;
  uint64_t lookups = 0;
  const size_t n = sources.size();
  std::vector<bool> placed(n, false);
  std::vector<size_t> order;
  auto bound_score = [&](size_t s) {
    int score = 0;
    for (const auto& f : filters) {
      if (f.src == s) {
        score += sources[s].table->indexes.count(f.col) ? 8 : 4;
      }
    }
    for (const auto& j : joins) {
      size_t other = j.lsrc == s ? j.rsrc : (j.rsrc == s ? j.lsrc : n);
      if (other < n && placed[other]) {
        size_t mycol = j.lsrc == s ? j.lcol : j.rcol;
        score += sources[s].table->indexes.count(mycol) ? 8 : 2;
      }
    }
    return score;
  };
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    int best_score = -1;
    for (size_t s = 0; s < n; ++s) {
      if (placed[s]) continue;
      int sc = bound_score(s);
      // Tie-break: smaller table first.
      if (sc > best_score ||
          (sc == best_score && best < n &&
           sources[s].table->rows.size() < sources[best].table->rows.size())) {
        best = s;
        best_score = sc;
      }
    }
    placed[best] = true;
    order.push_back(best);
  }

  // Backtracking evaluation along `order`.
  std::vector<const Row*> current(n, nullptr);
  std::vector<Row> results;

  // Checks all predicates whose sources are fully bound, with `upto`
  // sources placed (indices order[0..upto]).
  auto consistent = [&](size_t src) {
    for (const auto& f : filters) {
      if (f.src == src && !((*current[src])[f.col] == f.value)) return false;
    }
    for (const auto& j : joins) {
      if (current[j.lsrc] != nullptr && current[j.rsrc] != nullptr) {
        if (!((*current[j.lsrc])[j.lcol] == (*current[j.rsrc])[j.rcol])) {
          return false;
        }
      }
    }
    return true;
  };

  std::function<void(size_t)> descend = [&](size_t depth) {
    if (depth == n) {
      Row out;
      out.reserve(outputs.size());
      for (const auto& o : outputs) out.push_back((*current[o.src])[o.col]);
      results.push_back(std::move(out));
      return;
    }
    size_t src = order[depth];
    const Table* t = sources[src].table;

    // Try index access: a constant filter or a bound join on an indexed
    // column narrows the candidates. When several indexes apply, probe
    // them all (cheap hash lookups) and keep the smallest hit list.
    const std::vector<size_t>* candidates = nullptr;
    std::vector<size_t> empty;
    auto consider = [&](const std::unordered_map<
                            engine::Value, std::vector<size_t>,
                            engine::ValueHash>& index,
                        const engine::Value& key) {
      ++lookups;
      auto hit = index.find(key);
      const std::vector<size_t>* list =
          hit == index.end() ? &empty : &hit->second;
      if (candidates == nullptr || list->size() < candidates->size()) {
        candidates = list;
      }
    };
    for (const auto& f : filters) {
      if (f.src != src) continue;
      auto idx = t->indexes.find(f.col);
      if (idx != t->indexes.end()) consider(idx->second, f.value);
    }
    for (const auto& j : joins) {
      size_t other = j.lsrc == src ? j.rsrc : (j.rsrc == src ? j.lsrc : n);
      if (other >= n || current[other] == nullptr) continue;
      size_t mycol = j.lsrc == src ? j.lcol : j.rcol;
      size_t othercol = j.lsrc == src ? j.rcol : j.lcol;
      auto idx = t->indexes.find(mycol);
      if (idx != t->indexes.end()) {
        consider(idx->second, (*current[other])[othercol]);
      }
    }

    if (candidates != nullptr) {
      for (size_t ri : *candidates) {
        ++scanned;
        current[src] = &t->rows[ri];
        if (consistent(src)) descend(depth + 1);
      }
    } else {
      for (const Row& r : t->rows) {
        ++scanned;
        current[src] = &r;
        if (consistent(src)) descend(depth + 1);
      }
    }
    current[src] = nullptr;
  };
  descend(0);

  Charge(stats, 1, scanned, lookups, results.size());
  return results;
}

}  // namespace estocada::stores
