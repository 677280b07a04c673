// Relational fragments: one table per container, one column per view head
// position (named by catalog::FragmentColumnNames). Every column is kAny,
// so the table takes any row the staging data holds; nested lists are
// stored as JSON text and parsed back on read (a string that itself reads
// as a JSON array, in a column that also holds lists, reads back as that
// list). Input-adorned and index_positions columns get a secondary hash
// index each. Atoms routed to one store instance fuse into one delegated
// SPJ query.

#include <algorithm>
#include <unordered_map>

#include "common/strings.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {
namespace {

using engine::Row;
using engine::Value;

/// Lists cannot live in a relational column; they are stored as JSON text.
Row EncodeRow(const Row& row) {
  Row flat;
  flat.reserve(row.size());
  for (const Value& v : row) {
    flat.push_back(v.is_list() ? Value::Str(v.ToJson().Serialize()) : v);
  }
  return flat;
}

/// Parses the list values of the list columns `list_cols` back from
/// their JSON text. A list column may hold scalars too (the flag is per
/// column), so only text that parses as a JSON array is taken for a list.
void DecodeRow(const std::vector<size_t>& list_cols, Row* row) {
  for (size_t c : list_cols) {
    Value& v = (*row)[c];
    if (!v.is_string() || v.string_value().empty() ||
        v.string_value()[0] != '[') {
      continue;
    }
    auto parsed = ParseStoredJson(v.string_value());
    if (parsed.ok() && parsed->is_list()) v = std::move(*parsed);
  }
}

/// Positions of `desc` whose values are lists (stored as JSON text).
std::vector<size_t> ListColumns(const catalog::StorageDescriptor& desc) {
  std::vector<size_t> out;
  for (size_t c = 0; c < desc.view.arity() && c < desc.list_column.size();
       ++c) {
    if (desc.list_column[c]) out.push_back(c);
  }
  return out;
}

class Driver : public StoreDriver {
 public:
  Driver() : StoreDriver(stores::kRelationalBlueprint) {}

  bool fuses() const override { return true; }

  Status Load(const Placement& p, const std::vector<Row>& rows) const override {
    std::vector<std::string> columns =
        catalog::FragmentColumnNames(p.desc.view);
    std::vector<stores::ColumnDef> defs;
    for (const std::string& c : columns) {
      defs.push_back({c, stores::ColumnType::kAny});
    }
    ESTOCADA_RETURN_NOT_OK(p.store.relational->CreateTable(p.container, defs));
    ESTOCADA_RETURN_NOT_OK(Append(p, rows));
    for (size_t pos : IndexPositions(p.desc)) {
      ESTOCADA_RETURN_NOT_OK(
          p.store.relational->CreateIndex(p.container, columns[pos]));
    }
    return Status::OK();
  }

  Status Append(const Placement& p,
                const std::vector<Row>& rows) const override {
    for (const Row& row : rows) {
      ESTOCADA_RETURN_NOT_OK(
          p.store.relational->Insert(p.container, EncodeRow(row)));
    }
    return Status::OK();
  }

  Status Drop(const Placement& p) const override {
    return p.store.relational->DropTable(p.container);
  }

  Result<std::vector<Row>> ReadAll(const Placement& p) const override {
    ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              p.store.relational->Scan(p.container));
    const std::vector<size_t> list_cols = ListColumns(p.desc);
    for (Row& row : rows) DecodeRow(list_cols, &row);
    return rows;
  }

  Result<Row> CanonRow(const Row& row) const override {
    Row out;
    out.reserve(row.size());
    for (const Value& v : row) {
      if (v.is_list()) {
        ESTOCADA_ASSIGN_OR_RETURN(Value rt, JsonTextRoundTrip(v));
        out.push_back(std::move(rt));
      } else {
        out.push_back(v);
      }
    }
    return out;
  }

  /// Single-table SPJ over one shard container (a scattered atom; all
  /// other relational atoms go through CompileJoin). Filters are built at
  /// fetch time so outer bindings push down; list-typed values stay
  /// post-checks (they persist as JSON text).
  Result<NativeAccess> CompileAccess(const AccessRequest& req) const override {
    const BoundAtom& a = req.atom;
    const stores::CostProfile& cost = blueprint();
    NativeAccess out;
    out.access_cost = cost.per_operation +
                      cost.per_row_scanned * req.rows_total +
                      cost.per_row_returned * req.est_out_rows;
    if (!req.build) return out;
    out.desc = StrCat(a.store_name, ": SELECT * FROM ", a.container);
    stores::RelationalStore* store = a.store->relational;
    std::vector<std::string> cols =
        catalog::FragmentColumnNames(a.fragment->view);
    std::vector<size_t> list_cols = ListColumns(*a.fragment);
    AtomFilter filter(a, req.needed_positions);
    out.fetch = [store, container = a.container, cols, list_cols, filter,
                 runtime = req.runtime, store_name = a.store_name](
                    const Row& binding) -> Result<std::vector<Row>> {
      AtomFilter::Ground ground = filter.Bind(binding);
      stores::SpjQuery q;
      q.from.push_back({container, "a0"});
      for (size_t i = 0; i < cols.size(); ++i) {
        stores::SpjQuery::ColumnRef ref{"a0", cols[i]};
        q.select.push_back(ref);
        if (ground[i].has_value() && !ground[i]->is_list() &&
            std::find(list_cols.begin(), list_cols.end(), i) ==
                list_cols.end()) {
          q.filters.push_back({ref, *ground[i]});
        }
      }
      ESTOCADA_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          store->Execute(q, &runtime->per_store[store_name]));
      for (Row& row : rows) DecodeRow(list_cols, &row);
      return filter.Keep(std::move(rows), binding);
    };
    return out;
  }

  /// The largest delegatable subquery: one SPJ over all atoms.
  Result<JoinAccess> CompileJoin(const std::vector<const BoundAtom*>& atoms,
                                 const std::shared_ptr<RuntimeStats>& runtime,
                                 bool build) const override {
    const stores::CostProfile& cost = blueprint();
    JoinAccess out;
    stores::SpjQuery q;
    std::unordered_map<std::string, stores::SpjQuery::ColumnRef> var_first;
    auto indexed = [](const BoundAtom& a, size_t pos) {
      const auto& ad = a.fragment->view.adornments;
      if (pos < ad.size() && ad[pos] == pivot::Adornment::kInput) return true;
      for (size_t p : a.fragment->index_positions) {
        if (p == pos) return true;
      }
      return false;
    };
    double est = 1;
    double scanned = 0;
    for (size_t gi = 0; gi < atoms.size(); ++gi) {
      const BoundAtom& a = *atoms[gi];
      const catalog::FragmentStatistics& stats = a.fragment->stats;
      std::string alias = StrCat("a", gi);
      q.from.push_back({a.container, alias});
      std::vector<std::string> cols =
          catalog::FragmentColumnNames(a.fragment->view);
      const double atom_rows =
          std::max<double>(1.0, static_cast<double>(stats.row_count));
      est *= atom_rows;
      // An indexed equality (filter or in-group join) narrows the atom's
      // scan to the matching rows; otherwise it is a full pass.
      double atom_scanned = atom_rows;
      for (size_t i = 0; i < a.arity(); ++i) {
        const bool eq_access = a.ground[i].has_value() ||
                               (!a.var[i].empty() && var_first.count(a.var[i]));
        if (eq_access && indexed(a, i)) {
          atom_scanned = std::min(atom_scanned,
                                  atom_rows * stats.EqualitySelectivity(i));
        }
      }
      scanned += atom_scanned;
      for (size_t i = 0; i < a.arity(); ++i) {
        stores::SpjQuery::ColumnRef ref{alias, cols[i]};
        q.select.push_back(ref);
        out.out_names.push_back(StrCat(alias, ".", cols[i]));
        out.out_vars.push_back(a.var[i]);
        out.out_distinct.push_back(static_cast<double>(
            i < stats.distinct.size() ? stats.distinct[i] : 0));
        if (a.ground[i].has_value()) {
          q.filters.push_back({ref, *a.ground[i]});
          est *= stats.EqualitySelectivity(i);
        } else if (!a.var[i].empty()) {
          auto [it, fresh] = var_first.emplace(a.var[i], ref);
          if (!fresh) {
            q.joins.push_back({it->second, ref});
            est *= stats.EqualitySelectivity(i);
          }
        }
      }
    }
    out.est_out_rows = std::max(est, 0.0);
    out.access_cost = cost.per_operation + cost.per_row_scanned * scanned +
                      cost.per_row_returned * out.est_out_rows;
    if (!build) return out;
    const std::string& store_name = atoms[0]->store_name;
    out.desc = StrCat(store_name, ": ", q.ToString());
    // List columns by output column index, group-wide.
    std::vector<size_t> list_cols;
    size_t off = 0;
    for (const BoundAtom* a : atoms) {
      for (size_t c : ListColumns(*a->fragment)) list_cols.push_back(off + c);
      off += a->arity();
    }
    out.fetch = [store = atoms[0]->store->relational, q, runtime, store_name,
                 list_cols](const Row&) -> Result<std::vector<Row>> {
      ESTOCADA_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          store->Execute(q, &runtime->per_store[store_name]));
      for (Row& row : rows) DecodeRow(list_cols, &row);
      return rows;
    };
    return out;
  }
};

}  // namespace

const StoreDriver& RelationalDriver() {
  static const Driver driver;
  return driver;
}

}  // namespace estocada::rewriting
