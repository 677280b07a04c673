// Relational fragments: one table per container, one column per view head
// position (named by catalog::FragmentColumnNames). Every column is kAny,
// so the table keeps any value the staging data holds, nested lists
// included, and reads it back unchanged. Input-adorned and index_positions
// columns get a secondary hash index each. Atoms routed to one store
// instance fuse into one delegated SPJ query.

#include <algorithm>
#include <unordered_map>

#include "common/strings.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {
namespace {

using engine::Row;

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
      ESTOCADA_RETURN_NOT_OK(p.store.relational->Insert(p.container, row));
    }
    return Status::OK();
  }

  Status Drop(const Placement& p) const override {
    return p.store.relational->DropTable(p.container);
  }

  Result<std::vector<Row>> ReadAll(const Placement& p) const override {
    return p.store.relational->Scan(p.container);
  }

  /// Single-table SPJ over one shard container (a scattered atom; all
  /// other relational atoms go through CompileJoin). Filters are built at
  /// fetch time so outer bindings push down.
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
    AtomFilter filter(a, req.needed_positions);
    out.fetch = [store, container = a.container, cols, filter,
                 runtime = req.runtime, store_name = a.store_name](
                    const Row& binding) -> Result<std::vector<Row>> {
      AtomFilter::Ground ground = filter.Bind(binding);
      stores::SpjQuery q;
      q.from.push_back({container, "a0"});
      for (size_t i = 0; i < cols.size(); ++i) {
        stores::SpjQuery::ColumnRef ref{"a0", cols[i]};
        q.select.push_back(ref);
        if (ground[i].has_value()) q.filters.push_back({ref, *ground[i]});
      }
      ESTOCADA_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          store->Execute(q, &runtime->per_store[store_name]));
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
    out.fetch = [store = atoms[0]->store->relational, q, runtime,
                 store_name](const Row&) -> Result<std::vector<Row>> {
      return store->Execute(q, &runtime->per_store[store_name]);
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
