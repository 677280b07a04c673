// Parallel fragments: one nested relation of the view arity per
// container, rows kept as engine::Values (lists included). One composite
// index over the input-adorned positions — over index_positions when
// none are adorned. An access uses the index when every indexed position
// is bound, and runs a partition-parallel filtered scan otherwise.

#include <algorithm>

#include "common/strings.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {
namespace {

using engine::Row;

/// ParallelStore's default worker count: plan estimates amortize the
/// per-row scan cost over it, as the store does when it charges.
constexpr double kEstimateWorkers = 4;

class Driver : public StoreDriver {
 public:
  Driver() : StoreDriver(stores::kParallelBlueprint) {}

  Status Load(const Placement& p, const std::vector<Row>& rows) const override {
    ESTOCADA_RETURN_NOT_OK(
        p.store.parallel->CreateRelation(p.container, p.desc.view.arity()));
    ESTOCADA_RETURN_NOT_OK(Append(p, rows));
    std::vector<size_t> inputs = InputPositions(p.desc.view);
    if (inputs.empty()) inputs = p.desc.index_positions;
    if (inputs.empty()) return Status::OK();
    return p.store.parallel->CreateIndex(p.container, inputs);
  }

  Status Append(const Placement& p,
                const std::vector<Row>& rows) const override {
    return p.store.parallel->InsertBatch(p.container, rows);
  }

  Status Drop(const Placement& p) const override {
    return p.store.parallel->DropRelation(p.container);
  }

  Result<std::vector<Row>> ReadAll(const Placement& p) const override {
    return p.store.parallel->ParallelScan(p.container, nullptr);
  }

  Result<NativeAccess> CompileAccess(const AccessRequest& req) const override {
    const BoundAtom& a = req.atom;
    const stores::CostProfile& cost = blueprint();
    NativeAccess out;
    stores::ParallelStore* store = a.store->parallel;
    // The index over the input-adorned positions exists iff there are any
    // (Load). Use it when every indexed position is ground or needed.
    std::vector<size_t> index_positions = InputPositions(a.fragment->view);
    bool index_usable = !index_positions.empty();
    for (size_t p : index_positions) {
      const bool needed =
          std::find(req.needed_positions.begin(), req.needed_positions.end(),
                    p) != req.needed_positions.end();
      if (!a.ground[p].has_value() && !needed) index_usable = false;
    }
    AtomFilter filter(a, req.needed_positions);
    if (index_usable) {
      out.access_cost = cost.per_operation + cost.per_index_lookup +
                        cost.per_row_returned * req.est_out_rows;
      if (!req.build) return out;
      out.desc = StrCat(a.store_name, ": INDEX-LOOKUP ", a.container, " (",
                        StrJoin(index_positions, ","), ")");
      out.fetch = [store, container = a.container, filter, index_positions,
                   runtime = req.runtime, store_name = a.store_name](
                      const Row& binding) -> Result<std::vector<Row>> {
        AtomFilter::Ground ground = filter.Bind(binding);
        Row key;
        key.reserve(index_positions.size());
        for (size_t p : index_positions) key.push_back(*ground[p]);
        ESTOCADA_ASSIGN_OR_RETURN(
            std::vector<Row> rows,
            store->IndexLookup(container, index_positions, key,
                               &runtime->per_store[store_name]));
        return filter.Keep(std::move(rows), binding);
      };
      return out;
    }
    out.access_cost =
        cost.per_operation +
        cost.per_row_scanned / kEstimateWorkers * req.rows_total +
        cost.per_row_returned * req.est_out_rows;
    if (!req.build) return out;
    out.desc = StrCat(a.store_name, ": PARALLEL-SCAN ", a.container);
    out.fetch = [store, container = a.container, filter,
                 runtime = req.runtime, store_name = a.store_name](
                    const Row& binding) -> Result<std::vector<Row>> {
      return store->ParallelScan(
          container,
          [&filter, &binding](const Row& row) {
            return filter.Matches(row, binding);
          },
          {}, &runtime->per_store[store_name]);
    };
    return out;
  }
};

}  // namespace

const StoreDriver& ParallelDriver() {
  static const Driver driver;
  return driver;
}

}  // namespace estocada::rewriting
