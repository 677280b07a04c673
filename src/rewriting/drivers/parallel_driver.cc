// Parallel fragments: one nested relation of the view arity per
// container, rows kept as engine::Values (lists included), hash-partitioned
// by column 0. One composite index over the input-adorned positions — over
// index_positions when none are adorned. An access uses the index when
// every indexed position is bound. Otherwise it runs a filtered scan: of
// the one partition holding column 0's value when that is bound, and
// partition-parallel over every partition when it is not.

#include <algorithm>

#include "common/strings.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {
namespace {

using engine::Row;

/// ParallelStore's default worker count: plan estimates amortize the
/// per-row scan cost over it, as the store does when it charges.
constexpr double kEstimateWorkers = 4;

/// The positions of the container's one composite index (Load); empty
/// when it has none.
std::vector<size_t> IndexedPositions(const catalog::StorageDescriptor& desc) {
  std::vector<size_t> positions = InputPositions(desc.view);
  if (positions.empty()) positions = desc.index_positions;
  return positions;
}

class Driver : public StoreDriver {
 public:
  Driver() : StoreDriver(stores::kParallelBlueprint) {}

  Status Load(const Placement& p, const std::vector<Row>& rows) const override {
    ESTOCADA_RETURN_NOT_OK(
        p.store.parallel->CreateRelation(p.container, p.desc.view.arity()));
    ESTOCADA_RETURN_NOT_OK(Append(p, rows));
    std::vector<size_t> indexed = IndexedPositions(p.desc);
    if (indexed.empty()) return Status::OK();
    return p.store.parallel->CreateIndex(p.container, indexed);
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
    // A position is bound when it is ground at plan time or each call's
    // binding supplies it.
    auto bound = [&](size_t p) {
      return a.ground[p].has_value() ||
             std::find(req.needed_positions.begin(),
                       req.needed_positions.end(),
                       p) != req.needed_positions.end();
    };
    std::vector<size_t> index_positions = IndexedPositions(*a.fragment);
    const bool index_usable =
        !index_positions.empty() &&
        std::all_of(index_positions.begin(), index_positions.end(), bound);
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
    // Column 0 bound: the store reads the one partition holding its value,
    // so price that partition's share of the rows.
    const bool pruned = bound(0);
    const double partitions =
        pruned ? stores::ParallelStore::kDefaultPartitions : 1;
    out.access_cost = cost.per_operation +
                      cost.per_row_scanned / kEstimateWorkers *
                          req.rows_total / partitions +
                      cost.per_row_returned * req.est_out_rows;
    if (!req.build) return out;
    // When pruned, column 0's value is plan-time ground or slot `slot` of
    // each call's binding.
    const size_t slot =
        std::find(req.needed_positions.begin(), req.needed_positions.end(),
                  0) -
        req.needed_positions.begin();
    out.desc = StrCat(a.store_name,
                      pruned ? ": PARTITION-SCAN " : ": PARALLEL-SCAN ",
                      a.container);
    out.fetch = [store, container = a.container, filter, pruned,
                 key = a.ground[0], slot, runtime = req.runtime,
                 store_name = a.store_name](
                    const Row& binding) -> Result<std::vector<Row>> {
      auto keep = [&filter, &binding](const Row& row) {
        return filter.Matches(row, binding);
      };
      stores::StoreStats* stats = &runtime->per_store[store_name];
      if (!pruned) return store->ParallelScan(container, keep, {}, stats);
      return store->PartitionScan(container, key ? *key : binding[slot], keep,
                                  stats);
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
