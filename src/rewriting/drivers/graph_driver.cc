// Graph fragments: one named graph of the view arity per container, rows
// kept as engine::Values. The adjacency indexes on the first and last
// positions (and the labeled composites) are built in, so
// index_positions need no work. An access anchored at the first or last
// position is one bucket probe (EXPAND); anything else scans. Source
// accesses stream one page per batch.

#include <algorithm>

#include "common/strings.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {
namespace {

using engine::Row;

class Driver : public StoreDriver {
 public:
  Driver() : StoreDriver(stores::kGraphBlueprint) {}

  Status Load(const Placement& p, const std::vector<Row>& rows) const override {
    ESTOCADA_RETURN_NOT_OK(
        p.store.graph->CreateGraph(p.container, p.desc.view.arity()));
    return Append(p, rows);
  }

  Status Append(const Placement& p,
                const std::vector<Row>& rows) const override {
    return p.store.graph->InsertBatch(p.container, rows);
  }

  Status Drop(const Placement& p) const override {
    return p.store.graph->DropGraph(p.container);
  }

  Result<std::vector<Row>> ReadAll(const Placement& p) const override {
    return p.store.graph->Scan(p.container);
  }

  Result<NativeAccess> CompileAccess(const AccessRequest& req) const override {
    const BoundAtom& a = req.atom;
    const stores::CostProfile& cost = blueprint();
    NativeAccess out;
    stores::GraphStore* store = a.store->graph;
    const size_t last = a.arity() - 1;
    // Anchored access: the first or last position is ground at plan time
    // or arrives per binding — one adjacency bucket probe. The label
    // position sharpens it to the labeled composite at match time;
    // everything else is a residual filter inside the store.
    auto pos_bound = [&](size_t p) {
      return a.ground[p].has_value() ||
             std::find(req.needed_positions.begin(),
                       req.needed_positions.end(),
                       p) != req.needed_positions.end();
    };
    const bool anchored = pos_bound(0) || pos_bound(last);
    if (anchored) {
      out.access_cost = cost.per_operation + cost.per_index_lookup +
                        cost.per_row_returned * req.est_out_rows;
    } else {
      out.access_cost = cost.per_operation +
                        cost.per_row_scanned * req.rows_total +
                        cost.per_row_returned * req.est_out_rows;
    }
    if (!req.build) return out;
    const bool labeled = a.arity() >= 3 && a.ground[1].has_value();
    out.desc =
        anchored
            ? StrCat(a.store_name, ": EXPAND ", a.container,
                     pos_bound(0) ? " out" : " in",
                     labeled ? StrCat(" [", a.ground[1]->ToString(), "]") : "")
            : StrCat(a.store_name, ": GRAPH-SCAN ", a.container);
    AtomFilter filter(a, req.needed_positions);
    out.fetch = [store, container = a.container, filter,
                 runtime = req.runtime, store_name = a.store_name](
                    const Row& binding) -> Result<std::vector<Row>> {
      AtomFilter::Ground ground = filter.Bind(binding);
      ESTOCADA_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          store->Match(container, ground, &runtime->per_store[store_name]));
      return filter.Keep(std::move(rows), binding);
    };
    // Streaming source form: a GraphFetchOperator pulls one MatchPage per
    // NextBatch, so source-position expansions never materialize.
    auto cursor = std::make_shared<size_t>(0);
    out.graph_reset = [cursor]() {
      *cursor = 0;
      return Status::OK();
    };
    out.graph_stream = [store, container = a.container, filter, cursor,
                        runtime = req.runtime, store_name = a.store_name](
                           std::vector<Row>* rows) -> Result<bool> {
      std::vector<Row> page;
      ESTOCADA_ASSIGN_OR_RETURN(
          bool more,
          store->MatchPage(container, filter.ground(),
                           engine::RowBatch::kDefaultRows, cursor.get(), &page,
                           &runtime->per_store[store_name]));
      for (Row& row : page) {
        if (filter.Matches(row)) {
          rows->push_back(std::move(row));
        }
      }
      return more;
    };
    return out;
  }
};

}  // namespace

const StoreDriver& GraphDriver() {
  static const Driver driver;
  return driver;
}

}  // namespace estocada::rewriting
