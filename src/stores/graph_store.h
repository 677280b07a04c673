#ifndef ESTOCADA_STORES_GRAPH_STORE_H_
#define ESTOCADA_STORES_GRAPH_STORE_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/value.h"
#include "stores/store_stats.h"

namespace estocada::stores {

/// Which adjacency index anchors a neighbor expansion: `kOut` follows
/// rows whose *first* position equals the anchor (out-edges of a node,
/// properties of an id), `kIn` rows whose *last* position equals it
/// (in-edges — reverse traversal).
enum class ExpandDirection {
  kOut,
  kIn,
};

/// Property-graph store standing in for a Neo4j-class adjacency-list
/// engine: named graphs hold fixed-arity rows of engine::Values, and
/// every graph maintains adjacency indexes on its first position
/// (out-edges: src of Edge(src,label,dst), id of NodeProp(id,key,value)),
/// its last position (in-edges: dst), and — for arity ≥ 3 — the labeled
/// composites (first,second) / (last,second), so `Edge(src,label,dst)`
/// expansion restricted to one label is a single bucket probe. The only
/// cheap ways in are by anchor node (the access pattern a graph engine
/// is built around); a full Scan exists for bulk export but costs
/// proportionally to the graph. Node/edge property maps are just more
/// graphs anchored by id, sharing the same indexes.
class GraphStore : public StoreBase {
 public:
  /// Default profile models a pointer-chasing native engine: round trips
  /// are cheap, anchored bucket probes cheaper than B-tree lookups, but
  /// unanchored scans cost more per row than a columnar store.
  explicit GraphStore(CostProfile profile = kGraphBlueprint);

  Status CreateGraph(const std::string& name, size_t arity);
  Status DropGraph(const std::string& name);
  bool HasGraph(const std::string& name) const;

  /// Appends one row, updating every adjacency index.
  Status Insert(const std::string& graph, engine::Row row);

  /// Bulk append (one write-fault check for the whole batch, charged one
  /// operation plus one index touch per row, like the other bulk loads).
  Status InsertBatch(const std::string& graph, std::vector<engine::Row> rows);

  /// Neighbor expansion: all rows anchored at `anchor` on the first
  /// (kOut) or last (kIn) position, optionally restricted to rows whose
  /// second position equals `label` (arity ≥ 3 only). One bucket probe.
  Result<std::vector<engine::Row>> Expand(
      const std::string& graph, ExpandDirection direction,
      const engine::Value& anchor,
      const std::optional<engine::Value>& label = std::nullopt,
      StoreStats* stats = nullptr) const;

  /// General positional pattern match: `pattern[i]` set means position i
  /// must equal it. Served through the adjacency indexes whenever the
  /// first or last position is bound (remaining bound positions become
  /// residual filters over the bucket); a filtered full scan otherwise.
  Result<std::vector<engine::Row>> Match(
      const std::string& graph,
      const std::vector<std::optional<engine::Value>>& pattern,
      StoreStats* stats = nullptr) const;

  /// Paged Match for batch-at-a-time consumers (GraphFetchOperator):
  /// appends up to `limit` matching rows to `out`, resuming from
  /// `*cursor` (an opaque position — start at 0, never modify between
  /// calls). Returns true while more rows may remain. Each page is one
  /// charged operation; the index probe is charged on the first page.
  Result<bool> MatchPage(const std::string& graph,
                         const std::vector<std::optional<engine::Value>>& pattern,
                         size_t limit, size_t* cursor,
                         std::vector<engine::Row>* out,
                         StoreStats* stats = nullptr) const;

  /// Full dump in insertion order. Expensive by design.
  Result<std::vector<engine::Row>> Scan(const std::string& graph,
                                        StoreStats* stats = nullptr) const;

  Result<size_t> RowCount(const std::string& graph) const;
  Result<size_t> Arity(const std::string& graph) const;


 private:
  using Index =
      std::unordered_map<engine::Row, std::vector<size_t>, engine::RowHash>;

  struct Graph {
    size_t arity = 0;
    std::vector<engine::Row> rows;
    Index out_index;        ///< {row[0]} -> row indices, insertion order.
    Index in_index;         ///< {row[last]} -> row indices.
    Index out_label_index;  ///< {row[0], row[1]} (arity >= 3).
    Index in_label_index;   ///< {row[last], row[1]} (arity >= 3, last != 1).
  };

  Result<const Graph*> GetGraph(const std::string& name) const;
  Result<Graph*> GetMutableGraph(const std::string& name);

  static void IndexRow(Graph* g, size_t row_idx);

  /// Shared Match/MatchPage core; no fault injection (callers inject).
  Result<bool> MatchInternal(const Graph& g,
                             const std::vector<std::optional<engine::Value>>& pattern,
                             size_t limit, size_t* cursor,
                             std::vector<engine::Row>* out,
                             StoreStats* stats) const;


  std::map<std::string, Graph> graphs_;
};

}  // namespace estocada::stores

#endif  // ESTOCADA_STORES_GRAPH_STORE_H_
