#include "stores/graph_store.h"

#include <algorithm>

#include "common/strings.h"

namespace estocada::stores {

using engine::Row;
using engine::Value;

GraphStore::GraphStore(CostProfile profile) : StoreBase(profile) {}

Status GraphStore::CreateGraph(const std::string& name, size_t arity) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (arity < 1) {
    return Status::InvalidArgument(
        StrCat("graph '", name, "' needs arity >= 1, got ", arity));
  }
  if (graphs_.count(name)) {
    return Status::AlreadyExists(StrCat("graph '", name, "' already exists"));
  }
  Graph g;
  g.arity = arity;
  graphs_.emplace(name, std::move(g));
  return Status::OK();
}

Status GraphStore::DropGraph(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (graphs_.erase(name) == 0) {
    return Status::NotFound(StrCat("graph '", name, "' does not exist"));
  }
  return Status::OK();
}

bool GraphStore::HasGraph(const std::string& name) const {
  return graphs_.count(name) > 0;
}

void GraphStore::IndexRow(Graph* g, size_t row_idx) {
  const Row& row = g->rows[row_idx];
  const size_t last = g->arity - 1;
  g->out_index[Row{row[0]}].push_back(row_idx);
  g->in_index[Row{row[last]}].push_back(row_idx);
  if (g->arity >= 3) {
    g->out_label_index[Row{row[0], row[1]}].push_back(row_idx);
    g->in_label_index[Row{row[last], row[1]}].push_back(row_idx);
  }
}

Status GraphStore::Insert(const std::string& graph, Row row) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  ESTOCADA_ASSIGN_OR_RETURN(Graph * g, GetMutableGraph(graph));
  if (row.size() != g->arity) {
    return Status::InvalidArgument(
        StrCat("graph '", graph, "' expects arity ", g->arity, ", got ",
               row.size()));
  }
  g->rows.push_back(std::move(row));
  IndexRow(g, g->rows.size() - 1);
  Charge(nullptr, 1, 0, 1, 0);
  return Status::OK();
}

Status GraphStore::InsertBatch(const std::string& graph,
                               std::vector<Row> rows) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  ESTOCADA_ASSIGN_OR_RETURN(Graph * g, GetMutableGraph(graph));
  for (const Row& row : rows) {
    if (row.size() != g->arity) {
      return Status::InvalidArgument(
          StrCat("graph '", graph, "' expects arity ", g->arity, ", got ",
                 row.size()));
    }
  }
  const size_t n = rows.size();
  g->rows.reserve(g->rows.size() + n);
  for (Row& row : rows) {
    g->rows.push_back(std::move(row));
    IndexRow(g, g->rows.size() - 1);
  }
  Charge(nullptr, 1, 0, n, 0);
  return Status::OK();
}

Result<std::vector<Row>> GraphStore::Expand(
    const std::string& graph, ExpandDirection direction, const Value& anchor,
    const std::optional<Value>& label, StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Graph* g, GetGraph(graph));
  if (label.has_value() && g->arity < 3) {
    return Status::InvalidArgument(
        StrCat("graph '", graph, "': labeled expansion needs arity >= 3"));
  }
  std::vector<std::optional<Value>> pattern(g->arity);
  const size_t anchor_pos =
      direction == ExpandDirection::kOut ? 0 : g->arity - 1;
  pattern[anchor_pos] = anchor;
  if (label.has_value()) pattern[1] = *label;
  std::vector<Row> out;
  size_t cursor = 0;
  ESTOCADA_RETURN_NOT_OK(
      MatchInternal(*g, pattern, SIZE_MAX, &cursor, &out, stats).status());
  return out;
}

Result<std::vector<Row>> GraphStore::Match(
    const std::string& graph, const std::vector<std::optional<Value>>& pattern,
    StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Graph* g, GetGraph(graph));
  std::vector<Row> out;
  size_t cursor = 0;
  ESTOCADA_RETURN_NOT_OK(
      MatchInternal(*g, pattern, SIZE_MAX, &cursor, &out, stats).status());
  return out;
}

Result<bool> GraphStore::MatchPage(
    const std::string& graph, const std::vector<std::optional<Value>>& pattern,
    size_t limit, size_t* cursor, std::vector<Row>* out,
    StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Graph* g, GetGraph(graph));
  return MatchInternal(*g, pattern, limit, cursor, out, stats);
}

Result<bool> GraphStore::MatchInternal(
    const Graph& g, const std::vector<std::optional<Value>>& pattern,
    size_t limit, size_t* cursor, std::vector<Row>* out,
    StoreStats* stats) const {
  if (pattern.size() != g.arity) {
    return Status::InvalidArgument(
        StrCat("pattern arity ", pattern.size(), " does not match graph arity ",
               g.arity));
  }
  const size_t last = g.arity - 1;
  const bool labeled = g.arity >= 3 && pattern[1].has_value();

  // Pick the best index: a bound first position beats a bound last one;
  // the labeled composite beats the plain anchor bucket. `indexed_pos`
  // collects the positions the chosen bucket already guarantees — every
  // other bound position becomes a residual filter.
  const std::vector<size_t>* bucket = nullptr;
  bool index_used = false;
  std::vector<bool> covered(g.arity, false);
  if (pattern[0].has_value()) {
    index_used = true;
    covered[0] = true;
    if (labeled) {
      covered[1] = true;
      auto it = g.out_label_index.find(Row{*pattern[0], *pattern[1]});
      bucket = it == g.out_label_index.end() ? nullptr : &it->second;
    } else {
      auto it = g.out_index.find(Row{*pattern[0]});
      bucket = it == g.out_index.end() ? nullptr : &it->second;
    }
  } else if (pattern[last].has_value()) {
    index_used = true;
    covered[last] = true;
    if (labeled && last != 1) {
      covered[1] = true;
      auto it = g.in_label_index.find(Row{*pattern[last], *pattern[1]});
      bucket = it == g.in_label_index.end() ? nullptr : &it->second;
    } else {
      auto it = g.in_index.find(Row{*pattern[last]});
      bucket = it == g.in_index.end() ? nullptr : &it->second;
    }
  }

  std::vector<size_t> residual;
  for (size_t i = 0; i < g.arity; ++i) {
    if (pattern[i].has_value() && !covered[i]) residual.push_back(i);
  }

  const size_t total =
      index_used ? (bucket == nullptr ? 0 : bucket->size()) : g.rows.size();
  const bool first_page = *cursor == 0;
  uint64_t examined = 0;
  uint64_t returned = 0;
  size_t pos = *cursor;
  while (pos < total && returned < limit) {
    const Row& row = index_used ? g.rows[(*bucket)[pos]] : g.rows[pos];
    ++pos;
    // Index hits are pre-filtered; only residual positions (every bound
    // one in a scan) are examined row-by-row.
    if (!index_used || !residual.empty()) ++examined;
    bool ok = true;
    for (size_t i : residual) {
      if (!(row[i] == *pattern[i])) {
        ok = false;
        break;
      }
    }
    if (ok) {
      out->push_back(row);
      ++returned;
    }
  }
  *cursor = pos;
  Charge(stats, /*ops=*/1, /*scanned=*/examined,
         /*lookups=*/(index_used && first_page) ? 1u : 0u, returned);
  return pos < total;
}

Result<std::vector<Row>> GraphStore::Scan(const std::string& graph,
                                          StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Graph* g, GetGraph(graph));
  Charge(stats, 1, g->rows.size(), 0, g->rows.size());
  return g->rows;
}

Result<size_t> GraphStore::RowCount(const std::string& graph) const {
  ESTOCADA_ASSIGN_OR_RETURN(const Graph* g, GetGraph(graph));
  return g->rows.size();
}

Result<size_t> GraphStore::Arity(const std::string& graph) const {
  ESTOCADA_ASSIGN_OR_RETURN(const Graph* g, GetGraph(graph));
  return g->arity;
}

Result<const GraphStore::Graph*> GraphStore::GetGraph(
    const std::string& name) const {
  return FindContainer(graphs_, name, "graph");
}

Result<GraphStore::Graph*> GraphStore::GetMutableGraph(
    const std::string& name) {
  return FindContainer(graphs_, name, "graph");
}

}  // namespace estocada::stores
