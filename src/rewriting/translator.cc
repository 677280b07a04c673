#include "rewriting/translator.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "pacb/feasibility.h"

namespace estocada::rewriting {

using catalog::StorageDescriptor;
using catalog::StoreHandle;
using catalog::StoreKind;
using engine::Expr;
using engine::ExprPtr;
using engine::OperatorPtr;
using engine::Row;
using engine::Value;
using pivot::Adornment;
using pivot::Atom;
using pivot::ConjunctiveQuery;
using pivot::Term;

double RuntimeStats::TotalSimulatedCost() const {
  double total = 0;
  for (const auto& [name, stats] : per_store) total += stats.simulated_cost;
  return total;
}

std::string RuntimeStats::ToString() const {
  std::string out;
  for (const auto& [name, stats] : per_store) {
    out += StrCat("  ", name, ": ", stats.ToString(), "\n");
  }
  return out;
}

bool PlanConstraints::Excludes(const std::string& store) const {
  return std::find(excluded_stores.begin(), excluded_stores.end(), store) !=
         excluded_stores.end();
}

bool PlanConstraints::OnProbation(const std::string& store) const {
  return std::find(probation_stores.begin(), probation_stores.end(), store) !=
         probation_stores.end();
}

std::string PlannedQuery::ToString() const {
  std::string out = StrCat("rewriting: ", rewriting.ToString(), "\n",
                           "estimated cost: ", estimated_cost,
                           ", estimated rows: ", estimated_rows, "\n");
  for (const std::string& d : delegated) {
    out += StrCat("delegated: ", d, "\n");
  }
  if (root) out += engine::PlanToString(*root);
  return out;
}

namespace {

/// Everything the translator derives about one rewriting atom.
struct AtomInfo {
  const Atom* atom;
  const StorageDescriptor* fragment;
  /// The routed replica placement: the store/container this plan reads
  /// the fragment from (the primary unless routing moved it).
  const StoreHandle* store;
  std::string store_name;
  std::string container;
  /// Plan-time ground value per position (constant or parameter).
  std::vector<std::optional<Value>> ground;
  /// Variable name per position ("" when ground).
  std::vector<std::string> var;
  /// Partitioned fragment whose partition key is not ground at plan time:
  /// the read must scatter over every shard (or dispatch per binding when
  /// the key arrives through a BindJoin). `store`/`store_name`/`container`
  /// then mirror shard 0's routed placement for kind checks only.
  bool scatter = false;
  /// One routed placement (and its store) per shard when `scatter`.
  std::vector<catalog::ReplicaPlacement> shard_placements;
  std::vector<const StoreHandle*> shard_stores;
};

/// The scatter fan-out pool: dedicated (never the QueryServer's worker
/// pool — a query waiting for its own shard tasks behind other queued
/// queries would deadlock) and safe to share process-wide because shard
/// fetches never submit further tasks.
ThreadPool* ScatterPool() {
  static ThreadPool pool(std::max(8u, std::thread::hardware_concurrency()));
  return &pool;
}

/// Picks the replica placement a read of shard `shard_idx` goes to: the
/// first one (the primary preferred) that is fresh, not mid-rebuild, and
/// whose store is not excluded. Two passes: replicas on probation stores
/// (half-open breakers) are skipped while any fully-healthy replica
/// qualifies, and admitted as probe traffic only when nothing healthy can
/// serve. kUnavailable when no placement qualifies at all — the planner
/// then drops every rewriting using this fragment, and the server falls
/// back to staging only once *all* rewritings are gone. A dead shard
/// replica drops out here exactly like a dead replica of an unpartitioned
/// fragment, so shard reads compose with the HealthRegistry re-route rung
/// and the degradation ladder unchanged.
Result<catalog::ReplicaPlacement> RouteShard(const StorageDescriptor& frag,
                                             size_t shard_idx,
                                             const PlanConstraints& constraints) {
  const catalog::ShardState& shard = frag.shards[shard_idx];
  for (int pass = 0; pass < 2; ++pass) {
    for (const catalog::ReplicaPlacement& p : shard.replicas) {
      if (p.rebuilding || !p.fresh(shard.write_epoch)) continue;
      if (constraints.Excludes(p.store_name)) continue;
      if (pass == 0 && constraints.OnProbation(p.store_name)) continue;
      return p;
    }
  }
  return Status::Unavailable(
      StrCat("fragment '", frag.name(), "' shard ", shard_idx,
             " has no available replica (excluded, stale, or rebuilding)"));
}

/// A group of atoms reformulated as a single native store access.
struct CompiledGroup {
  /// Output column variable names ("" for columns not bound to a var).
  std::vector<std::string> out_vars;
  std::vector<std::string> out_names;
  /// Per-column distinct estimate (0 = unknown).
  std::vector<double> out_distinct;
  /// Outer variables that must be supplied per call (BindJoin bindings).
  std::vector<std::string> needed_vars;
  engine::BindJoinOperator::Fetch fetch;
  /// Batched fetch covering several bindings in one round trip, when the
  /// access supports one (KV point get via MGet). Installed on BindJoins.
  engine::BindJoinOperator::BatchFetch batch_fetch;
  /// Streaming source form (graph accesses): source positions become a
  /// GraphFetchOperator pulling one store page per NextBatch instead of a
  /// materializing callback scan. Null for every other kind.
  engine::GraphFetchOperator::ChunkFetch graph_stream;
  engine::GraphFetchOperator::ChunkReset graph_reset;
  double est_out_rows = 1;  ///< Expected rows per fetch call.
  double access_cost = 1;   ///< Simulated cost per fetch call.
  std::string desc;
  /// Scatter groups (partitioned fragment, key unbound): one fetch per
  /// shard plus its backing store instance name; `fetch` above remains
  /// valid (per-binding dispatch or sequential concat) for BindJoin use,
  /// while source positions upgrade to a ScatterGatherOperator.
  std::vector<engine::BindJoinOperator::Fetch> shard_fetches;
  std::vector<std::string> shard_keys;
};

/// Mirrors the default store cost profiles for *estimation* (the stores
/// themselves charge the authoritative simulated cost at run time).
struct CostConstants {
  double per_op, per_row, per_lookup, per_ret;
};
CostConstants CostModel(StoreKind kind) {
  switch (kind) {
    case StoreKind::kRelational:
      return {25.0, 0.05, 0.8, 0.05};
    case StoreKind::kKeyValue:
      return {4.0, 0.02, 0.3, 0.05};
    case StoreKind::kDocument:
      return {12.0, 0.12, 0.5, 0.15};
    case StoreKind::kParallel:
      return {60.0, 0.0025, 0.6, 0.05};  // per-row cost amortized over workers
    case StoreKind::kText:
      return {10.0, 0.03, 0.4, 0.1};
    case StoreKind::kGraph:
      return {6.0, 0.04, 0.2, 0.06};  // cheap anchored bucket probes
  }
  return {10, 0.1, 0.5, 0.1};
}

Result<Value> ParseStoredJson(const std::string& text) {
  ESTOCADA_ASSIGN_OR_RETURN(json::JsonValue j, json::Parse(text));
  return Value::FromJson(j);
}

/// Post-check applied to every fetched row: ground positions must match
/// and repeated variables must agree (stores may not have been able to
/// push all predicates down).
bool RowSatisfiesAtom(const Row& row, const AtomInfo& info) {
  std::unordered_map<std::string, size_t> first;
  for (size_t i = 0; i < row.size(); ++i) {
    if (info.ground[i].has_value()) {
      if (!(row[i] == *info.ground[i])) return false;
    } else if (!info.var[i].empty()) {
      auto [it, fresh] = first.emplace(info.var[i], i);
      if (!fresh && !(row[i] == row[it->second])) return false;
    }
  }
  return true;
}

/// Values of the needed (outer-bound) variables are appended to the
/// ground map at call time: returns a copy of `info.ground` with the
/// binding row filled in at `needed_positions`.
std::vector<std::optional<Value>> BindGround(
    const AtomInfo& info, const std::vector<size_t>& needed_positions,
    const Row& binding) {
  std::vector<std::optional<Value>> ground = info.ground;
  for (size_t i = 0; i < needed_positions.size(); ++i) {
    ground[needed_positions[i]] = binding[i];
  }
  return ground;
}

/// One compiled native access to a single placement (store + container).
struct SingleAtomAccess {
  engine::BindJoinOperator::Fetch fetch;
  /// Batched variant covering several bindings in one store round trip
  /// (currently the KV point-get case, backed by MGet). Null when the
  /// access has no batched form.
  engine::BindJoinOperator::BatchFetch batch_fetch;
  /// Streaming source form (graph accesses only; see CompiledGroup).
  engine::GraphFetchOperator::ChunkFetch graph_stream;
  engine::GraphFetchOperator::ChunkReset graph_reset;
  double access_cost = 1;
  std::string desc;
};

/// Compiles a single-atom group against the placement named by
/// `info.store`/`info.store_name`/`info.container`. Shared between the
/// ordinary one-placement path and the scatter path, which calls it once
/// per shard with shard-routed placements. `rows_total` is the expected
/// stored row count of the placement (the whole fragment, or one shard's
/// bucket) and `est_out_rows` the expected rows per fetch call.
Result<SingleAtomAccess> CompileSingleAtomAccess(
    const AtomInfo& info, const std::vector<size_t>& needed_positions,
    const std::vector<std::string>& needed_vars, double rows_total,
    double est_out_rows, const std::shared_ptr<RuntimeStats>& runtime,
    bool build) {
  SingleAtomAccess out;
  const StoreKind kind = info.store->kind;
  const CostConstants cost = CostModel(kind);
  const std::string store_name = info.store_name;
  const size_t arity = info.atom->arity();
  const auto& adorn = info.fragment->view.adornments;
  const AtomInfo info_copy = info;

  switch (kind) {
    case StoreKind::kRelational: {
      // Single-table SPJ over one shard container (the fused multi-atom
      // SPJ path never routes here — scattered atoms do not fuse).
      // Filters are built at fetch time so outer bindings push down;
      // list-typed values stay post-checks (they persist as JSON text).
      stores::RelationalStore* store = info.store->relational;
      const std::string container = info.container;
      std::vector<std::string> cols =
          catalog::FragmentColumnNames(info.fragment->view);
      std::vector<size_t> list_cols;
      for (size_t i = 0; i < arity; ++i) {
        if (i < info.fragment->list_column.size() &&
            info.fragment->list_column[i]) {
          list_cols.push_back(i);
        }
      }
      out.access_cost = cost.per_op + cost.per_row * rows_total +
                        cost.per_ret * est_out_rows;
      if (!build) break;
      out.desc = StrCat(store_name, ": SELECT * FROM ", container);
      std::vector<size_t> np = needed_positions;
      out.fetch = [store, container, cols, info_copy, np, list_cols, runtime,
                   store_name](const Row& binding)
          -> Result<std::vector<Row>> {
        auto ground = BindGround(info_copy, np, binding);
        stores::SpjQuery q;
        q.from.push_back({container, "a0"});
        std::unordered_set<size_t> listed(list_cols.begin(), list_cols.end());
        for (size_t i = 0; i < cols.size(); ++i) {
          stores::SpjQuery::ColumnRef ref{"a0", cols[i]};
          q.select.push_back(ref);
          if (ground[i].has_value() && !ground[i]->is_list() &&
              !listed.count(i)) {
            q.filters.push_back({ref, *ground[i]});
          }
        }
        ESTOCADA_ASSIGN_OR_RETURN(
            std::vector<Row> rows,
            store->Execute(q, &runtime->per_store[store_name]));
        AtomInfo check = info_copy;
        for (size_t i = 0; i < np.size(); ++i) {
          check.ground[np[i]] = binding[i];
        }
        std::vector<Row> out_rows;
        for (Row& row : rows) {
          for (size_t c : list_cols) {
            if (row[c].is_string()) {
              ESTOCADA_ASSIGN_OR_RETURN(
                  Value parsed, ParseStoredJson(row[c].string_value()));
              row[c] = std::move(parsed);
            }
          }
          if (RowSatisfiesAtom(row, check)) out_rows.push_back(std::move(row));
        }
        return out_rows;
      };
      break;
    }
    case StoreKind::kKeyValue: {
      stores::KeyValueStore* store = info.store->kv;
      const std::string container = info.container;
      // Key is position 0 (materializer layout).
      bool key_needed = !needed_positions.empty() &&
                        needed_positions[0] == 0;
      bool key_ground = info.ground[0].has_value();
      if (key_ground || key_needed) {
        out.access_cost = cost.per_op + cost.per_lookup;
        if (!build) break;
        out.desc = StrCat(store_name, ": GET ", container, "[",
                          key_ground ? info.ground[0]->ToString()
                                     : StrCat("?", needed_vars[0]),
                          "]");
        std::vector<size_t> np = needed_positions;
        out.fetch = [store, container, info_copy, np, runtime,
                     store_name](const Row& binding)
            -> Result<std::vector<Row>> {
          auto ground = BindGround(info_copy, np, binding);
          auto got = store->Get(container, ground[0]->ToJson().Serialize(),
                                &runtime->per_store[store_name]);
          if (!got.ok()) {
            if (got.status().code() == StatusCode::kNotFound) {
              return std::vector<Row>{};
            }
            return got.status();
          }
          ESTOCADA_ASSIGN_OR_RETURN(Value v, ParseStoredJson(*got));
          if (!v.is_list()) {
            return Status::Internal("corrupt KV fragment payload");
          }
          AtomInfo check = info_copy;
          for (size_t i = 0; i < np.size(); ++i) {
            check.ground[np[i]] = binding[i];
          }
          // Payload = list of rows sharing this key.
          std::vector<Row> out_rows;
          for (const Value& row_value : v.list()) {
            if (!row_value.is_list()) {
              return Status::Internal("corrupt KV fragment payload row");
            }
            Row row = row_value.list();
            if (RowSatisfiesAtom(row, check)) out_rows.push_back(std::move(row));
          }
          return out_rows;
        };
        // Batched form: k uncached bindings become one MGet round trip.
        out.batch_fetch = [store, container, info_copy, np, runtime,
                           store_name](const std::vector<Row>& bindings)
            -> Result<std::vector<std::vector<Row>>> {
          std::vector<std::string> keys;
          keys.reserve(bindings.size());
          for (const Row& binding : bindings) {
            auto ground = BindGround(info_copy, np, binding);
            keys.push_back(ground[0]->ToJson().Serialize());
          }
          ESTOCADA_ASSIGN_OR_RETURN(
              std::vector<std::optional<std::string>> payloads,
              store->MGet(container, keys, &runtime->per_store[store_name]));
          std::vector<std::vector<Row>> out_sets(bindings.size());
          for (size_t b = 0; b < bindings.size(); ++b) {
            if (!payloads[b].has_value()) continue;
            ESTOCADA_ASSIGN_OR_RETURN(Value v, ParseStoredJson(*payloads[b]));
            if (!v.is_list()) {
              return Status::Internal("corrupt KV fragment payload");
            }
            AtomInfo check = info_copy;
            for (size_t i = 0; i < np.size(); ++i) {
              check.ground[np[i]] = bindings[b][i];
            }
            for (const Value& row_value : v.list()) {
              if (!row_value.is_list()) {
                return Status::Internal("corrupt KV fragment payload row");
              }
              Row row = row_value.list();
              if (RowSatisfiesAtom(row, check)) {
                out_sets[b].push_back(std::move(row));
              }
            }
          }
          return out_sets;
        };
      } else {
        // Free access: full collection scan (allowed but costly). Any
        // outer bindings on non-key input positions become post-checks.
        out.access_cost = cost.per_op + cost.per_row * rows_total +
                          cost.per_ret * est_out_rows;
        if (!build) break;
        out.desc = StrCat(store_name, ": SCAN ", container);
        std::vector<size_t> np = needed_positions;
        out.fetch = [store, container, info_copy, np, runtime,
                     store_name](const Row& binding)
            -> Result<std::vector<Row>> {
          AtomInfo check = info_copy;
          for (size_t i = 0; i < np.size(); ++i) {
            check.ground[np[i]] = binding[i];
          }
          ESTOCADA_ASSIGN_OR_RETURN(
              auto pairs,
              store->Scan(container, &runtime->per_store[store_name]));
          std::vector<Row> out_rows;
          for (const auto& [k, v] : pairs) {
            ESTOCADA_ASSIGN_OR_RETURN(Value parsed, ParseStoredJson(v));
            if (!parsed.is_list()) continue;
            for (const Value& row_value : parsed.list()) {
              if (!row_value.is_list()) continue;
              Row row = row_value.list();
              if (RowSatisfiesAtom(row, check)) {
                out_rows.push_back(std::move(row));
              }
            }
          }
          return out_rows;
        };
      }
      break;
    }
    case StoreKind::kDocument: {
      stores::DocumentStore* store = info.store->document;
      const std::string container = info.container;
      out.access_cost = cost.per_op + cost.per_row * rows_total * 0.5 +
                        cost.per_ret * est_out_rows;
      if (!build) break;
      std::vector<std::string> pred_bits;
      for (size_t i = 0; i < arity; ++i) {
        if (info.ground[i].has_value()) {
          pred_bits.push_back(
              StrCat("f", i, "=", info.ground[i]->ToString()));
        }
      }
      out.desc = StrCat(store_name, ": FIND ", container, " {",
                        StrJoin(pred_bits, ", "), "}");
      std::vector<size_t> np = needed_positions;
      out.fetch = [store, container, info_copy, np, arity, runtime,
                   store_name](const Row& binding)
          -> Result<std::vector<Row>> {
        auto ground = BindGround(info_copy, np, binding);
        std::vector<stores::PathPredicate> preds;
        for (size_t i = 0; i < arity; ++i) {
          if (ground[i].has_value()) {
            preds.push_back({StrCat("f", i), stores::DocOp::kEq,
                             ground[i]->ToJson()});
          }
        }
        ESTOCADA_ASSIGN_OR_RETURN(
            std::vector<json::JsonValue> docs,
            store->Find(container, preds,
                        &runtime->per_store[store_name]));
        AtomInfo check = info_copy;
        for (size_t i = 0; i < np.size(); ++i) {
          check.ground[np[i]] = binding[i];
        }
        std::vector<Row> out_rows;
        for (const json::JsonValue& doc : docs) {
          Row row;
          row.reserve(arity);
          for (size_t i = 0; i < arity; ++i) {
            const json::JsonValue* f = doc.Find(StrCat("f", i));
            row.push_back(f == nullptr ? Value::Null()
                                       : Value::FromJson(*f));
          }
          if (RowSatisfiesAtom(row, check)) out_rows.push_back(std::move(row));
        }
        return out_rows;
      };
      break;
    }
    case StoreKind::kParallel: {
      stores::ParallelStore* store = info.store->parallel;
      const std::string container = info.container;
      // Index over the input-adorned positions exists iff there are any
      // (materializer contract). Use it when every indexed position is
      // ground or needed.
      std::vector<size_t> index_positions;
      for (size_t i = 0; i < adorn.size(); ++i) {
        if (adorn[i] == Adornment::kInput) index_positions.push_back(i);
      }
      bool index_usable = !index_positions.empty();
      for (size_t p : index_positions) {
        bool is_needed = std::find(needed_positions.begin(),
                                   needed_positions.end(),
                                   p) != needed_positions.end();
        if (!info.ground[p].has_value() && !is_needed) {
          index_usable = false;
        }
      }
      std::vector<size_t> np = needed_positions;
      if (index_usable) {
        out.access_cost = cost.per_op + cost.per_lookup +
                          cost.per_ret * est_out_rows;
        if (!build) break;
        out.desc = StrCat(store_name, ": INDEX-LOOKUP ", container, " (",
                          StrJoin(index_positions, ","), ")");
        out.fetch = [store, container, info_copy, np, index_positions,
                     runtime, store_name](const Row& binding)
            -> Result<std::vector<Row>> {
          auto ground = BindGround(info_copy, np, binding);
          Row key;
          for (size_t p : index_positions) key.push_back(*ground[p]);
          ESTOCADA_ASSIGN_OR_RETURN(
              std::vector<Row> rows,
              store->IndexLookup(container, index_positions, key,
                                 &runtime->per_store[store_name]));
          AtomInfo check = info_copy;
          for (size_t i = 0; i < np.size(); ++i) {
            check.ground[np[i]] = binding[i];
          }
          std::vector<Row> out_rows;
          for (Row& row : rows) {
            if (RowSatisfiesAtom(row, check)) out_rows.push_back(std::move(row));
          }
          return out_rows;
        };
      } else {
        out.access_cost = cost.per_op + cost.per_row * rows_total +
                          cost.per_ret * est_out_rows;
        if (!build) break;
        out.desc = StrCat(store_name, ": PARALLEL-SCAN ", container);
        out.fetch = [store, container, info_copy, np, runtime,
                     store_name](const Row& binding)
            -> Result<std::vector<Row>> {
          AtomInfo check = info_copy;
          for (size_t i = 0; i < np.size(); ++i) {
            check.ground[np[i]] = binding[i];
          }
          return store->ParallelScan(
              container,
              [check](const Row& row) {
                return RowSatisfiesAtom(row, check);
              },
              {}, &runtime->per_store[store_name]);
        };
      }
      break;
    }
    case StoreKind::kText: {
      stores::TextStore* store = info.store->text;
      const std::string container = info.container;
      out.access_cost = cost.per_op + cost.per_lookup +
                        cost.per_ret * est_out_rows;
      if (!build) break;
      out.desc = StrCat(
          store_name, ": SEARCH ", container, " [",
          info.ground[1].has_value() ? info.ground[1]->ToString() : "?",
          "]");
      std::vector<size_t> np = needed_positions;
      out.fetch = [store, container, info_copy, np, runtime,
                   store_name](const Row& binding)
          -> Result<std::vector<Row>> {
        auto ground = BindGround(info_copy, np, binding);
        if (!ground[1].has_value()) {
          return Status::NoRewriting(
              "text search requires a bound term");
        }
        std::string term = ground[1]->is_string()
                               ? ground[1]->string_value()
                               : ground[1]->ToString();
        ESTOCADA_ASSIGN_OR_RETURN(
            std::vector<std::string> ids,
            store->Search(container, {term},
                          &runtime->per_store[store_name]));
        AtomInfo check = info_copy;
        for (size_t i = 0; i < np.size(); ++i) {
          check.ground[np[i]] = binding[i];
        }
        std::vector<Row> out_rows;
        for (const std::string& id : ids) {
          ESTOCADA_ASSIGN_OR_RETURN(Value doc_id, ParseStoredJson(id));
          Row row{doc_id, *ground[1]};
          if (RowSatisfiesAtom(row, check)) out_rows.push_back(std::move(row));
        }
        return out_rows;
      };
      break;
    }
    case StoreKind::kGraph: {
      stores::GraphStore* store = info.store->graph;
      const std::string container = info.container;
      const size_t last = arity - 1;
      // Anchored access: the first or last position is ground at plan
      // time or arrives per binding — one adjacency bucket probe. The
      // label position sharpens it to the labeled composite at match
      // time; everything else is a residual filter inside the store.
      auto pos_bound = [&](size_t p) {
        return info.ground[p].has_value() ||
               std::find(needed_positions.begin(), needed_positions.end(),
                         p) != needed_positions.end();
      };
      const bool anchored = pos_bound(0) || pos_bound(last);
      if (anchored) {
        out.access_cost =
            cost.per_op + cost.per_lookup + cost.per_ret * est_out_rows;
      } else {
        out.access_cost = cost.per_op + cost.per_row * rows_total +
                          cost.per_ret * est_out_rows;
      }
      if (!build) break;
      const bool labeled = arity >= 3 && info.ground[1].has_value();
      out.desc =
          anchored
              ? StrCat(store_name, ": EXPAND ", container,
                       pos_bound(0) ? " out" : " in",
                       labeled
                           ? StrCat(" [", info.ground[1]->ToString(), "]")
                           : "")
              : StrCat(store_name, ": GRAPH-SCAN ", container);
      std::vector<size_t> np = needed_positions;
      out.fetch = [store, container, info_copy, np, runtime,
                   store_name](const Row& binding)
          -> Result<std::vector<Row>> {
        auto ground = BindGround(info_copy, np, binding);
        ESTOCADA_ASSIGN_OR_RETURN(
            std::vector<Row> rows,
            store->Match(container, ground,
                         &runtime->per_store[store_name]));
        AtomInfo check = info_copy;
        for (size_t i = 0; i < np.size(); ++i) {
          check.ground[np[i]] = binding[i];
        }
        std::vector<Row> out_rows;
        for (Row& row : rows) {
          if (RowSatisfiesAtom(row, check)) out_rows.push_back(std::move(row));
        }
        return out_rows;
      };
      // Streaming source form: a GraphFetchOperator pulls one MatchPage
      // per NextBatch, so source-position expansions never materialize.
      auto cursor = std::make_shared<size_t>(0);
      out.graph_reset = [cursor]() {
        *cursor = 0;
        return Status::OK();
      };
      out.graph_stream = [store, container, info_copy, cursor, runtime,
                          store_name](std::vector<Row>* rows)
          -> Result<bool> {
        std::vector<Row> page;
        ESTOCADA_ASSIGN_OR_RETURN(
            bool more,
            store->MatchPage(container, info_copy.ground,
                             engine::RowBatch::kDefaultRows, cursor.get(),
                             &page, &runtime->per_store[store_name]));
        for (Row& row : page) {
          if (RowSatisfiesAtom(row, info_copy)) rows->push_back(std::move(row));
        }
        return more;
      };
      break;
    }
  }
  if (build && !out.fetch) {
    return Status::Internal("unhandled store kind in translator");
  }
  return out;
}

}  // namespace

Translator::Translator(const catalog::Catalog* catalog) : catalog_(catalog) {}

Result<PlannedQuery> Translator::Plan(
    const ConjunctiveQuery& rewriting,
    const std::map<std::string, Value>& parameters,
    const PlanConstraints& constraints) const {
  return PlanInternal(rewriting, parameters, constraints, /*build=*/true);
}

Result<PlannedQuery> Translator::Estimate(
    const ConjunctiveQuery& rewriting,
    const std::map<std::string, Value>& parameters,
    const PlanConstraints& constraints) const {
  return PlanInternal(rewriting, parameters, constraints, /*build=*/false);
}

Result<PlannedQuery> Translator::PlanInternal(
    const ConjunctiveQuery& rewriting,
    const std::map<std::string, Value>& parameters,
    const PlanConstraints& constraints, bool build) const {
  ESTOCADA_RETURN_NOT_OK(rewriting.Validate());
  auto runtime = std::make_shared<RuntimeStats>();

  // ---- Resolve atoms against the catalog, routing each fragment read
  // to one available replica placement.
  std::vector<AtomInfo> infos;
  for (const Atom& atom : rewriting.body) {
    ESTOCADA_ASSIGN_OR_RETURN(const StorageDescriptor* frag,
                              catalog_->GetFragment(atom.relation));
    if (frag->view.arity() != atom.arity()) {
      return Status::InvalidArgument(
          StrCat("atom ", atom.ToString(), " does not match fragment arity ",
                 frag->view.arity()));
    }
    AtomInfo info;
    catalog::ReplicaPlacement placement;
    size_t shard = 0;
    if (frag->shard_count() > 1) {
      // Shard pruning: when the partition key is ground at plan time
      // (a constant or a supplied parameter), the whole read collapses
      // to the one shard owning that value — routed like any replica
      // set. Otherwise every shard must be routable and the access
      // becomes a scatter (or a per-binding dispatch downstream).
      const catalog::PartitionSpec& spec = frag->partition;
      const Term& key_term = atom.terms[spec.key_position];
      std::optional<Value> key;
      if (key_term.is_constant()) {
        key = Value::FromConstant(key_term.constant());
      } else if (key_term.is_variable() &&
                 pacb::IsParameterVariable(key_term.var_name())) {
        auto it = parameters.find(key_term.var_name());
        if (it != parameters.end()) key = it->second;
      }
      if (key.has_value()) {
        shard = spec.ShardOf(*key);
      } else {
        info.scatter = true;
        for (size_t s = 0; s < spec.shards; ++s) {
          ESTOCADA_ASSIGN_OR_RETURN(catalog::ReplicaPlacement p,
                                    RouteShard(*frag, s, constraints));
          ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* sh,
                                    catalog_->GetStore(p.store_name));
          info.shard_placements.push_back(std::move(p));
          info.shard_stores.push_back(sh);
        }
        placement = info.shard_placements[0];
      }
    }
    if (!info.scatter) {
      ESTOCADA_ASSIGN_OR_RETURN(placement,
                                RouteShard(*frag, shard, constraints));
    }
    ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* store,
                              catalog_->GetStore(placement.store_name));
    info.atom = &atom;
    info.fragment = frag;
    info.store = store;
    info.store_name = std::move(placement.store_name);
    info.container = std::move(placement.container);
    for (const Term& t : atom.terms) {
      if (t.is_constant()) {
        info.ground.emplace_back(Value::FromConstant(t.constant()));
        info.var.emplace_back("");
      } else if (t.is_variable() &&
                 pacb::IsParameterVariable(t.var_name())) {
        auto it = parameters.find(t.var_name());
        if (it == parameters.end()) {
          return Status::InvalidArgument(
              StrCat("no value supplied for parameter ", t.var_name()));
        }
        info.ground.emplace_back(it->second);
        info.var.emplace_back("");
      } else if (t.is_variable()) {
        info.ground.emplace_back(std::nullopt);
        info.var.emplace_back(t.var_name());
      } else {
        return Status::InvalidArgument(
            StrCat("labelled null in rewriting atom ", atom.ToString()));
      }
    }
    infos.push_back(std::move(info));
  }

  // ---- Feasible evaluation order under access patterns.
  pacb::AdornmentMap adornments;
  for (const AtomInfo& info : infos) {
    if (!info.fragment->view.adornments.empty()) {
      adornments[info.fragment->name()] = info.fragment->view.adornments;
    }
  }
  std::vector<size_t> order =
      pacb::FeasibleOrder(rewriting.body, adornments);
  if (order.empty() && !rewriting.body.empty()) {
    return Status::NoRewriting(
        StrCat("rewriting is not executable under access patterns: ",
               rewriting.ToString()));
  }

  // ---- Group: all atoms on the same relational store fuse into one
  // delegated SPJ subquery anchored at the first of them; every other
  // atom is its own group.
  std::vector<std::vector<size_t>> groups;  // atom indices, in order
  std::map<std::string, size_t> rel_group_of_store;
  for (size_t idx : order) {
    const AtomInfo& info = infos[idx];
    // A scattered atom never fuses: each shard holds only part of its
    // extent, so it cannot join inside one delegated SPJ.
    if (info.store->kind == StoreKind::kRelational && !info.scatter) {
      auto it = rel_group_of_store.find(info.store_name);
      if (it != rel_group_of_store.end()) {
        groups[it->second].push_back(idx);
        continue;
      }
      rel_group_of_store.emplace(info.store_name, groups.size());
    }
    groups.push_back({idx});
  }

  // ---- Compile each group to a native access.
  PlannedQuery plan;
  plan.rewriting = rewriting;
  plan.runtime_stats = runtime;
  for (const AtomInfo& info : infos) {
    if (info.scatter) {
      for (const catalog::ReplicaPlacement& p : info.shard_placements) {
        plan.stores_used.push_back(p.store_name);
      }
    } else {
      plan.stores_used.push_back(info.store_name);
    }
  }
  std::sort(plan.stores_used.begin(), plan.stores_used.end());
  plan.stores_used.erase(
      std::unique(plan.stores_used.begin(), plan.stores_used.end()),
      plan.stores_used.end());

  std::vector<CompiledGroup> compiled;
  for (const std::vector<size_t>& group : groups) {
    CompiledGroup cg;
    const AtomInfo& head_info = infos[group[0]];
    const StoreKind kind = head_info.store->kind;
    const CostConstants cost = CostModel(kind);
    const std::string store_name = head_info.store_name;

    if (kind == StoreKind::kRelational && !head_info.scatter) {
      // -- Largest delegatable subquery: one SPJ over all group atoms.
      stores::SpjQuery q;
      std::unordered_map<std::string,
                         stores::SpjQuery::ColumnRef> var_first;
      auto indexed = [](const AtomInfo& ai, size_t pos) {
        const auto& ad = ai.fragment->view.adornments;
        if (pos < ad.size() && ad[pos] == Adornment::kInput) return true;
        for (size_t p : ai.fragment->index_positions) {
          if (p == pos) return true;
        }
        return false;
      };
      double est = 1;
      double scanned = 0;
      for (size_t gi = 0; gi < group.size(); ++gi) {
        const AtomInfo& info = infos[group[gi]];
        std::string alias = StrCat("a", gi);
        q.from.push_back({info.container, alias});
        std::vector<std::string> cols =
            catalog::FragmentColumnNames(info.fragment->view);
        const double atom_rows = std::max<double>(
            1.0, static_cast<double>(info.fragment->stats.row_count));
        est *= atom_rows;
        // An indexed equality (filter or in-group join) narrows the
        // atom's scan to the matching rows; otherwise it is a full pass.
        double atom_scanned = atom_rows;
        for (size_t i = 0; i < info.atom->arity(); ++i) {
          const bool eq_access =
              info.ground[i].has_value() ||
              (!info.var[i].empty() && var_first.count(info.var[i]));
          if (eq_access && indexed(info, i)) {
            atom_scanned = std::min(
                atom_scanned,
                atom_rows * info.fragment->stats.EqualitySelectivity(i));
          }
        }
        scanned += atom_scanned;
        for (size_t i = 0; i < info.atom->arity(); ++i) {
          stores::SpjQuery::ColumnRef ref{alias, cols[i]};
          q.select.push_back(ref);
          cg.out_names.push_back(StrCat(alias, ".", cols[i]));
          cg.out_vars.push_back(info.var[i]);
          cg.out_distinct.push_back(static_cast<double>(
              i < info.fragment->stats.distinct.size()
                  ? info.fragment->stats.distinct[i]
                  : 0));
          if (info.ground[i].has_value()) {
            q.filters.push_back({ref, *info.ground[i]});
            est *= info.fragment->stats.EqualitySelectivity(i);
          } else if (!info.var[i].empty()) {
            auto [it, fresh] = var_first.emplace(info.var[i], ref);
            if (!fresh) {
              q.joins.push_back({it->second, ref});
              est *= info.fragment->stats.EqualitySelectivity(i);
            }
          }
        }
      }
      cg.est_out_rows = std::max(est, 0.0);
      cg.access_cost = cost.per_op + cost.per_row * scanned +
                       cost.per_ret * cg.est_out_rows;
      if (!build) {
        compiled.push_back(std::move(cg));
        continue;
      }
      cg.desc = StrCat(store_name, ": ", q.ToString());
      stores::RelationalStore* store = head_info.store->relational;
      // Relational columns that persist nested lists as JSON text and
      // must be parsed back (output column index, group-wide).
      std::vector<size_t> list_cols;
      {
        size_t off = 0;
        for (size_t gi = 0; gi < group.size(); ++gi) {
          const AtomInfo& ai = infos[group[gi]];
          for (size_t i = 0; i < ai.atom->arity(); ++i) {
            if (i < ai.fragment->list_column.size() &&
                ai.fragment->list_column[i]) {
              list_cols.push_back(off + i);
            }
          }
          off += ai.atom->arity();
        }
      }
      cg.fetch = [store, q, runtime, store_name, list_cols](
                     const Row&) -> Result<std::vector<Row>> {
        ESTOCADA_ASSIGN_OR_RETURN(
            std::vector<Row> rows,
            store->Execute(q, &runtime->per_store[store_name]));
        for (Row& row : rows) {
          for (size_t c : list_cols) {
            if (row[c].is_string()) {
              ESTOCADA_ASSIGN_OR_RETURN(Value parsed,
                                        ParseStoredJson(row[c].string_value()));
              row[c] = std::move(parsed);
            }
          }
        }
        return rows;
      };
      compiled.push_back(std::move(cg));
      continue;
    }

    // -- Single-atom groups.
    const AtomInfo& info = head_info;
    const size_t arity = info.atom->arity();
    std::vector<std::string> cols =
        catalog::FragmentColumnNames(info.fragment->view);
    cg.out_names = cols;
    cg.out_vars = info.var;
    for (size_t i = 0; i < arity; ++i) {
      cg.out_distinct.push_back(static_cast<double>(
          i < info.fragment->stats.distinct.size()
              ? info.fragment->stats.distinct[i]
              : 0));
    }
    // Needed variables: input-adorned positions holding a free variable.
    std::vector<size_t> needed_positions;
    const auto& adorn = info.fragment->view.adornments;
    for (size_t i = 0; i < arity; ++i) {
      if (i < adorn.size() && adorn[i] == Adornment::kInput &&
          !info.var[i].empty() &&
          // If the same variable repeats and an earlier position binds
          // it, the post-check handles consistency.
          std::find(cg.needed_vars.begin(), cg.needed_vars.end(),
                    info.var[i]) == cg.needed_vars.end()) {
        needed_positions.push_back(i);
        cg.needed_vars.push_back(info.var[i]);
      }
    }
    double sel = 1;
    for (size_t i = 0; i < arity; ++i) {
      if (info.ground[i].has_value()) {
        sel *= info.fragment->stats.EqualitySelectivity(i);
      }
    }
    for (size_t p : needed_positions) {
      sel *= info.fragment->stats.EqualitySelectivity(p);
    }
    const double rows_total =
        static_cast<double>(info.fragment->stats.row_count);
    cg.est_out_rows = std::max(rows_total * sel, 0.0);
    if (!info.scatter) {
      ESTOCADA_ASSIGN_OR_RETURN(
          SingleAtomAccess access,
          CompileSingleAtomAccess(info, needed_positions, cg.needed_vars,
                                  rows_total, cg.est_out_rows, runtime,
                                  build));
      cg.fetch = std::move(access.fetch);
      cg.batch_fetch = std::move(access.batch_fetch);
      cg.graph_stream = std::move(access.graph_stream);
      cg.graph_reset = std::move(access.graph_reset);
      cg.access_cost = access.access_cost;
      cg.desc = std::move(access.desc);
    } else {
      // Scatter: compile one access per shard against its routed replica.
      const catalog::PartitionSpec& spec = info.fragment->partition;
      const double shard_div = static_cast<double>(spec.shards);
      double total_cost = 0;
      for (size_t s = 0; s < spec.shards; ++s) {
        AtomInfo si = info;
        si.store = info.shard_stores[s];
        si.store_name = info.shard_placements[s].store_name;
        si.container = info.shard_placements[s].container;
        // Pre-insert the per-store stats slot now: concurrent shard
        // fetches then only ever *find* entries, never grow the map.
        runtime->per_store[si.store_name];
        ESTOCADA_ASSIGN_OR_RETURN(
            SingleAtomAccess access,
            CompileSingleAtomAccess(
                si, needed_positions, cg.needed_vars,
                std::max(rows_total / shard_div, 1.0),
                std::max(cg.est_out_rows / shard_div, 0.0), runtime, build));
        total_cost += access.access_cost;
        if (s == 0 && build) {
          cg.desc = StrCat("scatter[", spec.shards, " shards] ", access.desc);
        }
        cg.shard_fetches.push_back(std::move(access.fetch));
        cg.shard_keys.push_back(si.store_name);
      }
      cg.access_cost = total_cost;
      // When the partition key arrives as a BindJoin binding, every call
      // routes to exactly one shard (dynamic pruning).
      int key_idx = -1;
      for (size_t i = 0; i < needed_positions.size(); ++i) {
        if (needed_positions[i] == spec.key_position) {
          key_idx = static_cast<int>(i);
        }
      }
      std::vector<engine::BindJoinOperator::Fetch> fetches;
      if (build) fetches = cg.shard_fetches;
      if (key_idx >= 0) {
        if (build) {
          const catalog::PartitionSpec spec_copy = spec;
          const size_t ki = static_cast<size_t>(key_idx);
          cg.fetch = [fetches, spec_copy, ki](const Row& binding)
              -> Result<std::vector<Row>> {
            return fetches[spec_copy.ShardOf(binding[ki])](binding);
          };
        }
        // A bound key prunes to one shard, so charge one shard's access.
        cg.access_cost = total_cost / shard_div;
      } else if (build) {
        // No key in the binding: each call must consult every shard
        // (sequential here; standalone sources get ScatterGatherOperator).
        cg.fetch = [fetches](const Row& binding) -> Result<std::vector<Row>> {
          std::vector<Row> all;
          for (const auto& f : fetches) {
            ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> part, f(binding));
            all.insert(all.end(), std::make_move_iterator(part.begin()),
                       std::make_move_iterator(part.end()));
          }
          return all;
        };
      }
    }
    compiled.push_back(std::move(cg));
  }

  // ---- Stitch groups with hash joins / bind joins. In estimate mode
  // the same walk runs — scope/width bookkeeping, NoRewriting checks and
  // cost arithmetic are all shared — but no operators are constructed.
  OperatorPtr tree;
  bool first_group = true;
  std::unordered_map<std::string, size_t> scope;  // var -> column index
  size_t width = 0;
  double est_rows = 1;
  double est_cost = 0;

  for (CompiledGroup& cg : compiled) {
    plan.delegated.push_back(cg.desc);
    // Builds the source operator for a group that takes no outer bindings:
    // scatter groups fan their per-shard fetches out over the scatter pool
    // (gathered in shard order — deterministic); everything else is a
    // plain lazy callback scan.
    auto make_source = [&cg]() -> OperatorPtr {
      if (cg.shard_fetches.size() > 1) {
        std::vector<engine::ScatterGatherOperator::Fetch> shard_runs;
        shard_runs.reserve(cg.shard_fetches.size());
        for (const auto& f : cg.shard_fetches) {
          shard_runs.push_back([f]() { return f(Row{}); });
        }
        return std::make_unique<engine::ScatterGatherOperator>(
            cg.out_names, std::move(shard_runs), cg.shard_keys, cg.desc,
            ScatterPool());
      }
      if (cg.graph_stream) {
        return std::make_unique<engine::GraphFetchOperator>(
            cg.out_names, cg.graph_reset, cg.graph_stream, cg.desc);
      }
      auto fetch = cg.fetch;
      return std::make_unique<engine::CallbackScanOperator>(
          cg.out_names, [fetch]() { return fetch(Row{}); }, cg.desc);
    };
    // Join selectivity for shared output variables (not used as binding).
    auto shared_selectivity = [&]() {
      double sel = 1;
      std::unordered_set<std::string> counted;
      for (size_t i = 0; i < cg.out_vars.size(); ++i) {
        const std::string& v = cg.out_vars[i];
        if (v.empty() || !scope.count(v)) continue;
        if (std::find(cg.needed_vars.begin(), cg.needed_vars.end(), v) !=
            cg.needed_vars.end()) {
          continue;
        }
        if (!counted.insert(v).second) continue;
        sel *= cg.out_distinct[i] > 0 ? 1.0 / cg.out_distinct[i] : 0.1;
      }
      return sel;
    };

    if (first_group) {
      if (!cg.needed_vars.empty()) {
        return Status::NoRewriting(
            StrCat("first group of plan needs outer bindings (",
                   StrJoin(cg.needed_vars, ", "), ")"));
      }
      if (build) tree = make_source();
      est_cost += cg.access_cost;
      est_rows = cg.est_out_rows;
    } else if (!cg.needed_vars.empty()) {
      // BindJoin: feed scope values into the access-restricted source.
      std::vector<size_t> bind_cols;
      for (const std::string& v : cg.needed_vars) {
        auto it = scope.find(v);
        if (it == scope.end()) {
          return Status::NoRewriting(
              StrCat("binding variable '", v, "' not available in scope"));
        }
        bind_cols.push_back(it->second);
      }
      if (build) {
        auto bind_join = std::make_unique<engine::BindJoinOperator>(
            std::move(tree), bind_cols, cg.out_names, cg.fetch, cg.desc);
        if (cg.batch_fetch) bind_join->set_batch_fetch(cg.batch_fetch);
        tree = std::move(bind_join);
      }
      // Equality post-filters for shared vars that are plain outputs.
      if (build) {
        ExprPtr post;
        for (size_t i = 0; i < cg.out_vars.size(); ++i) {
          const std::string& v = cg.out_vars[i];
          if (v.empty() || !scope.count(v)) continue;
          if (std::find(cg.needed_vars.begin(), cg.needed_vars.end(), v) !=
              cg.needed_vars.end()) {
            continue;
          }
          ExprPtr clause = Expr::Binary(Expr::Op::kEq,
                                        Expr::Column(scope[v]),
                                        Expr::Column(width + i));
          post = post ? Expr::Binary(Expr::Op::kAnd, post, clause) : clause;
        }
        if (post) {
          tree = std::make_unique<engine::FilterOperator>(std::move(tree),
                                                          post);
        }
      }
      est_cost += est_rows * cg.access_cost;
      est_rows = est_rows * cg.est_out_rows * shared_selectivity();
    } else {
      // Self-contained group: hash join on shared variables.
      if (build) {
        OperatorPtr source = make_source();
        std::vector<std::pair<size_t, size_t>> keys;
        std::unordered_set<std::string> keyed;
        for (size_t i = 0; i < cg.out_vars.size(); ++i) {
          const std::string& v = cg.out_vars[i];
          if (v.empty() || !scope.count(v)) continue;
          if (!keyed.insert(v).second) continue;
          keys.emplace_back(scope[v], i);
        }
        tree = std::make_unique<engine::HashJoinOperator>(std::move(tree),
                                                          std::move(source),
                                                          keys);
      }
      est_cost += cg.access_cost;
      est_rows = est_rows * cg.est_out_rows * shared_selectivity();
    }
    first_group = false;
    // Extend the variable scope with this group's fresh outputs.
    for (size_t i = 0; i < cg.out_vars.size(); ++i) {
      const std::string& v = cg.out_vars[i];
      if (!v.empty()) scope.emplace(v, width + i);
    }
    width += cg.out_vars.size();
  }

  // ---- Head projection (+ set semantics).
  std::vector<std::string> names;
  std::vector<ExprPtr> exprs;
  for (size_t i = 0; i < rewriting.head.size(); ++i) {
    const Term& h = rewriting.head[i];
    if (h.is_constant()) {
      names.push_back(StrCat("h", i));
      exprs.push_back(Expr::Const(Value::FromConstant(h.constant())));
    } else if (h.is_variable() &&
               pacb::IsParameterVariable(h.var_name())) {
      auto it = parameters.find(h.var_name());
      if (it == parameters.end()) {
        return Status::InvalidArgument(
            StrCat("no value supplied for parameter ", h.var_name()));
      }
      names.push_back(h.var_name().substr(1));
      exprs.push_back(Expr::Const(it->second));
    } else if (h.is_variable()) {
      auto it = scope.find(h.var_name());
      if (it == scope.end()) {
        return Status::InvalidArgument(
            StrCat("head variable '", h.var_name(), "' not produced"));
      }
      names.push_back(h.var_name());
      exprs.push_back(Expr::Column(it->second));
    } else {
      return Status::InvalidArgument("unsupported rewriting head term");
    }
  }
  if (build) {
    tree = std::make_unique<engine::ProjectOperator>(std::move(tree), names,
                                                     exprs);
    tree = std::make_unique<engine::DistinctOperator>(std::move(tree));
    plan.root = std::move(tree);
  }
  plan.estimated_cost = est_cost;
  plan.estimated_rows = est_rows;
  return plan;
}

}  // namespace estocada::rewriting
