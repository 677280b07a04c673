#include "rewriting/materializer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_set>

#include "common/strings.h"

namespace estocada::rewriting {

using catalog::Catalog;
using catalog::FragmentStatistics;
using catalog::StorageDescriptor;
using catalog::StoreHandle;
using catalog::StoreKind;
using engine::Row;
using engine::Value;
using pivot::Adornment;

namespace {

stores::ColumnType InferColumnType(const std::vector<Row>& rows, size_t col) {
  for (const Row& r : rows) {
    const Value& v = r[col];
    if (v.is_null()) continue;
    if (v.is_int()) return stores::ColumnType::kInt;
    if (v.is_real()) return stores::ColumnType::kReal;
    if (v.is_bool()) return stores::ColumnType::kBool;
    return stores::ColumnType::kStr;
  }
  // No data to infer from (empty view at materialization time): stay
  // open to whatever incremental maintenance appends later.
  return stores::ColumnType::kAny;
}

/// Lists cannot live in a relational column; serialize them to JSON text.
Value FlattenForRelational(const Value& v) {
  if (v.is_list()) return Value::Str(v.ToJson().Serialize());
  return v;
}

FragmentStatistics ComputeStatistics(const std::vector<Row>& rows,
                                     size_t arity) {
  FragmentStatistics stats;
  stats.row_count = rows.size();
  stats.distinct.assign(arity, 0);
  for (size_t c = 0; c < arity; ++c) {
    std::unordered_set<size_t> hashes;
    for (const Row& r : rows) hashes.insert(r[c].Hash());
    stats.distinct[c] = hashes.size();
  }
  return stats;
}

/// Input-adorned positions of the fragment's stored relation.
std::vector<size_t> InputPositions(const pacb::ViewDefinition& view) {
  std::vector<size_t> out;
  for (size_t i = 0; i < view.adornments.size(); ++i) {
    if (view.adornments[i] == Adornment::kInput) out.push_back(i);
  }
  return out;
}

/// Positions to index: input-adorned ones plus the descriptor's explicit
/// index_positions (deduplicated, sorted).
std::vector<size_t> IndexPositions(const StorageDescriptor& desc) {
  std::set<size_t> positions;
  for (size_t p : InputPositions(desc.view)) positions.insert(p);
  for (size_t p : desc.index_positions) positions.insert(p);
  return {positions.begin(), positions.end()};
}

Status LoadRelational(stores::RelationalStore* store,
                      const StorageDescriptor& desc,
                      const std::string& container,
                      const std::vector<Row>& rows,
                      const std::vector<std::string>& columns) {
  std::vector<stores::ColumnDef> defs;
  for (size_t c = 0; c < columns.size(); ++c) {
    defs.push_back({columns[c], InferColumnType(rows, c)});
  }
  ESTOCADA_RETURN_NOT_OK(store->CreateTable(container, defs));
  for (const Row& row : rows) {
    Row flat;
    flat.reserve(row.size());
    for (const Value& v : row) flat.push_back(FlattenForRelational(v));
    ESTOCADA_RETURN_NOT_OK(store->Insert(container, std::move(flat)));
  }
  // Index the declared fast access paths.
  for (size_t pos : IndexPositions(desc)) {
    ESTOCADA_RETURN_NOT_OK(store->CreateIndex(container, columns[pos]));
  }
  return Status::OK();
}

Status LoadKeyValue(stores::KeyValueStore* store, const std::string& container,
                    const std::vector<Row>& rows) {
  ESTOCADA_RETURN_NOT_OK(store->CreateCollection(container));
  // The payload under each key is the JSON *list of rows* sharing that
  // key (a key position need not be unique — e.g. an advisor-made
  // fragment keyed by product category).
  std::map<std::string, Value> grouped;
  for (const Row& row : rows) {
    std::string key = row[0].ToJson().Serialize();
    auto [it, fresh] = grouped.emplace(key, Value::List({}));
    it->second.mutable_list().push_back(Value::List(row));
  }
  // One pre-sized bulk load + verify instead of per-key Puts; the charge
  // is identical (one op + one index touch per key) so migration cost
  // accounting is unchanged.
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(grouped.size());
  for (const auto& [key, payload] : grouped) {
    entries.emplace_back(key, payload.ToJson().Serialize());
  }
  return store->BulkLoad(container, entries);
}

Status LoadDocument(stores::DocumentStore* store,
                    const StorageDescriptor& desc,
                    const std::string& container,
                    const std::vector<Row>& rows) {
  ESTOCADA_RETURN_NOT_OK(store->CreateCollection(container));
  size_t n = 0;
  for (const Row& row : rows) {
    json::JsonValue doc = json::JsonValue::MakeObject();
    doc.Set("_id", json::JsonValue::Str(StrCat("r", n++)));
    for (size_t c = 0; c < row.size(); ++c) {
      doc.Set(StrCat("f", c), row[c].ToJson());
    }
    ESTOCADA_RETURN_NOT_OK(store->Insert(container, doc).status());
  }
  // Path indexes on the declared fast access paths.
  for (size_t pos : IndexPositions(desc)) {
    ESTOCADA_RETURN_NOT_OK(
        store->CreatePathIndex(container, StrCat("f", pos)));
  }
  return Status::OK();
}

Status LoadParallel(stores::ParallelStore* store,
                    const StorageDescriptor& desc,
                    const std::string& container,
                    const std::vector<Row>& rows, size_t arity) {
  ESTOCADA_RETURN_NOT_OK(store->CreateRelation(container, arity));
  ESTOCADA_RETURN_NOT_OK(store->InsertBatch(container, rows));
  std::vector<size_t> inputs = InputPositions(desc.view);
  if (inputs.empty()) inputs = desc.index_positions;
  if (!inputs.empty()) {
    ESTOCADA_RETURN_NOT_OK(store->CreateIndex(container, inputs));
  }
  return Status::OK();
}

Status LoadText(stores::TextStore* store, const StorageDescriptor& desc,
                const std::string& container, const std::vector<Row>& rows,
                size_t arity) {
  if (arity != 2) {
    return Status::InvalidArgument(
        StrCat("text fragment '", desc.name(),
               "' must have arity 2 (docID, term), got ", arity));
  }
  ESTOCADA_RETURN_NOT_OK(store->CreateCore(container));
  // Group terms per document id.
  std::map<std::string, std::string> text_per_doc;
  for (const Row& row : rows) {
    std::string id = row[0].ToJson().Serialize();
    std::string term = row[1].is_string() ? row[1].string_value()
                                          : row[1].ToString();
    std::string& text = text_per_doc[id];
    if (!text.empty()) text += ' ';
    text += term;
  }
  for (const auto& [id, text] : text_per_doc) {
    ESTOCADA_RETURN_NOT_OK(store->AddDocument(container, id, {{"text", text}}));
  }
  return Status::OK();
}

Status LoadGraph(stores::GraphStore* store, const std::string& container,
                 const std::vector<Row>& rows, size_t arity) {
  // Adjacency indexes (first/last position, labeled composites) are
  // built-in; declared index_positions need no extra work.
  ESTOCADA_RETURN_NOT_OK(store->CreateGraph(container, arity));
  return store->InsertBatch(container, rows);
}

/// Dispatches a Load* call for the store kind (creation + bulk load +
/// indexes) into one replica's container. `rows` may be empty: the
/// container is then created with open column types, ready for appends.
Status LoadFragment(const StoreHandle& store, const StorageDescriptor& desc,
                    const std::string& container, const std::vector<Row>& rows,
                    const std::vector<std::string>& columns, size_t arity) {
  switch (store.kind) {
    case StoreKind::kRelational:
      return LoadRelational(store.relational, desc, container, rows, columns);
    case StoreKind::kKeyValue:
      return LoadKeyValue(store.kv, container, rows);
    case StoreKind::kDocument:
      return LoadDocument(store.document, desc, container, rows);
    case StoreKind::kParallel:
      return LoadParallel(store.parallel, desc, container, rows, arity);
    case StoreKind::kText:
      return LoadText(store.text, desc, container, rows, arity);
    case StoreKind::kGraph:
      return LoadGraph(store.graph, container, rows, arity);
  }
  return Status::Internal("unknown store kind");
}

/// Calls `fn(shard, rows)` once per shard with the rows that shard owns.
/// A one-shard fragment gets `rows` itself, so an unpartitioned fragment
/// never copies its view extent; a partitioned one gets each shard's
/// bucket by the partition key.
template <typename Fn>
Status ForEachShardBucket(const StorageDescriptor& desc,
                          const std::vector<Row>& rows, Fn&& fn) {
  if (desc.shards.size() == 1) return fn(0, rows);
  std::vector<std::vector<Row>> buckets(desc.shards.size());
  for (const Row& row : rows) {
    buckets[desc.partition.ShardOf(row[desc.partition.key_position])]
        .push_back(row);
  }
  for (size_t s = 0; s < buckets.size(); ++s) {
    ESTOCADA_RETURN_NOT_OK(fn(s, buckets[s]));
  }
  return Status::OK();
}

/// One addressed replica: its fragment, placement and store.
struct ReplicaTarget {
  const StorageDescriptor* desc;
  const catalog::ReplicaPlacement* placement;
  const StoreHandle* store;
};

/// Resolves replica `replica` of shard `shard`; kOutOfRange when the
/// fragment has no such placement.
Result<ReplicaTarget> ResolveReplica(const Catalog& catalog,
                                     const std::string& fragment_name,
                                     size_t shard, size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(const StorageDescriptor* desc,
                            catalog.GetFragment(fragment_name));
  if (shard >= desc->shards.size() ||
      replica >= desc->shards[shard].replicas.size()) {
    return Status::OutOfRange(StrCat("fragment '", fragment_name,
                                     "' has no replica ", replica,
                                     " of shard ", shard));
  }
  const catalog::ReplicaPlacement* p = &desc->shards[shard].replicas[replica];
  ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* store,
                            catalog.GetStore(p->store_name));
  return ReplicaTarget{desc, p, store};
}

Status DropContainer(const StoreHandle& store, const std::string& container) {
  switch (store.kind) {
    case StoreKind::kRelational:
      return store.relational->DropTable(container);
    case StoreKind::kKeyValue:
      return store.kv->DropCollection(container);
    case StoreKind::kDocument:
      return store.document->DropCollection(container);
    case StoreKind::kParallel:
      return store.parallel->DropRelation(container);
    case StoreKind::kText:
      return store.text->DropCore(container);
    case StoreKind::kGraph:
      return store.graph->DropGraph(container);
  }
  return Status::Internal("unknown store kind");
}

}  // namespace

Status CreateFragmentContainer(Catalog* catalog,
                               const std::string& fragment_name) {
  ESTOCADA_ASSIGN_OR_RETURN(StorageDescriptor * desc,
                            catalog->GetMutableFragment(fragment_name));
  const size_t arity = desc->view.arity();
  std::vector<std::string> columns = catalog::FragmentColumnNames(desc->view);
  for (const catalog::ShardState& shard : desc->shards) {
    for (const catalog::ReplicaPlacement& p : shard.replicas) {
      ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* store,
                                catalog->GetStore(p.store_name));
      ESTOCADA_RETURN_NOT_OK(
          LoadFragment(*store, *desc, p.container, {}, columns, arity));
    }
  }
  desc->stats = FragmentStatistics{};
  desc->stats.distinct.assign(arity, 0);
  desc->list_column.assign(arity, false);
  return Status::OK();
}

Status MaterializeFragment(const StagingData& staging, Catalog* catalog,
                           const std::string& fragment_name) {
  ESTOCADA_ASSIGN_OR_RETURN(StorageDescriptor * desc,
                            catalog->GetMutableFragment(fragment_name));
  // Evaluate the view over the staged dataset (set semantics: a
  // materialized view holds each tuple once).
  ESTOCADA_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      EvaluateCqOverStaging(desc->view.query, staging, {}, true));
  const size_t arity = desc->view.arity();
  std::vector<std::string> columns = catalog::FragmentColumnNames(desc->view);
  // The load is strict: every replica must materialize (unlike the
  // append fan-out, which tolerates stale minorities). Each shard's
  // replicas receive the shard's rows and snap to its write epoch.
  // Replicas marked rebuilding are skipped — the ReplicaRepairer owns
  // their containers (this path doubles as the full-rebuild step of text
  // maintenance).
  ESTOCADA_RETURN_NOT_OK(ForEachShardBucket(
      *desc, rows, [&](size_t s, const std::vector<Row>& bucket) -> Status {
        catalog::ShardState& shard = desc->shards[s];
        for (catalog::ReplicaPlacement& r : shard.replicas) {
          if (r.rebuilding) continue;
          ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* store,
                                    catalog->GetStore(r.store_name));
          ESTOCADA_RETURN_NOT_OK(
              LoadFragment(*store, *desc, r.container, bucket, columns, arity));
          r.epoch = shard.write_epoch;
        }
        return Status::OK();
      }));
  desc->stats = ComputeStatistics(rows, arity);
  desc->list_column.assign(arity, false);
  for (const Row& row : rows) {
    for (size_t c = 0; c < arity; ++c) {
      if (row[c].is_list()) desc->list_column[c] = true;
    }
  }
  return Status::OK();
}

namespace {

/// Appends freshly derived view rows to one replica container. Leaves the
/// descriptor's statistics untouched — callers account a logical append
/// exactly once, however many replicas received it. `doc_id_base` seeds
/// the synthetic _id counter of document containers.
Status AppendRowsToContainer(const StoreHandle& store,
                             const std::string& container, size_t doc_id_base,
                             const std::vector<Row>& rows) {
  switch (store.kind) {
    case StoreKind::kRelational:
      for (const Row& row : rows) {
        Row flat;
        flat.reserve(row.size());
        for (const Value& v : row) flat.push_back(FlattenForRelational(v));
        ESTOCADA_RETURN_NOT_OK(
            store.relational->Insert(container, std::move(flat)));
      }
      break;
    case StoreKind::kKeyValue: {
      // Read-modify-write of the per-key row-list payloads.
      std::map<std::string, std::vector<Row>> by_key;
      for (const Row& row : rows) {
        by_key[row[0].ToJson().Serialize()].push_back(row);
      }
      for (const auto& [key, new_rows] : by_key) {
        Value payload = Value::List({});
        auto existing = store.kv->Get(container, key);
        if (existing.ok()) {
          ESTOCADA_ASSIGN_OR_RETURN(json::JsonValue parsed,
                                    json::Parse(*existing));
          payload = Value::FromJson(parsed);
          if (!payload.is_list()) {
            return Status::Internal("corrupt KV fragment payload");
          }
        } else if (existing.status().code() != StatusCode::kNotFound) {
          return existing.status();
        }
        for (const Row& row : new_rows) {
          payload.mutable_list().push_back(Value::List(row));
        }
        ESTOCADA_RETURN_NOT_OK(
            store.kv->Put(container, key, payload.ToJson().Serialize()));
      }
      break;
    }
    case StoreKind::kDocument: {
      size_t n = doc_id_base;
      for (const Row& row : rows) {
        json::JsonValue doc = json::JsonValue::MakeObject();
        doc.Set("_id", json::JsonValue::Str(StrCat("r", n++)));
        for (size_t c = 0; c < row.size(); ++c) {
          doc.Set(StrCat("f", c), row[c].ToJson());
        }
        ESTOCADA_RETURN_NOT_OK(store.document->Insert(container, doc).status());
      }
      break;
    }
    case StoreKind::kParallel:
      ESTOCADA_RETURN_NOT_OK(store.parallel->InsertBatch(container, rows));
      break;
    case StoreKind::kText:
      return Status::Unsupported("text fragments are rebuilt, not appended");
    case StoreKind::kGraph:
      ESTOCADA_RETURN_NOT_OK(store.graph->InsertBatch(container, rows));
      break;
  }
  return Status::OK();
}

/// One shard's write fan-out: appends `rows` to every replica of the
/// shard that is fresh and not mid-rebuild, bumping the shard's write
/// epoch once for the logical mutation. Replicas that take the write
/// advance to the new epoch; replicas that fail (dead store) are left
/// behind — stale, excluded from routing, queued for the repairer. When
/// *no* replica takes the write the epoch bump is rolled back and the
/// first error surfaces, so an unreplicated shard behaves like a plain
/// store write.
Status FanOutAppendShard(Catalog* catalog, StorageDescriptor* desc,
                         size_t shard_idx, const std::vector<Row>& rows) {
  catalog::ShardState& shard = desc->shards[shard_idx];
  const uint64_t old_epoch = shard.write_epoch;
  const uint64_t new_epoch = old_epoch + 1;
  shard.write_epoch = new_epoch;
  size_t successes = 0;
  Status first_error = Status::OK();
  for (catalog::ReplicaPlacement& r : shard.replicas) {
    if (r.rebuilding || r.epoch != old_epoch) continue;
    auto store = catalog->GetStore(r.store_name);
    Status st = store.ok() ? AppendRowsToContainer(**store, r.container,
                                                   desc->stats.row_count, rows)
                           : store.status();
    if (st.ok()) {
      r.epoch = new_epoch;
      ++successes;
    } else if (first_error.ok()) {
      first_error = st;
    }
  }
  if (successes == 0) {
    shard.write_epoch = old_epoch;
    return first_error.ok()
               ? Status::Unavailable(
                     StrCat("fragment '", desc->name(), "' shard ", shard_idx,
                            " has no writable replica (all rebuilding or "
                            "stale)"))
               : first_error;
  }
  return Status::OK();
}

/// Partition-aware write routing: each row lands only on the shard owning
/// its partition-key value. A shard whose entire replica set rejects the
/// write fails the call; shards that already took their rows keep them
/// (their epochs advanced consistently), which is sound under set
/// semantics — re-running the append is a no-op for query answers.
Status FanOutAppend(Catalog* catalog, StorageDescriptor* desc,
                    const std::vector<Row>& rows) {
  ESTOCADA_RETURN_NOT_OK(ForEachShardBucket(
      *desc, rows, [&](size_t s, const std::vector<Row>& bucket) -> Status {
        if (bucket.empty()) return Status::OK();
        return FanOutAppendShard(catalog, desc, s, bucket);
      }));
  desc->stats.row_count += rows.size();
  return Status::OK();
}

}  // namespace

Status AppendToFragment(Catalog* catalog, const std::string& fragment_name,
                        const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  ESTOCADA_ASSIGN_OR_RETURN(StorageDescriptor * desc,
                            catalog->GetMutableFragment(fragment_name));
  const size_t arity = desc->view.arity();
  for (const Row& row : rows) {
    if (row.size() != arity) {
      return Status::InvalidArgument(
          StrCat("fragment '", fragment_name, "' has arity ", arity,
                 "; cannot append a row of ", row.size(), " values"));
    }
  }
  if (desc->list_column.size() < arity) desc->list_column.resize(arity, false);
  for (const Row& row : rows) {
    for (size_t c = 0; c < arity; ++c) {
      if (row[c].is_list()) desc->list_column[c] = true;
    }
  }
  return FanOutAppend(catalog, desc, rows);
}

namespace {

/// Reads a fragment's rows back out of one replica's container.
Result<std::vector<Row>> ReadContainerRows(const StoreHandle& store,
                                           const StorageDescriptor& desc,
                                           const std::string& container) {
  const std::string& fragment_name = desc.name();
  const size_t arity = desc.view.arity();
  std::vector<Row> out;
  switch (store.kind) {
    case StoreKind::kRelational: {
      ESTOCADA_ASSIGN_OR_RETURN(out, store.relational->Scan(container));
      // Undo the list-to-JSON-text flattening of the load layout.
      for (Row& row : out) {
        for (size_t c = 0; c < row.size() && c < desc.list_column.size();
             ++c) {
          if (!desc.list_column[c] || !row[c].is_string()) continue;
          ESTOCADA_ASSIGN_OR_RETURN(json::JsonValue parsed,
                                    json::Parse(row[c].string_value()));
          row[c] = Value::FromJson(parsed);
        }
      }
      return out;
    }
    case StoreKind::kKeyValue: {
      ESTOCADA_ASSIGN_OR_RETURN(auto pairs, store.kv->Scan(container));
      for (const auto& [key, payload] : pairs) {
        ESTOCADA_ASSIGN_OR_RETURN(json::JsonValue parsed,
                                  json::Parse(payload));
        Value rows_value = Value::FromJson(parsed);
        if (!rows_value.is_list()) {
          return Status::Internal("corrupt KV fragment payload");
        }
        for (const Value& row_value : rows_value.list()) {
          if (!row_value.is_list() || row_value.list().size() != arity) {
            return Status::Internal("corrupt KV fragment row");
          }
          out.emplace_back(row_value.list().begin(), row_value.list().end());
        }
      }
      return out;
    }
    case StoreKind::kDocument: {
      ESTOCADA_ASSIGN_OR_RETURN(auto docs, store.document->Find(container, {}));
      for (const json::JsonValue& doc : docs) {
        Row row;
        row.reserve(arity);
        for (size_t c = 0; c < arity; ++c) {
          const json::JsonValue* field = doc.Find(StrCat("f", c));
          if (field == nullptr) {
            return Status::Internal(
                StrCat("document fragment '", fragment_name,
                       "' misses field f", c));
          }
          row.push_back(Value::FromJson(*field));
        }
        out.push_back(std::move(row));
      }
      return out;
    }
    case StoreKind::kParallel:
      return store.parallel->ParallelScan(container, nullptr);
    case StoreKind::kText:
      return Status::Unsupported(
          "text fragments fuse terms per document; row readback is lossy — "
          "use VerifyFragmentAgainstRows");
    case StoreKind::kGraph:
      return store.graph->Scan(container);
  }
  return Status::Internal("unknown store kind");
}

}  // namespace

Result<std::vector<Row>> ReadReplicaRows(const Catalog& catalog,
                                         const std::string& fragment_name,
                                         size_t shard, size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(catalog, fragment_name, shard, replica));
  return ReadContainerRows(*t.store, *t.desc, t.placement->container);
}

namespace {

/// JSON text round trip of a value — exactly what the kv/relational load
/// layouts put a value through, so expected-side rows canonicalize to the
/// representation a correct container reads back as.
Result<Value> JsonTextRoundTrip(const Value& v) {
  ESTOCADA_ASSIGN_OR_RETURN(json::JsonValue parsed,
                            json::Parse(v.ToJson().Serialize()));
  return Value::FromJson(parsed);
}

/// Canonicalizes one expected view row for set comparison against
/// ReadReplicaRows output of a `kind` container.
Result<Row> CanonRowForKind(StoreKind kind, const Row& row) {
  switch (kind) {
    case StoreKind::kRelational: {
      // Only list columns go through JSON text (FlattenForRelational).
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
    case StoreKind::kKeyValue: {
      ESTOCADA_ASSIGN_OR_RETURN(Value rt,
                                JsonTextRoundTrip(Value::List(row)));
      if (!rt.is_list()) return Status::Internal("row round trip lost shape");
      return Row(rt.list().begin(), rt.list().end());
    }
    case StoreKind::kDocument: {
      // The document store keeps JsonValues in memory (no text step).
      Row out;
      out.reserve(row.size());
      for (const Value& v : row) out.push_back(Value::FromJson(v.ToJson()));
      return out;
    }
    case StoreKind::kParallel:
    case StoreKind::kText:
    case StoreKind::kGraph:
      // Values live in memory as engine::Values — no serialization step.
      return row;
  }
  return Status::Internal("unknown store kind");
}

/// Text fragments verify in per-document token space: both sides reduce
/// to {doc id -> sorted multiset of whitespace tokens}.
Status VerifyTextFragment(const StoreHandle& store,
                          const StorageDescriptor& desc,
                          const std::string& container,
                          const std::vector<Row>& expected_rows) {
  auto tokens_of = [](const std::string& text) {
    std::vector<std::string> toks;
    std::string cur;
    for (char ch : text) {
      if (ch == ' ') {
        if (!cur.empty()) toks.push_back(std::move(cur));
        cur.clear();
      } else {
        cur += ch;
      }
    }
    if (!cur.empty()) toks.push_back(std::move(cur));
    std::sort(toks.begin(), toks.end());
    return toks;
  };
  // Expected side, via the same grouping the text load layout applies.
  std::map<std::string, std::string> text_per_doc;
  for (const Row& row : expected_rows) {
    if (row.size() != 2) {
      return Status::InvalidArgument("text fragment rows must be binary");
    }
    std::string id = row[0].ToJson().Serialize();
    std::string term =
        row[1].is_string() ? row[1].string_value() : row[1].ToString();
    std::string& text = text_per_doc[id];
    if (!text.empty()) text += ' ';
    text += term;
  }
  ESTOCADA_ASSIGN_OR_RETURN(size_t count, store.text->DocumentCount(container));
  if (count != text_per_doc.size()) {
    return Status::FailedPrecondition(
        StrCat("text fragment '", desc.name(), "' holds ", count,
               " documents, expected ", text_per_doc.size()));
  }
  for (const auto& [id, text] : text_per_doc) {
    ESTOCADA_ASSIGN_OR_RETURN(auto fields,
                              store.text->GetDocument(container, id));
    auto it = fields.find("text");
    if (it == fields.end() || tokens_of(it->second) != tokens_of(text)) {
      return Status::FailedPrecondition(
          StrCat("text fragment '", desc.name(), "' document ", id,
                 " diverges from the staging truth"));
    }
  }
  return Status::OK();
}

}  // namespace

namespace {

/// Set-compares one placement's container against `expected_rows`.
Status VerifyPlacementAgainstRows(const StoreHandle& store,
                                  const StorageDescriptor& desc,
                                  const std::string& container,
                                  const std::vector<Row>& expected_rows) {
  if (store.kind == StoreKind::kText) {
    return VerifyTextFragment(store, desc, container, expected_rows);
  }
  ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> actual,
                            ReadContainerRows(store, desc, container));
  const std::string& fragment_name = desc.name();
  std::set<std::string> actual_set;
  for (const Row& row : actual) actual_set.insert(engine::RowToString(row));
  std::set<std::string> expected_set;
  for (const Row& row : expected_rows) {
    ESTOCADA_ASSIGN_OR_RETURN(Row canon, CanonRowForKind(store.kind, row));
    expected_set.insert(engine::RowToString(canon));
  }
  for (const std::string& r : expected_set) {
    if (!actual_set.count(r)) {
      return Status::FailedPrecondition(
          StrCat("fragment '", fragment_name, "' misses expected row ", r,
                 " (", actual_set.size(), " stored vs ", expected_set.size(),
                 " expected distinct rows)"));
    }
  }
  for (const std::string& r : actual_set) {
    if (!expected_set.count(r)) {
      return Status::FailedPrecondition(
          StrCat("fragment '", fragment_name, "' holds extra row ", r,
                 " absent from the staging truth"));
    }
  }
  return Status::OK();
}

}  // namespace

Status VerifyReplicaAgainstRows(const Catalog& catalog,
                                const std::string& fragment_name,
                                size_t shard, size_t replica,
                                const std::vector<Row>& expected_rows) {
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(catalog, fragment_name, shard, replica));
  return ForEachShardBucket(
      *t.desc, expected_rows,
      [&](size_t s, const std::vector<Row>& bucket) -> Status {
        if (s != shard) return Status::OK();
        return VerifyPlacementAgainstRows(*t.store, *t.desc,
                                          t.placement->container, bucket);
      });
}

Status VerifyFragmentAgainstRows(const Catalog& catalog,
                                 const std::string& fragment_name,
                                 const std::vector<Row>& expected_rows) {
  ESTOCADA_ASSIGN_OR_RETURN(const StorageDescriptor* desc,
                            catalog.GetFragment(fragment_name));
  // Every fresh, non-rebuilding replica of each shard must hold exactly
  // the shard's rows of the expected extent — misplaced rows (wrong
  // shard) fail as both a miss and an extra.
  return ForEachShardBucket(
      *desc, expected_rows,
      [&](size_t s, const std::vector<Row>& bucket) -> Status {
        const catalog::ShardState& shard = desc->shards[s];
        for (const catalog::ReplicaPlacement& r : shard.replicas) {
          if (r.rebuilding || !r.fresh(shard.write_epoch)) continue;
          ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* store,
                                    catalog.GetStore(r.store_name));
          Status st =
              VerifyPlacementAgainstRows(*store, *desc, r.container, bucket);
          if (!st.ok()) {
            return Status(st.code(), StrCat("shard ", s, " @ ", r.store_name,
                                            "/", r.container, ": ",
                                            st.message()));
          }
        }
        return Status::OK();
      });
}

Status MaintainOneFragmentOnInsertBatch(
    const StagingData& staging, Catalog* catalog,
    const std::string& fragment_name,
    const std::vector<std::pair<std::string, Row>>& new_rows) {
  ESTOCADA_ASSIGN_OR_RETURN(StorageDescriptor * desc,
                            catalog->GetMutableFragment(fragment_name));
  bool affected = false;
  for (const pivot::Atom& a : desc->view.query.body) {
    for (const auto& [relation, row] : new_rows) {
      if (a.relation == relation) {
        affected = true;
        break;
      }
    }
    if (affected) break;
  }
  if (!affected) return Status::OK();
  // Per-document postings are immutable in the text store: a placement
  // there forces the rebuild path for the whole replica set (the rebuild
  // leaves every serving replica fresh, so no epoch bump is needed).
  bool any_text = false;
  for (const catalog::ShardState& shard : desc->shards) {
    for (const catalog::ReplicaPlacement& p : shard.replicas) {
      if (p.rebuilding) continue;
      ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* s,
                                catalog->GetStore(p.store_name));
      if (s->kind == StoreKind::kText) any_text = true;
    }
  }
  if (any_text) {
    ESTOCADA_RETURN_NOT_OK(DematerializeFragment(catalog, fragment_name));
    return MaterializeFragment(staging, catalog, fragment_name);
  }
  // Delta rule: for each new tuple and each occurrence of its relation
  // in the view body, evaluate the view with that atom pinned to the
  // tuple. Deduplicate across all pins of the batch: several staged
  // rows of one logical update (e.g. one document's path facts) derive
  // the same view row.
  std::vector<Row> delta;
  std::unordered_set<size_t> seen_hashes;
  const pivot::ConjunctiveQuery& view = desc->view.query;
  for (const auto& [relation, new_row] : new_rows) {
    for (size_t occ = 0; occ < view.body.size(); ++occ) {
      if (view.body[occ].relation != relation) continue;
      // Unify the occurrence's terms with the new row.
      pivot::Substitution pin;
      bool consistent = true;
      for (size_t i = 0; i < view.body[occ].terms.size() && consistent;
           ++i) {
        const pivot::Term& t = view.body[occ].terms[i];
        if (new_row[i].is_list()) {
          // Pivot constants are scalar: a list pinned as its JSON text
          // would never match the staged list value, silently dropping
          // the delta. Leave the position unpinned instead — the
          // evaluation returns a superset of the delta, which is sound
          // under set semantics (re-appending a stored row is a no-op
          // for query answers).
          if (t.is_constant()) consistent = false;
          continue;
        }
        pivot::Term value = pivot::Term::Const(new_row[i].ToConstant());
        if (t.is_constant()) {
          consistent = (t == value);
        } else if (t.is_variable()) {
          auto [it, fresh] = pin.emplace(t.var_name(), value);
          if (!fresh) consistent = (it->second == value);
        }
      }
      if (!consistent) continue;
      pivot::ConjunctiveQuery pinned;
      pinned.name = view.name;
      pinned.body = ApplySubstitution(pin, view.body);
      for (const pivot::Term& h : view.head) {
        pinned.head.push_back(ApplySubstitution(pin, h));
      }
      ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> rows,
                                EvaluateCqOverStaging(pinned, staging));
      for (Row& row : rows) {
        if (seen_hashes.insert(engine::RowHash()(row)).second) {
          delta.push_back(std::move(row));
        }
      }
    }
  }
  if (delta.empty()) return Status::OK();
  for (size_t c = 0; c < desc->view.arity(); ++c) {
    for (const Row& row : delta) {
      if (row[c].is_list() && c < desc->list_column.size()) {
        desc->list_column[c] = true;
      }
    }
  }
  return FanOutAppend(catalog, desc, delta);
}

Status MaintainFragmentsOnInsertBatch(
    const StagingData& staging, Catalog* catalog,
    const std::vector<std::pair<std::string, Row>>& new_rows) {
  // Collect affected fragment names first (iteration + mutation safety).
  // Shadow fragments are excluded: their deltas are captured and replayed
  // by the migration engine's catch-up stage.
  std::vector<std::string> affected;
  for (const auto& [name, desc] : catalog->fragments()) {
    if (desc.is_shadow()) continue;
    bool hit = false;
    for (const pivot::Atom& a : desc.view.query.body) {
      for (const auto& [relation, row] : new_rows) {
        if (a.relation == relation) {
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    if (hit) affected.push_back(name);
  }
  for (const std::string& name : affected) {
    ESTOCADA_RETURN_NOT_OK(
        MaintainOneFragmentOnInsertBatch(staging, catalog, name, new_rows));
  }
  return Status::OK();
}

Status MaintainFragmentsOnInsert(const StagingData& staging,
                                 Catalog* catalog,
                                 const std::string& relation,
                                 const Row& new_row) {
  return MaintainFragmentsOnInsertBatch(staging, catalog,
                                        {{relation, new_row}});
}

Status DematerializeFragment(Catalog* catalog,
                             const std::string& fragment_name) {
  ESTOCADA_ASSIGN_OR_RETURN(const StorageDescriptor* desc,
                            catalog->GetFragment(fragment_name));
  // Replicas mid-rebuild are skipped: the repairer owns those containers
  // and drops them itself when its rebuild aborts.
  for (const catalog::ShardState& shard : desc->shards) {
    for (const catalog::ReplicaPlacement& r : shard.replicas) {
      if (r.rebuilding) continue;
      ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* store,
                                catalog->GetStore(r.store_name));
      ESTOCADA_RETURN_NOT_OK(DropContainer(*store, r.container));
    }
  }
  return Status::OK();
}

Status CreateReplicaContainer(const Catalog& catalog,
                              const std::string& fragment_name, size_t shard,
                              size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(catalog, fragment_name, shard, replica));
  std::vector<std::string> columns = catalog::FragmentColumnNames(t.desc->view);
  return LoadFragment(*t.store, *t.desc, t.placement->container, {}, columns,
                      t.desc->view.arity());
}

Status MaterializeReplica(const StagingData& staging, const Catalog& catalog,
                          const std::string& fragment_name, size_t shard,
                          size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(catalog, fragment_name, shard, replica));
  ESTOCADA_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      EvaluateCqOverStaging(t.desc->view.query, staging, {}, true));
  Status dropped = DropContainer(*t.store, t.placement->container);
  if (!dropped.ok() && dropped.code() != StatusCode::kNotFound) {
    return dropped;
  }
  std::vector<std::string> columns = catalog::FragmentColumnNames(t.desc->view);
  return ForEachShardBucket(
      *t.desc, rows, [&](size_t s, const std::vector<Row>& bucket) -> Status {
        if (s != shard) return Status::OK();
        return LoadFragment(*t.store, *t.desc, t.placement->container, bucket,
                            columns, t.desc->view.arity());
      });
}

Status DropReplicaContainer(const Catalog& catalog,
                            const std::string& fragment_name, size_t shard,
                            size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(catalog, fragment_name, shard, replica));
  return DropContainer(*t.store, t.placement->container);
}

Status AppendToReplica(const Catalog& catalog,
                       const std::string& fragment_name, size_t shard,
                       size_t replica, const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(catalog, fragment_name, shard, replica));
  const std::string& container = t.placement->container;
  // Repair-path appends seed the synthetic document _id counter from the
  // target container itself (ids only need to be container-unique; row
  // readback ignores them), so a rebuild restarted mid-way never collides
  // with its own earlier batches.
  size_t doc_id_base = 0;
  if (t.store->kind == StoreKind::kDocument) {
    ESTOCADA_ASSIGN_OR_RETURN(doc_id_base, t.store->document->Count(container));
  }
  return AppendRowsToContainer(*t.store, container, doc_id_base, rows);
}

Result<uint64_t> FragmentReplicaDigest(const Catalog& catalog,
                                       const std::string& fragment_name,
                                       size_t shard, size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      ReadReplicaRows(catalog, fragment_name, shard, replica));
  // Set-semantics digest: order-independent over the distinct canonical
  // row serializations, so equal replica contents always digest equal and
  // single-row divergence is overwhelmingly likely to show. Only
  // meaningful between placements of the same store kind — kinds differ
  // in value round-trips (anti-entropy falls back to staging-truth
  // verification across kinds and for text, which has no row readback).
  std::set<std::string> distinct;
  for (const Row& row : rows) distinct.insert(engine::RowToString(row));
  uint64_t sum = 0;
  uint64_t xored = 0;
  for (const std::string& s : distinct) {
    uint64_t h = std::hash<std::string>{}(s);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    sum += h;
    xored ^= h;
  }
  return sum ^ (xored * 0x9e3779b97f4a7c15ULL) ^
         static_cast<uint64_t>(distinct.size());
}

}  // namespace estocada::rewriting
