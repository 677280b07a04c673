#include "estocada/estocada.h"

#include <algorithm>

#include "common/strings.h"
#include "pivot/parser.h"

namespace estocada {

using engine::Row;
using engine::Value;

Status Estocada::RegisterSchema(const pivot::Schema& schema) {
  ESTOCADA_RETURN_NOT_OK(catalog_.RegisterDatasetSchema(schema));
  // Create empty staging slots with the declared column names.
  for (const auto& [name, sig] : schema.relations()) {
    auto& slot = staging_[name];
    if (slot.columns.empty()) slot.columns = sig.columns;
  }
  MarkCatalogChanged();
  return Status::OK();
}

Status Estocada::RegisterStore(catalog::StoreHandle handle) {
  return catalog_.RegisterStore(std::move(handle));
}

Status Estocada::LoadRow(const std::string& relation, Row row) {
  auto sig = catalog_.dataset_schema().GetRelation(relation);
  if (!sig.ok()) return sig.status();
  if (row.size() != sig->arity()) {
    return Status::InvalidArgument(
        StrCat("relation '", relation, "' expects ", sig->arity(),
               " values, got ", row.size()));
  }
  staging_[relation].rows.push_back(std::move(row));
  return Status::OK();
}

Status Estocada::LoadRows(const std::string& relation,
                          std::vector<Row> rows) {
  for (Row& row : rows) {
    ESTOCADA_RETURN_NOT_OK(LoadRow(relation, std::move(row)));
  }
  return Status::OK();
}

Status Estocada::LoadStaging(const rewriting::StagingData& staging) {
  for (const auto& [relation, rel] : staging) {
    ESTOCADA_RETURN_NOT_OK(LoadRows(relation, rel.rows));
  }
  return Status::OK();
}

Status Estocada::DefineFragment(const std::string& view_text,
                                const std::string& store_name,
                                std::vector<pivot::Adornment> adornments,
                                std::vector<size_t> index_positions) {
  ESTOCADA_ASSIGN_OR_RETURN(pivot::ConjunctiveQuery q,
                            pivot::ParseQuery(view_text));
  pacb::ViewDefinition view;
  view.query = std::move(q);
  view.adornments = std::move(adornments);
  return DefineFragment(std::move(view), store_name,
                        std::move(index_positions));
}

Status Estocada::DefineFragment(pacb::ViewDefinition view,
                                const std::string& store_name,
                                std::vector<size_t> index_positions) {
  return DefineReplicatedFragment(std::move(view), {store_name},
                                  std::move(index_positions));
}

Status Estocada::RegisterAndMaterialize(catalog::StorageDescriptor desc) {
  const std::string name = desc.name();
  const bool shadow = desc.is_shadow();
  ESTOCADA_RETURN_NOT_OK(catalog_.RegisterFragment(std::move(desc)));
  Status filled = shadow
                      ? rewriting::CreateFragmentContainer(&catalog_, name)
                      : rewriting::MaterializeFragment(staging_, &catalog_,
                                                       name);
  if (!filled.ok()) {
    // Keep catalog and stores consistent on failure: drop the containers
    // the fill already created (the placement it failed on, and those it
    // never reached, report kNotFound), then the descriptor.
    ESTOCADA_ASSIGN_OR_RETURN(const catalog::StorageDescriptor* registered,
                              catalog_.GetFragment(name));
    for (size_t s = 0; s < registered->shards.size(); ++s) {
      for (size_t r = 0; r < registered->shards[s].replicas.size(); ++r) {
        (void)rewriting::DropReplicaContainer(catalog_, name, s, r);
      }
    }
    (void)catalog_.DropFragment(name);
    return filled;
  }
  // Shadow fragments are invisible to the planner: no epoch bump.
  if (!shadow) MarkCatalogChanged();
  return Status::OK();
}

Status Estocada::DropFragment(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(rewriting::DematerializeFragment(&catalog_, name));
  ESTOCADA_RETURN_NOT_OK(catalog_.DropFragment(name));
  MarkCatalogChanged();
  return Status::OK();
}

Status Estocada::DefineReplicatedFragment(
    const std::string& view_text,
    const std::vector<std::string>& replica_stores,
    std::vector<pivot::Adornment> adornments,
    std::vector<size_t> index_positions) {
  ESTOCADA_ASSIGN_OR_RETURN(pivot::ConjunctiveQuery q,
                            pivot::ParseQuery(view_text));
  pacb::ViewDefinition view;
  view.query = std::move(q);
  view.adornments = std::move(adornments);
  return DefineReplicatedFragment(std::move(view), replica_stores,
                                  std::move(index_positions));
}

Status Estocada::DefineReplicatedFragment(
    pacb::ViewDefinition view, const std::vector<std::string>& replica_stores,
    std::vector<size_t> index_positions) {
  if (replica_stores.empty()) {
    return Status::InvalidArgument(
        "a replicated fragment needs at least one store");
  }
  catalog::StorageDescriptor desc;
  desc.view = std::move(view);
  desc.shards.push_back(catalog::ShardState::OnStores(replica_stores));
  desc.index_positions = std::move(index_positions);
  return RegisterAndMaterialize(std::move(desc));
}

Status Estocada::DefinePartitionedFragment(
    const std::string& view_text, catalog::PartitionSpec::Kind kind,
    size_t key_position, const std::vector<std::string>& shard_stores,
    std::vector<engine::Value> bounds,
    std::vector<pivot::Adornment> adornments,
    std::vector<size_t> index_positions) {
  ESTOCADA_ASSIGN_OR_RETURN(pivot::ConjunctiveQuery q,
                            pivot::ParseQuery(view_text));
  pacb::ViewDefinition view;
  view.query = std::move(q);
  view.adornments = std::move(adornments);
  std::vector<std::vector<std::string>> shard_replica_stores;
  shard_replica_stores.reserve(shard_stores.size());
  for (const std::string& store : shard_stores) {
    shard_replica_stores.push_back({store});
  }
  return DefinePartitionedFragment(std::move(view), kind, key_position,
                                   shard_replica_stores, std::move(bounds),
                                   std::move(index_positions));
}

Status Estocada::DefinePartitionedFragment(
    pacb::ViewDefinition view, catalog::PartitionSpec::Kind kind,
    size_t key_position,
    const std::vector<std::vector<std::string>>& shard_replica_stores,
    std::vector<engine::Value> bounds, std::vector<size_t> index_positions) {
  if (shard_replica_stores.size() < 2) {
    return Status::InvalidArgument(
        "a partitioned fragment needs at least 2 shards");
  }
  catalog::StorageDescriptor desc;
  desc.view = std::move(view);
  desc.index_positions = std::move(index_positions);
  desc.partition.kind = kind;
  desc.partition.key_position = key_position;
  desc.partition.shards = shard_replica_stores.size();
  desc.partition.bounds = std::move(bounds);
  for (const std::vector<std::string>& replica_stores : shard_replica_stores) {
    if (replica_stores.empty()) {
      return Status::InvalidArgument("every shard needs at least one store");
    }
    desc.shards.push_back(catalog::ShardState::OnStores(replica_stores));
  }
  return RegisterAndMaterialize(std::move(desc));
}

Status Estocada::BeginReplicaRebuild(const std::string& name,
                                     size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(catalog::StorageDescriptor * desc,
                            catalog_.GetMutableFragment(name));
  std::vector<catalog::ReplicaPlacement>& replicas = desc->shards[0].replicas;
  if (replica >= replicas.size()) {
    return Status::OutOfRange(StrCat("fragment '", name, "' has ",
                                     replicas.size(),
                                     " replica(s), asked for #", replica));
  }
  if (replicas.size() <= 1) {
    return Status::FailedPrecondition(
        StrCat("fragment '", name,
               "' has a single replica; rebuilding it would leave nothing "
               "to serve reads"));
  }
  // Flag first: incremental maintenance and routing must stop touching
  // the container before it is torn down.
  replicas[replica].rebuilding = true;
  Status dropped = rewriting::DropReplicaContainer(catalog_, name, 0, replica);
  if (!dropped.ok() && dropped.code() != StatusCode::kNotFound) {
    return dropped;
  }
  return rewriting::CreateReplicaContainer(catalog_, name, 0, replica);
}

Status Estocada::AdmitReplica(const std::string& name, size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(catalog::StorageDescriptor * desc,
                            catalog_.GetMutableFragment(name));
  catalog::ShardState& shard = desc->shards[0];
  if (replica >= shard.replicas.size()) {
    return Status::OutOfRange(
        StrCat("fragment '", name, "' has no replica #", replica));
  }
  if (!shard.replicas[replica].rebuilding) {
    return Status::FailedPrecondition(
        StrCat("replica #", replica, " of '", name, "' is not rebuilding"));
  }
  shard.replicas[replica].epoch = shard.write_epoch;
  shard.replicas[replica].rebuilding = false;
  // No catalog-epoch bump: replica routing happens per translation, so
  // cached rewritings pick the re-admitted placement up immediately.
  return Status::OK();
}

Status Estocada::VerifyReplica(const std::string& name,
                               size_t replica) const {
  ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> expected,
                            EvaluateFragmentView(name));
  return rewriting::VerifyReplicaAgainstRows(catalog_, name, 0, replica,
                                             expected);
}

Result<uint64_t> Estocada::ReplicaDigest(const std::string& name,
                                         size_t replica) const {
  return rewriting::FragmentReplicaDigest(catalog_, name, 0, replica);
}

Status Estocada::RebuildShardReplicaFromStaging(const std::string& name,
                                                size_t shard, size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(catalog::StorageDescriptor * desc,
                            catalog_.GetMutableFragment(name));
  if (!desc->partitioned()) {
    return Status::InvalidArgument(StrCat(
        "fragment '", name,
        "' is not partitioned; repair its replicas with the "
        "ReplicaRepairer"));
  }
  ESTOCADA_RETURN_NOT_OK(rewriting::MaterializeReplica(staging_, &catalog_,
                                                       name, shard, replica));
  // A one-shot rebuild from the staging truth is current by definition.
  catalog::ShardState& state = desc->shards[shard];
  state.replicas[replica].epoch = state.write_epoch;
  state.replicas[replica].rebuilding = false;
  return Status::OK();
}

Status Estocada::DefineShadowFragment(pacb::ViewDefinition view,
                                      const std::string& store_name,
                                      std::vector<size_t> index_positions) {
  catalog::StorageDescriptor desc;
  desc.view = std::move(view);
  desc.shards.push_back(catalog::ShardState::OnStores({store_name}));
  desc.index_positions = std::move(index_positions);
  desc.lifecycle = catalog::FragmentLifecycle::kShadow;
  return RegisterAndMaterialize(std::move(desc));
}

namespace {

Status RequireShadow(const catalog::Catalog& catalog,
                     const std::string& name) {
  ESTOCADA_ASSIGN_OR_RETURN(const catalog::StorageDescriptor* desc,
                            catalog.GetFragment(name));
  if (!desc->is_shadow()) {
    return Status::FailedPrecondition(
        StrCat("fragment '", name, "' is active, not a shadow"));
  }
  return Status::OK();
}

/// The online-copy calls write only a placement nothing serves from: the
/// one placement of a shadow fragment, or a replica flagged rebuilding.
Status RequireNonServing(const catalog::Catalog& catalog,
                         const std::string& name, size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(const catalog::StorageDescriptor* desc,
                            catalog.GetFragment(name));
  if (desc->partitioned()) {
    return Status::FailedPrecondition(
        StrCat("fragment '", name,
               "' is partitioned; online copies fill unpartitioned "
               "fragments"));
  }
  const std::vector<catalog::ReplicaPlacement>& replicas =
      desc->shards[0].replicas;
  if (replica >= replicas.size()) {
    return Status::OutOfRange(StrCat("fragment '", name, "' has ",
                                     replicas.size(),
                                     " replica(s), asked for #", replica));
  }
  if (!desc->is_shadow() && !replicas[replica].rebuilding) {
    return Status::FailedPrecondition(
        StrCat("replica #", replica, " of '", name,
               "' is serving; writes reach it through the fan-out"));
  }
  return Status::OK();
}

}  // namespace

Status Estocada::AppendToPlacement(const std::string& name, size_t replica,
                                   const std::vector<Row>& rows) {
  ESTOCADA_RETURN_NOT_OK(RequireNonServing(catalog_, name, replica));
  return rewriting::AppendToReplica(&catalog_, name, 0, replica, rows);
}

Status Estocada::MaintainPlacement(
    const std::string& name, size_t replica,
    const std::vector<std::pair<std::string, Row>>& deltas) {
  ESTOCADA_RETURN_NOT_OK(RequireNonServing(catalog_, name, replica));
  ESTOCADA_ASSIGN_OR_RETURN(const catalog::StorageDescriptor* desc,
                            catalog_.GetFragment(name));
  ESTOCADA_ASSIGN_OR_RETURN(
      std::vector<Row> delta,
      rewriting::ComputeFragmentDelta(staging_, desc->view.query, deltas));
  return rewriting::AppendToReplica(&catalog_, name, 0, replica, delta);
}

Status Estocada::RebuildPlacement(const std::string& name, size_t replica) {
  ESTOCADA_RETURN_NOT_OK(RequireNonServing(catalog_, name, replica));
  return rewriting::MaterializeReplica(staging_, &catalog_, name, 0, replica);
}

Status Estocada::ActivateShadowFragment(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(RequireShadow(catalog_, name));
  ESTOCADA_ASSIGN_OR_RETURN(catalog::StorageDescriptor * desc,
                            catalog_.GetMutableFragment(name));
  desc->lifecycle = catalog::FragmentLifecycle::kActive;
  MarkCatalogChanged();
  return Status::OK();
}

Status Estocada::DropShadowFragment(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(RequireShadow(catalog_, name));
  ESTOCADA_RETURN_NOT_OK(rewriting::DematerializeFragment(&catalog_, name));
  // The planner never saw a shadow fragment: no epoch bump on rollback.
  return catalog_.DropFragment(name);
}

Result<std::vector<Row>> Estocada::EvaluateFragmentView(
    const std::string& name) const {
  ESTOCADA_ASSIGN_OR_RETURN(const catalog::StorageDescriptor* desc,
                            catalog_.GetFragment(name));
  return rewriting::EvaluateCqOverStaging(desc->view.query, staging_, {},
                                          /*distinct=*/true);
}

Status Estocada::VerifyFragment(const std::string& name) const {
  ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> expected,
                            EvaluateFragmentView(name));
  return rewriting::VerifyFragmentAgainstRows(catalog_, name, expected);
}

std::string Estocada::ExportCatalogJson() const {
  return catalog::CatalogToJson(catalog_).Pretty();
}

Status Estocada::ImportCatalogJson(const std::string& json_text) {
  ESTOCADA_ASSIGN_OR_RETURN(json::JsonValue doc, json::Parse(json_text));
  // Stage descriptors into a scratch catalog first so a malformed file
  // cannot leave this system half-imported.
  catalog::Catalog scratch;
  ESTOCADA_RETURN_NOT_OK(scratch.RegisterDatasetSchema(
      catalog_.dataset_schema()));
  for (const auto& [name, handle] : catalog_.stores()) {
    ESTOCADA_RETURN_NOT_OK(scratch.RegisterStore(handle));
  }
  ESTOCADA_RETURN_NOT_OK(catalog::FragmentsFromJson(doc, &scratch));
  for (const auto& [name, desc] : scratch.fragments()) {
    catalog::StorageDescriptor copy = desc;
    copy.stats = {};  // Recomputed at materialization.
    ESTOCADA_RETURN_NOT_OK(RegisterAndMaterialize(std::move(copy)));
  }
  MarkCatalogChanged();
  return Status::OK();
}

Status Estocada::RefreshRewriter() {
  if (!rewriter_dirty_ && rewriter_ != nullptr) return Status::OK();
  rewriter_ = std::make_unique<pacb::Rewriter>(catalog_.dataset_schema(),
                                               catalog_.AllViews());
  ESTOCADA_RETURN_NOT_OK(rewriter_->Prepare());
  rewriter_dirty_ = false;
  return Status::OK();
}

Result<rewriting::PlanSet> Estocada::Explain(
    const std::string& query_text,
    const std::map<std::string, Value>& parameters) {
  ESTOCADA_RETURN_NOT_OK(RefreshRewriter());
  ESTOCADA_ASSIGN_OR_RETURN(pivot::ConjunctiveQuery q,
                            pivot::ParseQuery(query_text));
  rewriting::Planner planner(&catalog_, rewriter_.get());
  return planner.PlanQuery(q, parameters);
}

Status Estocada::RegisterDocumentCollection(
    const std::string& dataset, const std::string& collection,
    std::vector<encoding::DocumentPath> paths) {
  ESTOCADA_ASSIGN_OR_RETURN(
      pivot::Schema schema,
      encoding::DocumentEncoding(dataset, collection, paths));
  ESTOCADA_RETURN_NOT_OK(RegisterSchema(schema));
  doc_collections_[StrCat(dataset, ".", collection)] = std::move(paths);
  return Status::OK();
}

Result<std::string> Estocada::LoadDocument(const std::string& dataset,
                                           const std::string& collection,
                                           const json::JsonValue& document) {
  std::string key = StrCat(dataset, ".", collection);
  auto it = doc_collections_.find(key);
  if (it == doc_collections_.end()) {
    return Status::NotFound(
        StrCat("'", key, "' is not a registered document collection"));
  }
  std::string id;
  if (const json::JsonValue* idv = document.Find("_id");
      idv != nullptr && idv->is_string()) {
    id = idv->string_value();
  } else {
    id = StrCat(key, "/", next_doc_id_++);
  }
  // Uniqueness within the staged .doc relation.
  auto& doc_rel = staging_[StrCat(key, ".doc")];
  for (const Row& row : doc_rel.rows) {
    if (row[0] == Value::Str(id)) {
      return Status::AlreadyExists(
          StrCat("document '", id, "' already loaded into ", key));
    }
  }
  doc_rel.rows.push_back({Value::Str(id)});
  for (const encoding::DocumentPath& p : it->second) {
    const json::JsonValue* v = document.FindPath(p.path);
    if (v == nullptr) continue;  // Missing path: no fact.
    auto& rel = staging_[StrCat(key, ".", p.path)];
    if (v->is_array()) {
      for (const json::JsonValue& e : v->array()) {
        rel.rows.push_back({Value::Str(id), Value::FromJson(e)});
      }
    } else {
      rel.rows.push_back({Value::Str(id), Value::FromJson(*v)});
    }
  }
  return id;
}

Status Estocada::DeleteRow(const std::string& relation,
                           const Row& row) {
  auto it = staging_.find(relation);
  if (it == staging_.end()) {
    return Status::NotFound(StrCat("relation '", relation, "' not staged"));
  }
  auto& rows = it->second.rows;
  size_t before = rows.size();
  rows.erase(std::remove(rows.begin(), rows.end(), row), rows.end());
  if (rows.size() == before) {
    return Status::NotFound(
        StrCat("no staged tuple ", engine::RowToString(row), " in '",
               relation, "'"));
  }
  // Rebuild every fragment whose view mentions the relation. Shadow
  // fragments stay out: the migration engine schedules their rebuild
  // from its own delta log so a deletion cannot race the backfill.
  for (const auto& [name, desc] : catalog_.fragments()) {
    if (desc.is_shadow()) continue;
    bool affected = false;
    for (const pivot::Atom& a : desc.view.query.body) {
      if (a.relation == relation) {
        affected = true;
        break;
      }
    }
    if (!affected) continue;
    ESTOCADA_RETURN_NOT_OK(
        rewriting::DematerializeFragment(&catalog_, name));
    ESTOCADA_RETURN_NOT_OK(
        rewriting::MaterializeFragment(staging_, &catalog_, name));
  }
  return Status::OK();
}

Status Estocada::RegisterTreeDataset(const std::string& dataset) {
  ESTOCADA_ASSIGN_OR_RETURN(pivot::Schema schema,
                            encoding::DocumentTreeEncoding(dataset));
  return RegisterSchema(schema);
}

Status Estocada::LoadTreeDocument(const std::string& dataset,
                                  const std::string& doc_id,
                                  const json::JsonValue& document) {
  std::string doc_rel = StrCat(dataset, ".Doc");
  if (!catalog_.dataset_schema().HasRelation(doc_rel)) {
    return Status::NotFound(
        StrCat("'", dataset, "' is not a registered tree dataset"));
  }
  for (const Row& row : staging_[doc_rel].rows) {
    if (row[0] == Value::Str(doc_id)) {
      return Status::AlreadyExists(
          StrCat("document '", doc_id, "' already loaded into ", dataset));
    }
  }
  std::vector<pivot::Atom> atoms =
      encoding::ShredDocument(dataset, doc_id, document);
  // Stage the shredded facts, collecting Child edges for the closure.
  std::map<std::string, std::vector<std::string>> children;
  for (const pivot::Atom& a : atoms) {
    Row row;
    row.reserve(a.terms.size());
    for (const pivot::Term& t : a.terms) {
      row.push_back(Value::FromConstant(t.constant()));
    }
    if (a.relation == StrCat(dataset, ".Child")) {
      children[row[0].string_value()].push_back(row[1].string_value());
    }
    staging_[a.relation].rows.push_back(std::move(row));
  }
  // Complete Desc transitively (depth-first from every node). The tree
  // axioms would derive the same facts by chasing; staging them directly
  // makes Desc a first-class queryable relation.
  auto& desc_rel = staging_[StrCat(dataset, ".Desc")];
  for (const auto& [anc, direct] : children) {
    std::vector<std::string> stack(direct.begin(), direct.end());
    while (!stack.empty()) {
      std::string node = std::move(stack.back());
      stack.pop_back();
      desc_rel.rows.push_back({Value::Str(anc), Value::Str(node)});
      auto it = children.find(node);
      if (it != children.end()) {
        stack.insert(stack.end(), it->second.begin(), it->second.end());
      }
    }
  }
  return Status::OK();
}

Status Estocada::RegisterGraphDataset(const std::string& dataset,
                                      size_t max_hops) {
  if (graph_hop_bounds_.count(dataset)) {
    return Status::AlreadyExists(
        StrCat("graph dataset '", dataset, "' already registered"));
  }
  ESTOCADA_ASSIGN_OR_RETURN(pivot::Schema schema,
                            encoding::GraphEncoding(dataset, max_hops));
  ESTOCADA_RETURN_NOT_OK(RegisterSchema(schema));
  graph_hop_bounds_[dataset] = max_hops;
  return Status::OK();
}

Status Estocada::LoadGraph(const std::string& dataset,
                           const encoding::GraphData& graph) {
  auto bound_it = graph_hop_bounds_.find(dataset);
  if (bound_it == graph_hop_bounds_.end()) {
    return Status::NotFound(
        StrCat("'", dataset, "' is not a registered graph dataset"));
  }
  const size_t max_hops = bound_it->second;
  for (const pivot::Atom& a : encoding::ShredGraph(dataset, graph)) {
    Row row;
    row.reserve(a.terms.size());
    for (const pivot::Term& t : a.terms) {
      row.push_back(Value::FromConstant(t.constant()));
    }
    staging_[a.relation].rows.push_back(std::move(row));
  }
  // Recompute Reach1..ReachK over the full staged edge set (LoadGraph may
  // be called repeatedly, and later loads can shorten paths between nodes
  // staged earlier). The graph axioms would derive the same facts by
  // chasing; staging them directly makes bounded paths first-class
  // queryable relations — the same trick LoadTreeDocument plays for Desc.
  std::map<Value, std::vector<Value>> adjacency;
  for (const Row& edge : staging_[StrCat(dataset, ".Edge")].rows) {
    adjacency[edge[0]].push_back(edge[2]);
  }
  for (size_t j = 1; j <= max_hops; ++j) {
    staging_[StrCat(dataset, ".Reach", j)].rows.clear();
  }
  for (const auto& [src, direct] : adjacency) {
    // Bounded BFS: dist[n] = fewest hops from src (1..max_hops).
    std::map<Value, size_t> dist;
    std::vector<Value> frontier;
    for (const Value& n : direct) {
      if (dist.emplace(n, 1).second) frontier.push_back(n);
    }
    for (size_t hops = 2; hops <= max_hops && !frontier.empty(); ++hops) {
      std::vector<Value> next;
      for (const Value& n : frontier) {
        auto it = adjacency.find(n);
        if (it == adjacency.end()) continue;
        for (const Value& m : it->second) {
          if (dist.emplace(m, hops).second) next.push_back(m);
        }
      }
      frontier = std::move(next);
    }
    // Reach_j means "reachable in at most j hops": a node first seen at
    // distance d appears in every Reach_j with j >= d.
    for (const auto& [dst, d] : dist) {
      for (size_t j = d; j <= max_hops; ++j) {
        staging_[StrCat(dataset, ".Reach", j)].rows.push_back({src, dst});
      }
    }
  }
  return Status::OK();
}

Status Estocada::InsertRow(const std::string& relation, Row row) {
  ESTOCADA_RETURN_NOT_OK(LoadRow(relation, row));
  return rewriting::MaintainFragmentsOnInsert(staging_, &catalog_, relation,
                                              row);
}

Result<std::string> Estocada::InsertDocument(const std::string& dataset,
                                             const std::string& collection,
                                             const json::JsonValue& document) {
  std::string key = StrCat(dataset, ".", collection);
  // Capture relation sizes to identify the rows LoadDocument stages.
  std::map<std::string, size_t> before;
  for (const auto& [rel, data] : staging_) {
    if (rel.rfind(key, 0) == 0) before[rel] = data.rows.size();
  }
  ESTOCADA_ASSIGN_OR_RETURN(std::string id,
                            LoadDocument(dataset, collection, document));
  std::vector<std::pair<std::string, Row>> batch;
  for (const auto& [rel, data] : staging_) {
    if (rel.rfind(key, 0) != 0) continue;
    size_t start = before.count(rel) ? before[rel] : 0;
    for (size_t i = start; i < data.rows.size(); ++i) {
      batch.emplace_back(rel, data.rows[i]);
    }
  }
  ESTOCADA_RETURN_NOT_OK(rewriting::MaintainFragmentsOnInsertBatch(
      staging_, &catalog_, batch));
  return id;
}

Result<Estocada::QueryResult> Estocada::Query(
    const std::string& query_text,
    const std::map<std::string, Value>& parameters) {
  ESTOCADA_ASSIGN_OR_RETURN(pivot::ConjunctiveQuery q,
                            pivot::ParseQuery(query_text));
  return RunQuery(q, parameters);
}

Result<Estocada::QueryResult> Estocada::QuerySql(
    const std::string& sql,
    const std::map<std::string, Value>& parameters) {
  ESTOCADA_ASSIGN_OR_RETURN(
      pivot::ConjunctiveQuery q,
      frontend::SqlToCq(sql, catalog_.dataset_schema()));
  return RunQuery(q, parameters);
}

Result<Estocada::QueryResult> Estocada::QueryDocFind(
    const frontend::DocFindSpec& spec,
    const std::map<std::string, Value>& parameters) {
  ESTOCADA_ASSIGN_OR_RETURN(
      pivot::ConjunctiveQuery q,
      frontend::DocFindToCq(spec, catalog_.dataset_schema()));
  return RunQuery(q, parameters);
}

Result<Estocada::QueryResult> Estocada::QueryGraphMatch(
    const frontend::GraphMatchSpec& spec,
    const std::map<std::string, Value>& parameters) {
  ESTOCADA_ASSIGN_OR_RETURN(
      pivot::ConjunctiveQuery q,
      frontend::GraphMatchToCq(spec, catalog_.dataset_schema()));
  return RunQuery(q, parameters);
}

Result<Estocada::QueryResult> Estocada::QueryKeyLookup(
    const std::string& relation, const Value& key) {
  ESTOCADA_ASSIGN_OR_RETURN(
      pivot::ConjunctiveQuery q,
      frontend::KeyLookupToCq(relation, catalog_.dataset_schema()));
  return RunQuery(q, {{"$key", key}});
}

Result<rewriting::PlanSet> Estocada::PlanBest(
    const pivot::ConjunctiveQuery& q,
    const std::map<std::string, Value>& parameters) {
  ESTOCADA_RETURN_NOT_OK(RefreshRewriter());
  rewriting::Planner planner(&catalog_, rewriter_.get());
  return planner.PlanQuery(q, parameters);
}

Result<Estocada::QueryResult> Estocada::QueryProgram(
    const std::vector<std::string>& cq_texts,
    const std::map<std::string, Value>& parameters, const ProgramOps& ops) {
  if (cq_texts.empty()) {
    return Status::InvalidArgument("QueryProgram needs at least one query");
  }
  std::vector<engine::OperatorPtr> branches;
  std::vector<std::shared_ptr<rewriting::RuntimeStats>> branch_stats;
  QueryResult result;
  size_t arity = 0;
  std::vector<std::string> rewriting_texts;
  for (const std::string& text : cq_texts) {
    ESTOCADA_ASSIGN_OR_RETURN(pivot::ConjunctiveQuery q,
                              pivot::ParseQuery(text));
    if (branches.empty()) {
      arity = q.arity();
    } else if (q.arity() != arity) {
      return Status::InvalidArgument(
          StrCat("union branches must share one arity; '", text, "' has ",
                 q.arity(), ", expected ", arity));
    }
    ESTOCADA_ASSIGN_OR_RETURN(rewriting::PlanSet plans,
                              PlanBest(q, parameters));
    rewriting::PlannedQuery& best = plans.best_plan();
    result.estimated_cost += best.estimated_cost;
    result.rewritings_considered += plans.plans.size();
    rewriting_texts.push_back(best.rewriting.ToString());
    branch_stats.push_back(best.runtime_stats);
    branches.push_back(std::move(best.root));
    // Log each branch for the advisor, cost attributed after execution.
    std::vector<std::string> fragments_used;
    for (const pivot::Atom& a : best.rewriting.body) {
      fragments_used.push_back(a.relation);
    }
    workload_log_.Record(q, best.estimated_cost, fragments_used, parameters);
  }
  engine::OperatorPtr root =
      branches.size() == 1
          ? std::move(branches[0])
          : std::make_unique<engine::UnionAllOperator>(std::move(branches));
  if (!ops.aggregates.empty() || !ops.group_by.empty()) {
    root = std::make_unique<engine::AggregateOperator>(
        std::move(root), ops.group_by, ops.aggregates);
  }
  if (!ops.order_by.empty()) {
    root = std::make_unique<engine::SortOperator>(std::move(root),
                                                  ops.order_by);
  }
  if (ops.limit > 0) {
    root = std::make_unique<engine::LimitOperator>(std::move(root),
                                                   ops.limit);
  }
  ESTOCADA_ASSIGN_OR_RETURN(result.rows, engine::Collect(root.get()));
  for (const auto& stats : branch_stats) {
    for (const auto& [store, st] : stats->per_store) {
      result.runtime_stats.per_store[store].Add(st);
    }
  }
  result.rewriting_text = StrJoin(rewriting_texts, "  UNION  ");
  result.plan_text = engine::PlanToString(*root);
  return result;
}

std::string Estocada::QueryResult::RuntimeSplitLine() const {
  return StrCat("stores shipped ", rows_from_stores,
                " row(s); estocada runtime returned ", rows.size());
}

Result<Estocada::QueryResult> Estocada::RunQuery(
    const pivot::ConjunctiveQuery& q,
    const std::map<std::string, Value>& parameters) {
  ESTOCADA_ASSIGN_OR_RETURN(rewriting::PlanSet plans,
                            PlanBest(q, parameters));
  return ExecutePlanned(std::move(plans), q, parameters);
}

Result<pacb::RewritingResult> Estocada::RewritePrepared(
    const pivot::ConjunctiveQuery& query) const {
  if (!rewriter_ready()) {
    return Status::Internal(
        "RewritePrepared called with a stale rewriter; run PrepareRewriter() "
        "after catalog changes");
  }
  ESTOCADA_ASSIGN_OR_RETURN(pacb::RewritingResult result,
                            rewriter_->Rewrite(query));
  if (result.rewritings.empty()) {
    return Status::NoRewriting(
        StrCat("no rewriting over the registered fragments answers ",
               query.ToString()));
  }
  return result;
}

Result<rewriting::PlanSet> Estocada::PlanFromRewritings(
    pacb::RewritingResult rewritings,
    const std::map<std::string, Value>& parameters,
    const rewriting::PlanConstraints& constraints) const {
  rewriting::Planner planner(&catalog_, /*rewriter=*/nullptr);
  return planner.PlanRewritings(std::move(rewritings), parameters,
                                constraints);
}

Result<Estocada::QueryResult> Estocada::ExecutePlanned(
    rewriting::PlanSet plans, const pivot::ConjunctiveQuery& q,
    const std::map<std::string, Value>& parameters) const {
  rewriting::PlannedQuery& best = plans.best_plan();
  if (best.root == nullptr) {
    // Cost-only estimate (a non-winner plan, or a PlanSet assembled by a
    // caller that overrode `best`): materialize the operator tree now
    // with the arguments it was estimated under.
    rewriting::Translator translator(&catalog_);
    ESTOCADA_ASSIGN_OR_RETURN(
        best, translator.Plan(best.rewriting, plans.parameters,
                              plans.constraints));
  }

  QueryResult result;
  ESTOCADA_ASSIGN_OR_RETURN(result.rows, engine::Collect(best.root.get()));
  result.runtime_stats = *best.runtime_stats;
  for (const auto& [store, st] : result.runtime_stats.per_store) {
    result.rows_from_stores += st.rows_returned;
  }
  result.rewriting_text = best.rewriting.ToString();
  result.plan_text = best.ToString();
  result.estimated_cost = best.estimated_cost;
  result.rewritings_considered = plans.plans.size();
  result.rewriter_stats = plans.rewriting_result.stats;

  // Feed the advisor's workload log.
  std::vector<std::string> fragments_used;
  for (const pivot::Atom& a : best.rewriting.body) {
    fragments_used.push_back(a.relation);
  }
  workload_log_.Record(q, result.simulated_cost(), fragments_used, parameters,
                       result.rows.size());
  return result;
}

Result<Estocada::QueryResult> Estocada::ExecutePlanned(
    rewriting::PlanSet plans, const pivot::ConjunctiveQuery& q,
    size_t plan_index) const {
  if (plan_index >= plans.plans.size()) {
    return Status::InvalidArgument(
        StrCat("plan index ", plan_index, " out of range (", plans.plans.size(),
               " plans)"));
  }
  plans.best = plan_index;
  return ExecutePlanned(std::move(plans), q);
}

Result<std::vector<Row>> Estocada::EvaluateOverStaging(
    const std::string& query_text,
    const std::map<std::string, Value>& parameters) const {
  ESTOCADA_ASSIGN_OR_RETURN(pivot::ConjunctiveQuery q,
                            pivot::ParseQuery(query_text));
  return rewriting::EvaluateCqOverStaging(q, staging_, parameters);
}

Result<std::vector<Row>> Estocada::EvaluateOverStagingPrepared(
    const pivot::ConjunctiveQuery& query,
    const std::map<std::string, Value>& parameters) const {
  return rewriting::EvaluateCqOverStaging(query, staging_, parameters);
}

std::vector<advisor::Recommendation> Estocada::Advise(
    const advisor::AdvisorOptions& options) const {
  advisor::StorageAdvisor sa(options);
  return sa.Recommend(catalog_, workload_log_);
}

Status Estocada::ApplyRecommendation(const advisor::Recommendation& rec) {
  if (rec.action == advisor::Recommendation::Action::kDropFragment) {
    return DropFragment(rec.fragment_name);
  }
  return DefineFragment(rec.view, rec.store_name);
}

}  // namespace estocada
