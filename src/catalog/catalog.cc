#include "catalog/catalog.h"

#include <set>

#include "common/strings.h"

namespace estocada::catalog {

const char* StoreKindName(StoreKind kind) {
  switch (kind) {
    case StoreKind::kRelational:
      return "relational";
    case StoreKind::kKeyValue:
      return "key-value";
    case StoreKind::kDocument:
      return "document";
    case StoreKind::kParallel:
      return "parallel";
    case StoreKind::kText:
      return "text";
    case StoreKind::kGraph:
      return "graph";
  }
  return "?";
}

double FragmentStatistics::EqualitySelectivity(size_t position) const {
  if (position < distinct.size() && distinct[position] > 0) {
    return 1.0 / static_cast<double>(distinct[position]);
  }
  // Textbook default when statistics are missing.
  return 0.1;
}

size_t PartitionSpec::ShardOf(const engine::Value& v) const {
  if (shards <= 1) return 0;
  if (kind == Kind::kHash) return v.Hash() % shards;
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (engine::Value::Compare(v, bounds[i]) < 0) return i;
  }
  return shards - 1;
}

Status Catalog::RegisterDatasetSchema(const pivot::Schema& schema) {
  return dataset_schema_.Merge(schema);
}

Status Catalog::RegisterStore(StoreHandle handle) {
  if (handle.name.empty()) {
    return Status::InvalidArgument("store needs a name");
  }
  int set = (handle.relational != nullptr) + (handle.kv != nullptr) +
            (handle.document != nullptr) + (handle.parallel != nullptr) +
            (handle.text != nullptr) + (handle.graph != nullptr);
  if (set != 1) {
    return Status::InvalidArgument(
        StrCat("store '", handle.name,
               "': exactly one implementation pointer must be set, got ",
               set));
  }
  bool matches = (handle.kind == StoreKind::kRelational &&
                  handle.relational != nullptr) ||
                 (handle.kind == StoreKind::kKeyValue && handle.kv != nullptr) ||
                 (handle.kind == StoreKind::kDocument &&
                  handle.document != nullptr) ||
                 (handle.kind == StoreKind::kParallel &&
                  handle.parallel != nullptr) ||
                 (handle.kind == StoreKind::kText && handle.text != nullptr) ||
                 (handle.kind == StoreKind::kGraph && handle.graph != nullptr);
  if (!matches) {
    return Status::InvalidArgument(
        StrCat("store '", handle.name, "': pointer does not match kind ",
               StoreKindName(handle.kind)));
  }
  if (stores_.count(handle.name)) {
    return Status::AlreadyExists(
        StrCat("store '", handle.name, "' already registered"));
  }
  stores_.emplace(handle.name, std::move(handle));
  return Status::OK();
}

Result<const StoreHandle*> Catalog::GetStore(const std::string& name) const {
  auto it = stores_.find(name);
  if (it == stores_.end()) {
    return Status::NotFound(StrCat("store '", name, "' not registered"));
  }
  return &it->second;
}

ShardState ShardState::OnStores(const std::vector<std::string>& stores) {
  ShardState shard;
  for (const std::string& store : stores) {
    shard.replicas.push_back({store, "", 0, /*rebuilding=*/false});
  }
  return shard;
}

Status Catalog::RegisterFragment(StorageDescriptor descriptor) {
  ESTOCADA_RETURN_NOT_OK(descriptor.view.query.Validate());
  const std::string& name = descriptor.name();
  if (fragments_.count(name)) {
    return Status::AlreadyExists(
        StrCat("fragment '", name, "' already registered"));
  }
  if (dataset_schema_.HasRelation(name)) {
    return Status::InvalidArgument(
        StrCat("fragment '", name, "' collides with a dataset relation"));
  }
  for (const pivot::Atom& a : descriptor.view.query.body) {
    if (!dataset_schema_.HasRelation(a.relation)) {
      return Status::NotFound(
          StrCat("fragment '", name, "': view body uses unknown relation '",
                 a.relation, "'"));
    }
  }
  // Positions index the view head: the loaders and the translator read
  // columns[pos] for every adornment and index position.
  const size_t arity = descriptor.view.query.head.size();
  const size_t adorned = descriptor.view.adornments.size();
  if (adorned != 0 && adorned != arity) {
    return Status::InvalidArgument(
        StrCat("fragment '", name, "': ", adorned,
               " adornments for arity ", arity));
  }
  for (size_t p : descriptor.index_positions) {
    if (p >= arity) {
      return Status::InvalidArgument(
          StrCat("fragment '", name, "': index position ", p,
                 " out of range for arity ", arity));
    }
  }
  const PartitionSpec& spec = descriptor.partition;
  if (descriptor.shards.empty() || descriptor.shards.size() != spec.shards) {
    return Status::InvalidArgument(
        StrCat("fragment '", name, "': ", spec.shards, " shards but ",
               descriptor.shards.size(), " shard states"));
  }
  if (descriptor.partitioned()) {
    if (spec.key_position >= arity) {
      return Status::InvalidArgument(
          StrCat("fragment '", name, "': partition key position ",
                 spec.key_position, " out of range for arity ", arity));
    }
    if (spec.kind == PartitionSpec::Kind::kRange) {
      if (spec.bounds.size() + 1 != spec.shards) {
        return Status::InvalidArgument(
            StrCat("fragment '", name, "': range partitioning over ",
                   spec.shards, " shards needs ", spec.shards - 1,
                   " split points, got ", spec.bounds.size()));
      }
      for (size_t i = 1; i < spec.bounds.size(); ++i) {
        if (!(spec.bounds[i - 1] < spec.bounds[i])) {
          return Status::InvalidArgument(
              StrCat("fragment '", name,
                     "': range split points must be strictly ascending"));
        }
      }
    } else if (!spec.bounds.empty()) {
      return Status::InvalidArgument(
          StrCat("fragment '", name, "': hash partitioning takes no bounds"));
    }
  }
  // Every replica of every shard names a registered store; empty
  // containers get shard- and replica-scoped defaults so same-store
  // siblings never collide.
  for (size_t s = 0; s < descriptor.shards.size(); ++s) {
    ShardState& shard = descriptor.shards[s];
    if (shard.replicas.empty()) {
      return Status::InvalidArgument(
          StrCat("fragment '", name, "': shard ", s, " has no replica"));
    }
    std::string base =
        descriptor.partitioned() ? StrCat(name, "#p", s) : name;
    for (size_t i = 0; i < shard.replicas.size(); ++i) {
      ReplicaPlacement& r = shard.replicas[i];
      ESTOCADA_RETURN_NOT_OK(GetStore(r.store_name).status());
      if (r.container.empty()) {
        r.container = i == 0 ? base : StrCat(base, "#r", i);
      }
    }
  }
  fragments_.emplace(name, std::move(descriptor));
  return Status::OK();
}

Status Catalog::DropFragment(const std::string& name) {
  if (fragments_.erase(name) == 0) {
    return Status::NotFound(StrCat("fragment '", name, "' not registered"));
  }
  return Status::OK();
}

Result<const StorageDescriptor*> Catalog::GetFragment(
    const std::string& name) const {
  auto it = fragments_.find(name);
  if (it == fragments_.end()) {
    return Status::NotFound(StrCat("fragment '", name, "' not registered"));
  }
  return &it->second;
}

Result<StorageDescriptor*> Catalog::GetMutableFragment(
    const std::string& name) {
  auto it = fragments_.find(name);
  if (it == fragments_.end()) {
    return Status::NotFound(StrCat("fragment '", name, "' not registered"));
  }
  return &it->second;
}

std::vector<pacb::ViewDefinition> Catalog::AllViews() const {
  std::vector<pacb::ViewDefinition> out;
  out.reserve(fragments_.size());
  for (const auto& [name, desc] : fragments_) {
    if (desc.is_shadow()) continue;
    out.push_back(desc.view);
  }
  return out;
}

std::string Catalog::ToString() const {
  std::string out = "== Stores ==\n";
  for (const auto& [name, handle] : stores_) {
    out += StrCat("  ", name, " (", StoreKindName(handle.kind), ")\n");
  }
  out += "== Fragments ==\n";
  for (const auto& [name, desc] : fragments_) {
    out += StrCat("  ", desc.view.query.ToString(), "\n    ",
                  desc.stats.row_count, " rows",
                  desc.is_shadow() ? " [shadow]" : "", "\n");
    if (desc.partitioned()) {
      out += StrCat("    partitioned ",
                    desc.partition.kind == PartitionSpec::Kind::kHash
                        ? "hash"
                        : "range",
                    "(pos ", desc.partition.key_position, ") x ",
                    desc.partition.shards, "\n");
    }
    for (size_t s = 0; s < desc.shards.size(); ++s) {
      const ShardState& shard = desc.shards[s];
      for (size_t i = 0; i < shard.replicas.size(); ++i) {
        const ReplicaPlacement& r = shard.replicas[i];
        out += StrCat("    shard ", s, " ",
                      i == 0 ? "primary" : StrCat("replica ", i), " @ ",
                      r.store_name, "/", r.container,
                      r.rebuilding ? " [rebuilding]" : "",
                      r.fresh(shard.write_epoch) ? "" : " [stale]", "\n");
      }
    }
  }
  return out;
}

std::vector<std::string> FragmentColumnNames(const pacb::ViewDefinition& view) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (size_t i = 0; i < view.query.head.size(); ++i) {
    const pivot::Term& t = view.query.head[i];
    std::string name = t.is_variable() ? t.var_name() : StrCat("h", i);
    if (!name.empty() && name[0] == '$') name = name.substr(1);
    if (!seen.insert(name).second) name = StrCat(name, "_", i);
    names.push_back(std::move(name));
  }
  return names;
}

}  // namespace estocada::catalog
