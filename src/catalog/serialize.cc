#include "catalog/serialize.h"

#include <algorithm>

#include "common/strings.h"
#include "pivot/parser.h"

namespace estocada::catalog {

using json::JsonValue;

namespace {

/// A replica list as JSON. Epochs are written verbatim so a checkpoint
/// taken with a stale replica restores stale — the repairer, not the
/// import, heals it.
JsonValue ReplicasToJson(const std::vector<ReplicaPlacement>& replicas) {
  JsonValue reps = JsonValue::MakeArray();
  for (const ReplicaPlacement& r : replicas) {
    JsonValue rep = JsonValue::MakeObject();
    rep.Set("store", JsonValue::Str(r.store_name));
    rep.Set("container", JsonValue::Str(r.container));
    rep.Set("epoch", JsonValue::Int(static_cast<int64_t>(r.epoch)));
    // A checkpoint taken mid-rebuild must restore mid-rebuild: the
    // container is unverified, so routing may not see it until a
    // repairer finishes the job.
    if (r.rebuilding) rep.Set("rebuilding", JsonValue::Bool(true));
    reps.Append(std::move(rep));
  }
  return reps;
}

Result<std::vector<ReplicaPlacement>> ReplicasFromJson(const JsonValue& reps) {
  std::vector<ReplicaPlacement> out;
  for (const JsonValue& rep : reps.array()) {
    const JsonValue* rstore = rep.Find("store");
    if (rstore == nullptr || !rstore->is_string()) {
      return Status::InvalidArgument("replica entry needs a 'store'");
    }
    ReplicaPlacement r;
    r.store_name = rstore->string_value();
    if (const JsonValue* rc = rep.Find("container");
        rc != nullptr && rc->is_string()) {
      r.container = rc->string_value();
    }
    if (const JsonValue* re = rep.Find("epoch");
        re != nullptr && re->is_int()) {
      r.epoch = static_cast<uint64_t>(re->int_value());
    }
    if (const JsonValue* rb = rep.Find("rebuilding");
        rb != nullptr && rb->is_bool()) {
      r.rebuilding = rb->bool_value();
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// A shard's write epoch and replica list.
Result<ShardState> ShardFromJson(const JsonValue& entry) {
  ShardState shard;
  if (const JsonValue* we = entry.Find("write_epoch");
      we != nullptr && we->is_int()) {
    shard.write_epoch = static_cast<uint64_t>(we->int_value());
  }
  if (const JsonValue* reps = entry.Find("replicas");
      reps != nullptr && reps->is_array()) {
    ESTOCADA_ASSIGN_OR_RETURN(shard.replicas, ReplicasFromJson(*reps));
  }
  return shard;
}

}  // namespace

JsonValue CatalogToJson(const Catalog& catalog) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("format", JsonValue::Str("estocada-catalog"));
  root.Set("version", JsonValue::Int(1));
  JsonValue fragments = JsonValue::MakeArray();
  for (const auto& [name, desc] : catalog.fragments()) {
    // Shadow fragments are transient migration state, not layout: a
    // checkpoint taken mid-migration must restore to the *old* layout.
    if (desc.is_shadow()) continue;
    JsonValue f = JsonValue::MakeObject();
    f.Set("view", JsonValue::Str(desc.view.query.ToString()));
    JsonValue adorn = JsonValue::MakeArray();
    for (pivot::Adornment a : desc.view.adornments) {
      adorn.Append(JsonValue::Str(a == pivot::Adornment::kInput ? "in"
                                                                : "free"));
    }
    f.Set("adornments", adorn);
    // The top level names shard 0's primary. An unpartitioned fragment
    // lists its replica set (slot 0 = that primary) when it has siblings;
    // a partitioned one lists the spec plus every shard's replica set and
    // write epoch.
    const ShardState& first = desc.shards.front();
    f.Set("store", JsonValue::Str(desc.primary().store_name));
    if (!desc.partitioned()) {
      f.Set("container", JsonValue::Str(desc.primary().container));
      if (first.replicas.size() > 1) {
        f.Set("replicas", ReplicasToJson(first.replicas));
        f.Set("write_epoch",
              JsonValue::Int(static_cast<int64_t>(first.write_epoch)));
      }
    } else {
      f.Set("container", JsonValue::Str(desc.name()));
      JsonValue part = JsonValue::MakeObject();
      part.Set("kind",
               JsonValue::Str(desc.partition.kind == PartitionSpec::Kind::kHash
                                  ? "hash"
                                  : "range"));
      part.Set("key_position",
               JsonValue::Int(static_cast<int64_t>(desc.partition.key_position)));
      part.Set("shards",
               JsonValue::Int(static_cast<int64_t>(desc.partition.shards)));
      if (!desc.partition.bounds.empty()) {
        JsonValue bounds = JsonValue::MakeArray();
        for (const engine::Value& b : desc.partition.bounds) {
          bounds.Append(b.ToJson());
        }
        part.Set("bounds", std::move(bounds));
      }
      f.Set("partition", std::move(part));
      JsonValue shards = JsonValue::MakeArray();
      for (const ShardState& shard : desc.shards) {
        JsonValue sh = JsonValue::MakeObject();
        sh.Set("write_epoch",
               JsonValue::Int(static_cast<int64_t>(shard.write_epoch)));
        sh.Set("replicas", ReplicasToJson(shard.replicas));
        shards.Append(std::move(sh));
      }
      f.Set("shards", std::move(shards));
    }
    JsonValue idx = JsonValue::MakeArray();
    for (size_t p : desc.index_positions) {
      idx.Append(JsonValue::Int(static_cast<int64_t>(p)));
    }
    f.Set("index_positions", idx);
    JsonValue stats = JsonValue::MakeObject();
    stats.Set("row_count",
              JsonValue::Int(static_cast<int64_t>(desc.stats.row_count)));
    JsonValue distinct = JsonValue::MakeArray();
    for (size_t d : desc.stats.distinct) {
      distinct.Append(JsonValue::Int(static_cast<int64_t>(d)));
    }
    stats.Set("distinct", distinct);
    f.Set("stats", stats);
    fragments.Append(std::move(f));
  }
  root.Set("fragments", std::move(fragments));
  return root;
}

Status FragmentsFromJson(const JsonValue& doc, Catalog* catalog) {
  const JsonValue* format = doc.Find("format");
  if (format == nullptr || !format->is_string() ||
      format->string_value() != "estocada-catalog") {
    return Status::InvalidArgument(
        "not an estocada-catalog JSON document");
  }
  const JsonValue* fragments = doc.Find("fragments");
  if (fragments == nullptr || !fragments->is_array()) {
    return Status::InvalidArgument("catalog JSON lacks a fragments array");
  }
  for (const JsonValue& f : fragments->array()) {
    const JsonValue* view = f.Find("view");
    const JsonValue* store = f.Find("store");
    if (view == nullptr || !view->is_string() || store == nullptr ||
        !store->is_string()) {
      return Status::InvalidArgument(
          "fragment entry needs 'view' and 'store' strings");
    }
    StorageDescriptor desc;
    ESTOCADA_ASSIGN_OR_RETURN(desc.view.query,
                              pivot::ParseQuery(view->string_value()));
    if (const JsonValue* adorn = f.Find("adornments");
        adorn != nullptr && adorn->is_array()) {
      for (const JsonValue& a : adorn->array()) {
        if (!a.is_string()) {
          return Status::InvalidArgument("adornment entries must be strings");
        }
        desc.view.adornments.push_back(a.string_value() == "in"
                                           ? pivot::Adornment::kInput
                                           : pivot::Adornment::kFree);
      }
    }
    if (const JsonValue* part = f.Find("partition");
        part != nullptr && part->is_object()) {
      if (const JsonValue* kind = part->Find("kind");
          kind != nullptr && kind->is_string()) {
        desc.partition.kind = kind->string_value() == "range"
                                  ? PartitionSpec::Kind::kRange
                                  : PartitionSpec::Kind::kHash;
      }
      if (const JsonValue* kp = part->Find("key_position");
          kp != nullptr && kp->is_int()) {
        desc.partition.key_position = static_cast<size_t>(kp->int_value());
      }
      // RegisterFragment then holds the count to the shards array.
      const JsonValue* count = part->Find("shards");
      if (count == nullptr || !count->is_int() || count->int_value() < 2) {
        return Status::InvalidArgument(
            "a 'partition' needs an integer 'shards' of at least 2");
      }
      desc.partition.shards = static_cast<size_t>(count->int_value());
      if (const JsonValue* bounds = part->Find("bounds");
          bounds != nullptr && bounds->is_array()) {
        for (const JsonValue& b : bounds->array()) {
          desc.partition.bounds.push_back(engine::Value::FromJson(b));
        }
      }
      const JsonValue* shards = f.Find("shards");
      if (shards == nullptr || !shards->is_array()) {
        return Status::InvalidArgument(
            "partitioned fragment entry needs a 'shards' array");
      }
      for (const JsonValue& sh : shards->array()) {
        ESTOCADA_ASSIGN_OR_RETURN(ShardState shard, ShardFromJson(sh));
        desc.shards.push_back(std::move(shard));
      }
    } else {
      // Unpartitioned: the top-level store/container name the primary,
      // slot 0 of the replica list that only replicated fragments carry.
      ESTOCADA_ASSIGN_OR_RETURN(ShardState shard, ShardFromJson(f));
      shard.replicas.resize(std::max<size_t>(shard.replicas.size(), 1),
                            {"", "", shard.write_epoch, false});
      shard.replicas[0].store_name = store->string_value();
      if (const JsonValue* container = f.Find("container");
          container != nullptr && container->is_string()) {
        shard.replicas[0].container = container->string_value();
      }
      desc.shards.push_back(std::move(shard));
    }
    if (const JsonValue* idx = f.Find("index_positions");
        idx != nullptr && idx->is_array()) {
      for (const JsonValue& p : idx->array()) {
        if (!p.is_int()) {
          return Status::InvalidArgument("index positions must be integers");
        }
        desc.index_positions.push_back(static_cast<size_t>(p.int_value()));
      }
    }
    if (const JsonValue* stats = f.Find("stats"); stats != nullptr) {
      if (const JsonValue* rc = stats->Find("row_count");
          rc != nullptr && rc->is_int()) {
        desc.stats.row_count = static_cast<size_t>(rc->int_value());
      }
      if (const JsonValue* distinct = stats->Find("distinct");
          distinct != nullptr && distinct->is_array()) {
        for (const JsonValue& d : distinct->array()) {
          if (d.is_int()) {
            desc.stats.distinct.push_back(
                static_cast<size_t>(d.int_value()));
          }
        }
      }
    }
    ESTOCADA_RETURN_NOT_OK(catalog->RegisterFragment(std::move(desc)));
  }
  return Status::OK();
}

}  // namespace estocada::catalog
