#include "rewriting/materializer.h"

#include <functional>
#include <optional>
#include <set>
#include <unordered_set>

#include "common/strings.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {

using catalog::Catalog;
using catalog::FragmentStatistics;
using catalog::StorageDescriptor;
using catalog::StoreHandle;
using engine::Row;

namespace {

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

/// Describes the fragment's whole view extent `rows`: statistics start
/// over from them.
void SetStatistics(const std::vector<Row>& rows, StorageDescriptor* desc) {
  desc->stats = ComputeStatistics(rows, desc->view.arity());
}

/// The serving fragments whose views read `relation`. Shadow fragments
/// are excluded: the online copy filling each one captures and replays
/// its updates itself.
std::vector<std::string> FragmentsReading(const Catalog& catalog,
                                          const std::string& relation) {
  std::vector<std::string> out;
  for (const auto& [name, desc] : catalog.fragments()) {
    if (desc.is_shadow()) continue;
    for (const pivot::Atom& a : desc.view.query.body) {
      if (a.relation == relation) {
        out.push_back(name);
        break;
      }
    }
  }
  return out;
}

/// Set-compares one placement's container against `expected`: what the
/// driver reads back against what it would read back for each expected
/// row.
Status VerifyPlacement(const Placement& p, const std::vector<Row>& expected) {
  const StoreDriver& driver = DriverFor(p.store.kind);
  ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> actual, driver.ReadAll(p));
  const std::string& fragment_name = p.desc.name();
  std::set<std::string> actual_set;
  for (const Row& row : actual) actual_set.insert(engine::RowToString(row));
  std::set<std::string> expected_set;
  for (const Row& row : expected) {
    ESTOCADA_ASSIGN_OR_RETURN(Row canon, driver.CanonRow(row));
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

/// Rebuilds one placement of shard `shard` from the view extent `truth`:
/// drops its container (tolerating absence) and loads the shard's rows.
Status ReloadPlacement(const Placement& at, size_t shard,
                       const std::vector<Row>& truth) {
  const StoreDriver& driver = DriverFor(at.store.kind);
  Status dropped = driver.Drop(at);
  if (!dropped.ok() && dropped.code() != StatusCode::kNotFound) {
    return dropped;
  }
  return ForEachShardBucket(
      at.desc, truth, [&](size_t s, const std::vector<Row>& bucket) -> Status {
        if (s != shard) return Status::OK();
        return driver.Load(at, bucket);
      });
}

/// The fragment's view over staging, evaluated on first use only: one
/// write may rebuild several placements, or none.
class LazyTruth {
 public:
  LazyTruth(const StagingData& staging, const StorageDescriptor& desc)
      : staging_(staging), desc_(desc) {}

  Result<const std::vector<Row>*> Get() {
    if (!rows_.has_value()) {
      ESTOCADA_ASSIGN_OR_RETURN(
          rows_, EvaluateCqOverStaging(desc_.view.query, staging_, {}, true));
    }
    return &*rows_;
  }
  const std::optional<std::vector<Row>>& rows() const { return rows_; }

 private:
  const StagingData& staging_;
  const StorageDescriptor& desc_;
  std::optional<std::vector<Row>> rows_;
};

}  // namespace

Status CreateFragmentContainer(Catalog* catalog,
                               const std::string& fragment_name) {
  ESTOCADA_ASSIGN_OR_RETURN(StorageDescriptor * desc,
                            catalog->GetMutableFragment(fragment_name));
  const size_t arity = desc->view.arity();
  for (const catalog::ShardState& shard : desc->shards) {
    for (const catalog::ReplicaPlacement& p : shard.replicas) {
      ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* store,
                                catalog->GetStore(p.store_name));
      ESTOCADA_RETURN_NOT_OK(DriverFor(store->kind).Load(
          {*store, *desc, p.container}, {}));
    }
  }
  desc->stats = FragmentStatistics{};
  desc->stats.distinct.assign(arity, 0);
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
  // The load is strict: every replica must materialize (unlike the
  // append fan-out, which tolerates stale minorities). Each shard's
  // replicas receive the shard's rows and snap to its write epoch.
  // Replicas marked rebuilding are skipped — the online copy filling
  // them owns their containers.
  ESTOCADA_RETURN_NOT_OK(ForEachShardBucket(
      *desc, rows, [&](size_t s, const std::vector<Row>& bucket) -> Status {
        catalog::ShardState& shard = desc->shards[s];
        for (catalog::ReplicaPlacement& r : shard.replicas) {
          if (r.rebuilding) continue;
          ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* store,
                                    catalog->GetStore(r.store_name));
          ESTOCADA_RETURN_NOT_OK(DriverFor(store->kind).Load(
              {*store, *desc, r.container}, bucket));
          r.epoch = shard.write_epoch;
        }
        return Status::OK();
      }));
  SetStatistics(rows, desc);
  return Status::OK();
}

namespace {

/// One shard's write fan-out: writes the shard's `rows` of a delta to
/// every replica of the shard that is fresh and not mid-rebuild, bumping
/// the shard's write epoch once for the logical mutation. A replica whose
/// kind takes appends appends the rows; any other kind (text), and every
/// replica when `rows` is null (a deletion), rebuilds its placement from
/// the staging truth. Replicas that take the write
/// advance to the new epoch; replicas that fail (dead store) are left
/// behind — stale, excluded from routing, queued for the repairer. When
/// *no* replica takes the write the epoch bump is rolled back and the
/// first error surfaces, so an unreplicated shard behaves like a plain
/// store write.
Status FanOutShard(Catalog* catalog, StorageDescriptor* desc,
                   size_t shard_idx, const std::vector<Row>* rows,
                   LazyTruth* truth) {
  catalog::ShardState& shard = desc->shards[shard_idx];
  const uint64_t old_epoch = shard.write_epoch;
  const uint64_t new_epoch = old_epoch + 1;
  shard.write_epoch = new_epoch;
  size_t successes = 0;
  Status first_error = Status::OK();
  for (catalog::ReplicaPlacement& r : shard.replicas) {
    if (r.rebuilding || r.epoch != old_epoch) continue;
    Status st = [&]() -> Status {
      ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* store,
                                catalog->GetStore(r.store_name));
      const Placement at{*store, *desc, r.container};
      if (rows != nullptr && DriverFor(store->kind).appends()) {
        return DriverFor(store->kind).Append(at, *rows);
      }
      ESTOCADA_ASSIGN_OR_RETURN(const std::vector<Row>* all, truth->Get());
      return ReloadPlacement(at, shard_idx, *all);
    }();
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

/// Partition-aware write routing of a delta: each row lands only on the
/// shard owning its partition-key value. A shard whose entire replica set
/// rejects the write fails the call; shards that already took their rows
/// keep them (their epochs advanced consistently), which is sound under
/// set semantics — re-running the write is a no-op for query answers.
Status FanOutDelta(const StagingData& staging, Catalog* catalog,
                   StorageDescriptor* desc, const std::vector<Row>& delta) {
  LazyTruth truth(staging, *desc);
  ESTOCADA_RETURN_NOT_OK(ForEachShardBucket(
      *desc, delta, [&](size_t s, const std::vector<Row>& bucket) -> Status {
        if (bucket.empty()) return Status::OK();
        return FanOutShard(catalog, desc, s, &bucket, &truth);
      }));
  // A rebuild read the whole extent: describe it exactly, as a
  // materialization does. Appends only add their rows.
  if (truth.rows().has_value()) {
    SetStatistics(*truth.rows(), desc);
  } else {
    desc->stats.row_count += delta.size();
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<Row>> ReadReplicaRows(const Catalog& catalog,
                                         const std::string& fragment_name,
                                         size_t shard, size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(catalog, fragment_name, shard, replica));
  return t.driver().ReadAll(t.at());
}

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
        return VerifyPlacement(t.at(), bucket);
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
          Status st = VerifyPlacement({*store, *desc, r.container}, bucket);
          if (!st.ok()) {
            return Status(st.code(), StrCat("shard ", s, " @ ", r.store_name,
                                            "/", r.container, ": ",
                                            st.message()));
          }
        }
        return Status::OK();
      });
}

Result<std::vector<Row>> ComputeFragmentDelta(
    const StagingData& staging, const pivot::ConjunctiveQuery& view,
    const std::vector<std::pair<std::string, Row>>& new_rows) {
  // Delta rule: for each new tuple and each occurrence of its relation
  // in the view body, evaluate the view with that occurrence reading only
  // the tuple. Deduplicate across all pins of the batch: several staged
  // rows of one logical update (e.g. one document's path facts) derive
  // the same view row.
  std::vector<Row> delta;
  std::unordered_set<Row, engine::RowHash> seen;
  for (const auto& [relation, new_row] : new_rows) {
    for (size_t occ = 0; occ < view.body.size(); ++occ) {
      if (view.body[occ].relation != relation) continue;
      ESTOCADA_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          EvaluateCqDeltaOverStaging(view, staging, occ, new_row));
      for (Row& row : rows) {
        if (seen.insert(row).second) delta.push_back(std::move(row));
      }
    }
  }
  return delta;
}

Status MaintainFragmentsOnInsertBatch(
    const StagingData& staging, Catalog* catalog,
    const std::vector<std::pair<std::string, Row>>& new_rows) {
  std::set<std::string> affected;
  for (const auto& [relation, row] : new_rows) {
    for (std::string& name : FragmentsReading(*catalog, relation)) {
      affected.insert(std::move(name));
    }
  }
  for (const std::string& name : affected) {
    ESTOCADA_ASSIGN_OR_RETURN(StorageDescriptor * desc,
                              catalog->GetMutableFragment(name));
    ESTOCADA_ASSIGN_OR_RETURN(
        std::vector<Row> delta,
        ComputeFragmentDelta(staging, desc->view.query, new_rows));
    if (delta.empty()) continue;
    ESTOCADA_RETURN_NOT_OK(FanOutDelta(staging, catalog, desc, delta));
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

Status MaintainFragmentsOnDelete(const StagingData& staging,
                                 Catalog* catalog,
                                 const std::string& relation) {
  Status first_error = Status::OK();
  for (const std::string& name : FragmentsReading(*catalog, relation)) {
    ESTOCADA_ASSIGN_OR_RETURN(StorageDescriptor * desc,
                              catalog->GetMutableFragment(name));
    LazyTruth truth(staging, *desc);
    ESTOCADA_ASSIGN_OR_RETURN(const std::vector<Row>* rows, truth.Get());
    for (size_t s = 0; s < desc->shards.size(); ++s) {
      Status st = FanOutShard(catalog, desc, s, nullptr, &truth);
      if (first_error.ok()) first_error = st;
    }
    SetStatistics(*rows, desc);
  }
  return first_error;
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
      ESTOCADA_RETURN_NOT_OK(
          DriverFor(store->kind).Drop({*store, *desc, r.container}));
    }
  }
  return Status::OK();
}

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

Status CreateReplicaContainer(const Catalog& catalog,
                              const std::string& fragment_name, size_t shard,
                              size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(catalog, fragment_name, shard, replica));
  return t.driver().Load(t.at(), {});
}

Status MaterializeReplica(const StagingData& staging, Catalog* catalog,
                          const std::string& fragment_name, size_t shard,
                          size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(*catalog, fragment_name, shard, replica));
  ESTOCADA_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      EvaluateCqOverStaging(t.desc->view.query, staging, {}, true));
  ESTOCADA_RETURN_NOT_OK(ReloadPlacement(t.at(), shard, rows));
  ESTOCADA_ASSIGN_OR_RETURN(StorageDescriptor * desc,
                            catalog->GetMutableFragment(fragment_name));
  if (desc->is_shadow()) SetStatistics(rows, desc);
  return Status::OK();
}

Status DropReplicaContainer(const Catalog& catalog,
                            const std::string& fragment_name, size_t shard,
                            size_t replica) {
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(catalog, fragment_name, shard, replica));
  return t.driver().Drop(t.at());
}

Status AppendToReplica(Catalog* catalog, const std::string& fragment_name,
                       size_t shard, size_t replica,
                       const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  ESTOCADA_ASSIGN_OR_RETURN(
      ReplicaTarget t, ResolveReplica(*catalog, fragment_name, shard, replica));
  return ForEachShardBucket(
      *t.desc, rows, [&](size_t s, const std::vector<Row>& bucket) -> Status {
        if (s != shard || bucket.empty()) return Status::OK();
        ESTOCADA_RETURN_NOT_OK(t.driver().Append(t.at(), bucket));
        ESTOCADA_ASSIGN_OR_RETURN(StorageDescriptor * desc,
                                  catalog->GetMutableFragment(fragment_name));
        if (desc->is_shadow()) desc->stats.row_count += bucket.size();
        return Status::OK();
      });
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
  // verification across kinds).
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
