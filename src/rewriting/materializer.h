#ifndef ESTOCADA_REWRITING_MATERIALIZER_H_
#define ESTOCADA_REWRITING_MATERIALIZER_H_

#include "catalog/catalog.h"
#include "common/result.h"
#include "rewriting/cq_eval.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {

/// Materializes a registered fragment: evaluates its view definition over
/// the staged dataset, creates the physical container in the target store
/// (table / collection / relation / core), loads the rows in the store's
/// native layout, builds the indexes implied by the view's access-pattern
/// adornments, and fills in the fragment statistics.
///
/// The physical layout of each store kind (container, row encoding,
/// indexes) belongs to its StoreDriver (rewriting/store_driver.h,
/// rewriting/drivers/); DESIGN.md "Store drivers" tabulates them.
Status MaterializeFragment(const StagingData& staging,
                           catalog::Catalog* catalog,
                           const std::string& fragment_name);

/// Creates the fragment's *empty* physical container (plus the indexes
/// implied by its adornments and index_positions) without evaluating the
/// view. A shadow fragment opens this way, and the online copy then fills
/// its placement in throttled batches via AppendToReplica.
Status CreateFragmentContainer(catalog::Catalog* catalog,
                               const std::string& fragment_name);

/// Set-compares a fragment's physical content against `expected_rows`
/// (normally the fragment view evaluated over staging — the ground
/// truth). Comparison happens after the store's own serialization round
/// trip, so a correctly loaded fragment always verifies even for values
/// that JSON canonicalizes. Duplicates on either side are ignored (set
/// semantics). Every fresh, non-rebuilding replica of each shard is
/// compared against the shard's rows. Returns OK iff they match; a kFailedPrecondition status describes the first
/// divergence otherwise.
Status VerifyFragmentAgainstRows(const catalog::Catalog& catalog,
                                 const std::string& fragment_name,
                                 const std::vector<engine::Row>& expected_rows);

/// Drops the fragment's physical containers from their stores (inverse of
/// materialization, every shard and replica), leaving the descriptor in
/// place; used by the advisor when re-organizing. Containers of replicas
/// mid-rebuild are left alone — the repairer owns and cleans those up.
/// DropFragment on the catalog removes the descriptor.
Status DematerializeFragment(catalog::Catalog* catalog,
                             const std::string& fragment_name);

/// --- Per-replica primitives (online copies and anti-entropy) ----------
///
/// Each primitive below addresses exactly one placement — replica
/// `replica` of shard `shard` (shard 0 is the whole fragment when it is
/// unpartitioned) — and returns kOutOfRange when the fragment has no such
/// placement. None of them touches the descriptor's epochs; callers (the
/// online copy, through the Estocada facade) sequence them into a fill
/// (create → backfill batches → catch-up → verify) and flip the epoch /
/// rebuilding / lifecycle bits themselves under the server's admin lock.
/// The writes keep the fragment statistics only for a shadow fragment,
/// whose one placement is its whole extent; a rebuilding replica's
/// serving siblings already carry them. Row arguments are view rows of
/// the whole fragment; each primitive keeps the shard's rows of them.

/// Calls `fn(shard, rows)` once per shard with the rows that shard owns.
/// A one-shard fragment gets `rows` itself, so an unpartitioned fragment
/// never copies its view extent; a partitioned one gets each shard's
/// bucket by the partition key.
template <typename Fn>
Status ForEachShardBucket(const catalog::StorageDescriptor& desc,
                          const std::vector<engine::Row>& rows, Fn&& fn) {
  if (desc.shards.size() == 1) return fn(0, rows);
  std::vector<std::vector<engine::Row>> buckets(desc.shards.size());
  for (const engine::Row& row : rows) {
    buckets[desc.partition.ShardOf(row[desc.partition.key_position])]
        .push_back(row);
  }
  for (size_t s = 0; s < buckets.size(); ++s) {
    ESTOCADA_RETURN_NOT_OK(fn(s, buckets[s]));
  }
  return Status::OK();
}

/// One addressed placement: its fragment, replica placement and store.
struct ReplicaTarget {
  const catalog::StorageDescriptor* desc;
  const catalog::ReplicaPlacement* placement;
  const catalog::StoreHandle* store;

  Placement at() const { return {*store, *desc, placement->container}; }
  const StoreDriver& driver() const { return DriverFor(store->kind); }
};

/// Resolves replica `replica` of shard `shard`, the one bounds check of a
/// placement address: kOutOfRange when the fragment has no such placement.
Result<ReplicaTarget> ResolveReplica(const catalog::Catalog& catalog,
                                     const std::string& fragment_name,
                                     size_t shard, size_t replica);

/// Creates the placement's *empty* container (with the fragment's
/// indexes) in its store.
Status CreateReplicaContainer(const catalog::Catalog& catalog,
                              const std::string& fragment_name, size_t shard,
                              size_t replica);

/// Drops the placement's container from its store.
Status DropReplicaContainer(const catalog::Catalog& catalog,
                            const std::string& fragment_name, size_t shard,
                            size_t replica);

/// Rebuilds the placement's container in one shot from the staging
/// truth: drops it (tolerating absence), re-evaluates the view, and loads
/// the shard's rows in the store's native layout. Works for every store
/// kind — the only rebuild path for kinds that take no appends (text).
Status MaterializeReplica(const StagingData& staging,
                          catalog::Catalog* catalog,
                          const std::string& fragment_name, size_t shard,
                          size_t replica);

/// Appends the shard's rows of already-computed view rows to the
/// placement's container only. Kinds that take no appends (text) return
/// kUnsupported — rebuild instead. Document _ids are seeded from the
/// container's own count, so refilled containers never collide.
Status AppendToReplica(catalog::Catalog* catalog,
                       const std::string& fragment_name, size_t shard,
                       size_t replica, const std::vector<engine::Row>& rows);

/// Reads the placement's container back into pivot-space view rows (the
/// inverse of the per-kind load layouts). Order is unspecified and duplicates
/// appended by incremental maintenance are preserved.
Result<std::vector<engine::Row>> ReadReplicaRows(
    const catalog::Catalog& catalog, const std::string& fragment_name,
    size_t shard, size_t replica);

/// Set-compares the placement's content against the shard's rows of
/// `expected_rows` (the whole view extent; same contract as
/// VerifyFragmentAgainstRows).
Status VerifyReplicaAgainstRows(const catalog::Catalog& catalog,
                                const std::string& fragment_name,
                                size_t shard, size_t replica,
                                const std::vector<engine::Row>& expected_rows);

/// Order-independent digest over the distinct rows stored in the
/// placement — byte-equal contents digest equal. Comparable only between
/// placements of the same store kind (kinds round-trip values
/// differently).
Result<uint64_t> FragmentReplicaDigest(const catalog::Catalog& catalog,
                                       const std::string& fragment_name,
                                       size_t shard, size_t replica);

/// Incremental view maintenance: given one tuple freshly appended to
/// dataset relation `relation` (already present in `staging`), computes
/// each affected fragment's delta (ComputeFragmentDelta) and writes it to
/// every serving placement: appended where the kind takes appends, and
/// where it does not (text) the placement is rebuilt from the staging
/// truth. Each row goes to the shard owning its partition key, and the
/// shard's write epoch advances by one; every fresh non-rebuilding replica
/// takes the write and moves to the new epoch. A replica whose write fails
/// (store down) stays at its old epoch — stale, out of the routing set,
/// queued for the repairer — and the write fails only when no replica of
/// a shard takes it (the epoch bump is then rolled back). Deletions take
/// MaintainFragmentsOnDelete.
Status MaintainFragmentsOnInsert(const StagingData& staging,
                                 catalog::Catalog* catalog,
                                 const std::string& relation,
                                 const engine::Row& new_row);

/// Batch form: one logical update that staged several tuples (e.g. one
/// document's path facts). Deltas are deduplicated across the batch so a
/// view row derivable from several of the new tuples is written once.
/// Shadow fragments are skipped: the online copy filling each one
/// captures and replays its deltas itself.
Status MaintainFragmentsOnInsertBatch(
    const StagingData& staging, catalog::Catalog* catalog,
    const std::vector<std::pair<std::string, engine::Row>>& new_rows);

/// Deletion maintenance: a deletion has no append delta, so every serving
/// fragment whose view reads `relation` (already updated in `staging`) is
/// rebuilt from the staging truth through the write fan-out: each shard's
/// write epoch advances, and every fresh, non-rebuilding replica reloads
/// the shard's rows and moves to the new epoch. A replica whose store
/// fails stays stale for the repairer; the call fails only when no replica
/// of some shard took the rebuild (that shard's epoch bump is rolled back,
/// and the other fragments and shards are still rebuilt).
Status MaintainFragmentsOnDelete(const StagingData& staging,
                                 catalog::Catalog* catalog,
                                 const std::string& relation);

/// The delta rule: the view rows `new_rows` (tuples already staged) add to
/// `view`. For every new tuple and every occurrence of its relation in the
/// view body, the body is evaluated with that occurrence reading only the
/// tuple, whose scalar values are pushed into the other atoms as
/// constants (EvaluateCqDeltaOverStaging); the other atoms still scan
/// their staged relations, but copy only the rows that match. Rows are
/// deduplicated across the batch. Serving placements take the result
/// through the maintenance fan-out above, a non-serving one (an online
/// copy's target) through AppendToReplica.
Result<std::vector<engine::Row>> ComputeFragmentDelta(
    const StagingData& staging, const pivot::ConjunctiveQuery& view,
    const std::vector<std::pair<std::string, engine::Row>>& new_rows);

}  // namespace estocada::rewriting

#endif  // ESTOCADA_REWRITING_MATERIALIZER_H_
