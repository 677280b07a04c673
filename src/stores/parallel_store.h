#ifndef ESTOCADA_STORES_PARALLEL_STORE_H_
#define ESTOCADA_STORES_PARALLEL_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/value.h"
#include "stores/store_stats.h"

namespace estocada::stores {

/// Massively-parallel nested-relation store standing in for the paper's
/// Spark-on-a-cluster substrate: relations are hash-partitioned by their
/// first column, rows may hold nested collections (engine::Value lists —
/// exactly what the §II materialized join of purchases ⋈ browsing history
/// needs), scans/filters run partition-parallel on a worker pool, a scan
/// that fixes the first column reads only the partition holding it, and
/// composite-key hash indexes provide the "(userID, product category)"
/// access path. Per-job launch overhead is part of the cost profile:
/// bulk work is cheap, point lookups through the job API are not.
class ParallelStore : public StoreBase {
 public:
  /// `workers`: thread-pool size (the "cluster"). Default profile models
  /// job-launch latency + cheap per-row distributed scanning.
  explicit ParallelStore(size_t workers = 4,
                         CostProfile profile = kParallelBlueprint);

  static constexpr size_t kDefaultPartitions = 8;

  /// Creates a relation with `arity` columns over `partitions` partitions.
  Status CreateRelation(const std::string& name, size_t arity,
                        size_t partitions = kDefaultPartitions);
  Status DropRelation(const std::string& name);
  bool HasRelation(const std::string& name) const;

  /// Appends one row (hash-partitioned by row[0]).
  Status Insert(const std::string& relation, engine::Row row);

  /// Bulk append.
  Status InsertBatch(const std::string& relation, std::vector<engine::Row> rows);

  /// Parallel filtered scan: `predicate` is applied to every row (pass
  /// nullptr for all rows), partition-parallel; results are concatenated
  /// in partition order. `projection` selects column positions (empty =
  /// all).
  Result<std::vector<engine::Row>> ParallelScan(
      const std::string& relation,
      const std::function<bool(const engine::Row&)>& predicate,
      const std::vector<size_t>& projection = {},
      StoreStats* stats = nullptr) const;

  /// Partition-pruned scan: the rows whose column 0 equals `key` (under
  /// Value equality) and that pass `predicate`. Only the one partition
  /// that can hold them is read, on the calling thread, and only its rows
  /// are charged as scanned. Rows are returned whole.
  Result<std::vector<engine::Row>> PartitionScan(
      const std::string& relation, const engine::Value& key,
      const std::function<bool(const engine::Row&)>& predicate,
      StoreStats* stats = nullptr) const;

  /// Builds a composite hash index over `columns` (positions).
  Status CreateIndex(const std::string& relation,
                     const std::vector<size_t>& columns);

  /// Point lookup through a previously created composite index.
  Result<std::vector<engine::Row>> IndexLookup(
      const std::string& relation, const std::vector<size_t>& columns,
      const engine::Row& key, StoreStats* stats = nullptr) const;

  /// Batched index lookup: one round trip resolving the index once and
  /// probing every key; result i holds the matches for keys[i]. Charged as
  /// one operation plus one index probe per key.
  Result<std::vector<std::vector<engine::Row>>> IndexLookupMany(
      const std::string& relation, const std::vector<size_t>& columns,
      const std::vector<engine::Row>& keys, StoreStats* stats = nullptr) const;

  Result<size_t> RowCount(const std::string& relation) const;
  Result<size_t> Arity(const std::string& relation) const;

  size_t workers() const { return pool_->num_threads(); }


 private:
  /// Composite key row -> (partition, offset) of each row holding it.
  using Index = std::unordered_map<engine::Row,
                                   std::vector<std::pair<size_t, size_t>>,
                                   engine::RowHash>;
  struct Relation {
    size_t arity;
    std::vector<std::vector<engine::Row>> partitions;
    /// Composite indexes by their column positions.
    std::map<std::vector<size_t>, Index> indexes;
    size_t row_count = 0;

    size_t PartitionOf(const engine::Value& first_column) const {
      return first_column.Hash() % partitions.size();
    }
  };

  Result<const Relation*> GetRelation(const std::string& name) const;
  Result<Relation*> GetMutableRelation(const std::string& name);
  static Result<const Index*> GetIndex(const Relation& r,
                                       const std::string& relation,
                                       const std::vector<size_t>& columns);

  std::unique_ptr<ThreadPool> pool_;
  std::map<std::string, Relation> relations_;
};

}  // namespace estocada::stores

#endif  // ESTOCADA_STORES_PARALLEL_STORE_H_
