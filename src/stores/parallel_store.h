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
/// needs), scans/filters run partition-parallel on a worker pool, and
/// composite-key hash indexes provide the "(userID, product category)"
/// access path. Per-job launch overhead is part of the cost profile:
/// bulk work is cheap, point lookups through the job API are not.
class ParallelStore : public StoreBase {
 public:
  /// `workers`: thread-pool size (the "cluster"). Default profile models
  /// job-launch latency + cheap per-row distributed scanning.
  explicit ParallelStore(size_t workers = 4,
                         CostProfile profile = kParallelBlueprint);

  /// Creates a relation with `arity` columns over `partitions` partitions.
  Status CreateRelation(const std::string& name, size_t arity,
                        size_t partitions = 8);
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
  struct Relation {
    size_t arity;
    std::vector<std::vector<engine::Row>> partitions;
    /// key = column positions (joined by ','); value: composite key rows
    /// -> (partition, offset) pairs.
    std::map<std::string,
             std::unordered_map<engine::Row, std::vector<std::pair<size_t, size_t>>,
                                engine::RowHash>>
        indexes;
    size_t row_count = 0;
  };

  Result<const Relation*> GetRelation(const std::string& name) const;
  Result<Relation*> GetMutableRelation(const std::string& name);


  static std::string IndexKey(const std::vector<size_t>& columns);

  std::unique_ptr<ThreadPool> pool_;
  std::map<std::string, Relation> relations_;
};

}  // namespace estocada::stores

#endif  // ESTOCADA_STORES_PARALLEL_STORE_H_
