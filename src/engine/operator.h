#ifndef ESTOCADA_ENGINE_OPERATOR_H_
#define ESTOCADA_ENGINE_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/batch.h"
#include "engine/compiled.h"
#include "engine/expr.h"
#include "engine/value.h"

namespace estocada::engine {

/// Physical operator of ESTOCADA's lightweight execution engine (the
/// paper's "Runtime Execution Engine" evaluating the non-delegated
/// operations over a nested relational model). Execution is
/// batch-at-a-time: Open(), then NextBatch() until it returns false.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open() = 0;

  /// Next chunk of output rows: fills `out` (resetting it first) and
  /// returns true, or returns false at end of stream. A true return
  /// carries at least one logical row. After a false return the caller
  /// must Open again before pulling more.
  virtual Result<bool> NextBatch(RowBatch* out) = 0;

  /// Column names of the output (for plan display and name resolution).
  virtual std::vector<std::string> columns() const = 0;

  /// One-line operator description; trees render via PlanToString.
  virtual std::string label() const = 0;

  /// Children, for plan printing (borrowed pointers).
  virtual std::vector<const Operator*> children() const { return {}; }
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains `op` into a vector via the batch interface (Open + NextBatch*).
Result<std::vector<Row>> Collect(Operator* op);

/// Indented multi-line rendering of an operator tree.
std::string PlanToString(const Operator& op, int indent = 0);

// --------------------------------------------------------------- Sources --

/// Materialized input (also the adapter for delegated store results:
/// the rewriting layer runs the native store query and wraps the rows).
class RowsOperator final : public Operator {
 public:
  RowsOperator(std::vector<std::string> columns, std::vector<Row> rows,
               std::string label = "rows");
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override { return columns_; }
  std::string label() const override;

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  std::string label_;
  size_t pos_ = 0;
};

/// Lazily calls `fetch` at Open — this is how delegated subqueries reach
/// the underlying DMSs without the engine depending on the store APIs.
class CallbackScanOperator final : public Operator {
 public:
  using Fetch = std::function<Result<std::vector<Row>>()>;
  CallbackScanOperator(std::vector<std::string> columns, Fetch fetch,
                       std::string label);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override { return columns_; }
  std::string label() const override { return label_; }

 private:
  std::vector<std::string> columns_;
  Fetch fetch_;
  std::string label_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Streaming source for graph-store accesses: every NextBatch pulls one
/// page of rows from the store through `fetch` (paged neighbor expansion
/// / pattern match via GraphStore::MatchPage), so a large expansion is
/// never materialized inside the operator — the plan consumes it
/// batch-at-a-time straight off the adjacency indexes. The engine stays
/// store-agnostic: `fetch`/`reset` are closures the translator builds.
class GraphFetchOperator final : public Operator {
 public:
  /// Appends the next page of rows to `out` (already cleared); returns
  /// true while more pages may remain. A true return may carry zero rows
  /// (residual filtering ate the whole page) — the operator keeps
  /// pulling until rows arrive or the stream ends.
  using ChunkFetch = std::function<Result<bool>(std::vector<Row>* out)>;
  /// Restarts the store-side cursor; called by every Open.
  using ChunkReset = std::function<Status()>;

  GraphFetchOperator(std::vector<std::string> columns, ChunkReset reset,
                     ChunkFetch fetch, std::string label);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override { return columns_; }
  std::string label() const override { return label_; }

 private:
  /// Pulls pages until the buffer holds unserved rows or the stream ends.
  Status Refill();

  std::vector<std::string> columns_;
  ChunkReset reset_;
  ChunkFetch fetch_;
  std::string label_;
  std::vector<Row> buffer_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// Scatter-gather source over a partitioned fragment: one fetch closure
/// per shard, all invoked at Open. With a `pool`, fetches fan out as
/// concurrent tasks — fetches sharing a `shard_key` (the backing store
/// instance) run sequentially inside one task, so a store's statistics
/// sink is never written from two threads at once; with a null pool all
/// fetches run inline. Results are concatenated in shard order, so the
/// output is deterministic regardless of completion order, and the first
/// failing shard (lowest index) fails the Open — a partitioned read
/// cannot answer soundly with a shard missing.
class ScatterGatherOperator final : public Operator {
 public:
  using Fetch = std::function<Result<std::vector<Row>>()>;
  ScatterGatherOperator(std::vector<std::string> columns,
                        std::vector<Fetch> shard_fetches,
                        std::vector<std::string> shard_keys, std::string label,
                        ThreadPool* pool);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override { return columns_; }
  std::string label() const override;

 private:
  std::vector<std::string> columns_;
  std::vector<Fetch> fetches_;
  std::vector<std::string> shard_keys_;
  std::string label_;
  ThreadPool* pool_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// ------------------------------------------------------- Unary operators --

class FilterOperator final : public Operator {
 public:
  FilterOperator(OperatorPtr input, ExprPtr predicate);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override {
    return input_->columns();
  }
  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  ExprPtr predicate_;
  RowBatch in_;
};

/// Projects/computes output columns from expressions.
class ProjectOperator final : public Operator {
 public:
  ProjectOperator(OperatorPtr input, std::vector<std::string> names,
                  std::vector<ExprPtr> exprs);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override { return names_; }
  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  std::vector<std::string> names_;
  std::vector<ExprPtr> exprs_;
  RowBatch in_;
  std::vector<uint32_t> sel_scratch_;
};

class LimitOperator final : public Operator {
 public:
  LimitOperator(OperatorPtr input, size_t limit);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override {
    return input_->columns();
  }
  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  size_t limit_;
  size_t produced_ = 0;
  RowBatch in_;
};

class DistinctOperator final : public Operator {
 public:
  explicit DistinctOperator(OperatorPtr input);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override {
    return input_->columns();
  }
  std::string label() const override { return "Distinct"; }
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  std::unordered_map<Row, bool, RowHash> seen_;
  RowBatch in_;
};

/// Sorts by the given column positions (ascending; stable).
class SortOperator final : public Operator {
 public:
  SortOperator(OperatorPtr input, std::vector<size_t> sort_columns);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override {
    return input_->columns();
  }
  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  std::vector<size_t> sort_columns_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// ------------------------------------------------------ Binary operators --

/// Classic build/probe hash equijoin on pairs of (left col, right col).
/// Output = left columns ++ right columns, probe-major: each right row is
/// followed by its matching left rows in build (insertion) order, at most
/// RowBatch::kMaxRows rows per batch.
class HashJoinOperator final : public Operator {
 public:
  HashJoinOperator(OperatorPtr left, OperatorPtr right,
                   std::vector<std::pair<size_t, size_t>> key_pairs);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override;
  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<std::pair<size_t, size_t>> key_pairs_;
  RowBatch build_batch_;
  FlatJoinTable table_;
  std::vector<uint32_t> build_key_cols_;
  std::vector<uint32_t> probe_key_cols_;
  const KeyOps* key_ops_ = nullptr;
  RowBatch probe_;
  /// Probe cursor: the next row of `probe_` to join and, when
  /// `mid_chain_`, the build row of its chain to resume at.
  size_t probe_row_ = 0;
  uint32_t chain_ = 0;
  bool mid_chain_ = false;
};

/// The BindJoin of the paper: for each input row, extracts the values at
/// `bind_columns` and calls `fetch` with them — the closure performs a
/// native access-pattern-restricted call (a KV Get, an indexed lookup...).
/// Output = input columns ++ fetched columns. Results are memoized per
/// binding so repeated keys cost one call.
class BindJoinOperator final : public Operator {
 public:
  using Fetch = std::function<Result<std::vector<Row>>(const Row& binding)>;
  /// Batched fetch: one call covering several distinct bindings (a store
  /// MGet-style round trip); results are positional with `bindings`.
  using BatchFetch = std::function<Result<std::vector<std::vector<Row>>>(
      const std::vector<Row>& bindings)>;
  BindJoinOperator(OperatorPtr input, std::vector<size_t> bind_columns,
                   std::vector<std::string> fetched_columns, Fetch fetch,
                   std::string target_label);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override;
  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

  /// Installs a batched fetch used when an input chunk carries more than
  /// one distinct uncached binding. Optional — without it each missing
  /// binding costs one `fetch` call.
  void set_batch_fetch(BatchFetch batch_fetch) {
    batch_fetch_ = std::move(batch_fetch);
  }

  /// Number of bindings actually fetched from the target (cache misses);
  /// a batched fetch covering k bindings counts k.
  size_t fetch_calls() const { return fetch_calls_; }

 private:
  OperatorPtr input_;
  std::vector<size_t> bind_columns_;
  std::vector<std::string> fetched_columns_;
  Fetch fetch_;
  BatchFetch batch_fetch_;
  std::string target_label_;
  std::unordered_map<Row, std::vector<Row>, RowHash> cache_;
  size_t fetch_calls_ = 0;
  RowBatch in_;
};

/// Bag union of inputs with identical arity.
class UnionAllOperator final : public Operator {
 public:
  explicit UnionAllOperator(std::vector<OperatorPtr> inputs);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override;
  std::string label() const override { return "UnionAll"; }
  std::vector<const Operator*> children() const override;

 private:
  std::vector<OperatorPtr> inputs_;
  size_t current_ = 0;
};

// ------------------------------------------------------ Nested / groups --

/// Groups by `group_columns` and nests each remaining column tuple into a
/// list value: output = group columns ++ one list column of nested rows
/// (each nested row itself a list). This is the engine-side construction
/// of nested results the paper describes for non-delegable operations.
class NestOperator final : public Operator {
 public:
  NestOperator(OperatorPtr input, std::vector<size_t> group_columns,
               std::string nested_column_name);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override;
  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  std::vector<size_t> group_columns_;
  std::string nested_name_;
  std::vector<Row> output_;
  size_t pos_ = 0;
};

/// Expands a list column into one output row per element (positions other
/// than `list_column` are copied; the list column is replaced with the
/// element).
class UnnestOperator final : public Operator {
 public:
  UnnestOperator(OperatorPtr input, size_t list_column);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override {
    return input_->columns();
  }
  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  size_t list_column_;
  RowBatch in_;
  size_t in_pos_ = 0;  ///< Logical row of `in_` being expanded.
  size_t elem_pos_ = 0;  ///< Next list element of that row.
};

/// Aggregate functions of the grouping operator.
enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggFn fn;
  size_t column;  ///< Ignored for kCount.
  std::string output_name;
};

/// Hash group-by with the classic aggregate functions.
class AggregateOperator final : public Operator {
 public:
  AggregateOperator(OperatorPtr input, std::vector<size_t> group_columns,
                    std::vector<AggSpec> aggregates);
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  std::vector<std::string> columns() const override;
  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  std::vector<size_t> group_columns_;
  std::vector<AggSpec> aggs_;
  std::vector<Row> output_;
  size_t pos_ = 0;
};

}  // namespace estocada::engine

#endif  // ESTOCADA_ENGINE_OPERATOR_H_
