#ifndef ESTOCADA_ENGINE_BATCH_H_
#define ESTOCADA_ENGINE_BATCH_H_

#include <cstdint>
#include <vector>

#include "engine/value.h"

namespace estocada::engine {

/// One chunk of the batch-at-a-time execution engine: up to a few thousand
/// rows stored column-major (one `Value` vector per output column) plus an
/// optional *selection vector* — the indices of the rows that are logically
/// present. Filters narrow the selection instead of copying survivors, so
/// a whole pipeline of predicates over one scanned chunk touches each
/// column vector once and moves no row data.
///
/// Invariants: every column vector has exactly `physical_rows()` entries,
/// and when a selection is set each entry is a valid physical index in
/// ascending order (operators rely on the order for deterministic output).
class RowBatch {
 public:
  /// Preferred granularity: big enough to amortize per-batch virtual
  /// dispatch, small enough to keep a chunk's columns cache-resident.
  static constexpr size_t kDefaultRows = 1024;
  /// Upper bound sources aim for; a hash join never emits more per batch
  /// (a probe chunk's matches spill over into the next batches).
  static constexpr size_t kMaxRows = 4096;

  RowBatch() = default;
  explicit RowBatch(size_t arity) { Reset(arity); }

  /// Clears all rows and the selection, re-shaping to `arity` columns.
  void Reset(size_t arity);

  size_t arity() const { return columns_.size(); }

  /// Rows physically stored in the columns (ignoring the selection).
  size_t physical_rows() const { return physical_rows_; }

  /// Logical row count: selection size when set, else physical rows.
  size_t size() const { return has_sel_ ? sel_.size() : physical_rows_; }
  bool empty() const { return size() == 0; }

  std::vector<Value>& column(size_t c) { return columns_[c]; }
  const std::vector<Value>& column(size_t c) const { return columns_[c]; }

  bool has_selection() const { return has_sel_; }
  const std::vector<uint32_t>& selection() const { return sel_; }
  void SetSelection(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    has_sel_ = true;
  }

  /// Physical index of the i-th logical row.
  uint32_t ActiveIndex(size_t i) const {
    return has_sel_ ? sel_[i] : static_cast<uint32_t>(i);
  }

  /// Bulk writers that push straight into `column(c)` call this once at
  /// the end so `physical_rows()` stays consistent.
  void SetPhysicalRows(size_t n) { physical_rows_ = n; }

  /// Appends one row-major tuple (must match `arity()`); ignores any
  /// selection — callers append to fresh batches.
  void AppendRow(const Row& row);
  void AppendRow(Row&& row);

  /// Materializes the i-th logical row as a row-major tuple.
  Row MaterializeRow(size_t i) const;

  /// Appends every logical row to `out` in order (the batch → row-vector
  /// bridge used by Collect, and through it the blocking operators).
  void AppendRowsTo(std::vector<Row>* out) const;

  /// Rewrites the columns to contain exactly the selected rows and drops
  /// the selection (used before handing a batch to code that indexes
  /// columns physically).
  void Compact();

 private:
  std::vector<std::vector<Value>> columns_;
  size_t physical_rows_ = 0;
  std::vector<uint32_t> sel_;
  bool has_sel_ = false;
};

}  // namespace estocada::engine

#endif  // ESTOCADA_ENGINE_BATCH_H_
