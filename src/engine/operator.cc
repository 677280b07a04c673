#include "engine/operator.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_set>

#include "common/strings.h"

namespace estocada::engine {

Result<std::vector<Row>> Collect(Operator* op) {
  ESTOCADA_RETURN_NOT_OK(op->Open());
  std::vector<Row> out;
  RowBatch batch;
  for (;;) {
    ESTOCADA_ASSIGN_OR_RETURN(bool more, op->NextBatch(&batch));
    if (!more) break;
    batch.AppendRowsTo(&out);
  }
  return out;
}

namespace {

/// Emits rows [*pos, *pos + kDefaultRows) of `rows` as one column-major
/// chunk; advances *pos. The shared output loop of the operators that
/// materialize their rows (sources and the blocking operators). `may_move`
/// moves values out of `rows` (safe when Open recomputes them).
bool EmitSlice(std::vector<Row>& rows, size_t* pos, size_t fallback_arity,
               bool may_move, RowBatch* out) {
  if (*pos >= rows.size()) {
    out->Reset(fallback_arity);
    return false;
  }
  const size_t end = std::min(rows.size(), *pos + RowBatch::kDefaultRows);
  const size_t arity = rows[*pos].size();
  out->Reset(arity);
  for (size_t c = 0; c < arity; ++c) {
    out->column(c).reserve(end - *pos);
  }
  for (size_t i = *pos; i < end; ++i) {
    Row& row = rows[i];
    for (size_t c = 0; c < arity; ++c) {
      if (may_move) {
        out->column(c).push_back(std::move(row[c]));
      } else {
        out->column(c).push_back(row[c]);
      }
    }
  }
  out->SetPhysicalRows(end - *pos);
  *pos = end;
  return true;
}

}  // namespace

std::string PlanToString(const Operator& op, int indent) {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += op.label();
  out += "\n";
  for (const Operator* child : op.children()) {
    out += PlanToString(*child, indent + 1);
  }
  return out;
}

// --------------------------------------------------------------- Sources --

RowsOperator::RowsOperator(std::vector<std::string> columns,
                           std::vector<Row> rows, std::string label)
    : columns_(std::move(columns)),
      rows_(std::move(rows)),
      label_(std::move(label)) {}

Status RowsOperator::Open() {
  pos_ = 0;
  return Status::OK();
}

Result<bool> RowsOperator::NextBatch(RowBatch* out) {
  // Copy, not move: RowsOperator re-serves the same rows after re-Open.
  return EmitSlice(rows_, &pos_, columns_.size(), /*may_move=*/false, out);
}

std::string RowsOperator::label() const {
  return StrCat(label_, " [", rows_.size(), " rows]");
}

CallbackScanOperator::CallbackScanOperator(std::vector<std::string> columns,
                                           Fetch fetch, std::string label)
    : columns_(std::move(columns)),
      fetch_(std::move(fetch)),
      label_(std::move(label)) {}

Status CallbackScanOperator::Open() {
  ESTOCADA_ASSIGN_OR_RETURN(rows_, fetch_());
  pos_ = 0;
  return Status::OK();
}

Result<bool> CallbackScanOperator::NextBatch(RowBatch* out) {
  // Open refetches, so the fetched rows can be moved out.
  return EmitSlice(rows_, &pos_, columns_.size(), /*may_move=*/true, out);
}

GraphFetchOperator::GraphFetchOperator(std::vector<std::string> columns,
                                       ChunkReset reset, ChunkFetch fetch,
                                       std::string label)
    : columns_(std::move(columns)),
      reset_(std::move(reset)),
      fetch_(std::move(fetch)),
      label_(std::move(label)) {}

Status GraphFetchOperator::Open() {
  buffer_.clear();
  pos_ = 0;
  done_ = false;
  return reset_();
}

Status GraphFetchOperator::Refill() {
  while (!done_ && pos_ >= buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
    ESTOCADA_ASSIGN_OR_RETURN(bool more, fetch_(&buffer_));
    if (!more) done_ = true;
  }
  return Status::OK();
}

Result<bool> GraphFetchOperator::NextBatch(RowBatch* out) {
  ESTOCADA_RETURN_NOT_OK(Refill());
  // One store page per batch; rows can be moved (Open resets the cursor).
  return EmitSlice(buffer_, &pos_, columns_.size(), /*may_move=*/true, out);
}

ScatterGatherOperator::ScatterGatherOperator(std::vector<std::string> columns,
                                             std::vector<Fetch> shard_fetches,
                                             std::vector<std::string> shard_keys,
                                             std::string label,
                                             ThreadPool* pool)
    : columns_(std::move(columns)),
      fetches_(std::move(shard_fetches)),
      shard_keys_(std::move(shard_keys)),
      label_(std::move(label)),
      pool_(pool) {}

Status ScatterGatherOperator::Open() {
  rows_.clear();
  pos_ = 0;
  const size_t n = fetches_.size();
  std::vector<std::vector<Row>> parts(n);
  std::vector<Status> statuses(n, Status::OK());
  auto run_one = [&](size_t i) {
    Result<std::vector<Row>> r = fetches_[i]();
    if (r.ok()) {
      parts[i] = std::move(*r);
    } else {
      statuses[i] = r.status();
    }
  };
  if (pool_ == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) run_one(i);
  } else {
    // One task per backing instance: shard fetches that share a store run
    // back to back inside it, so no store-side statistics sink is ever
    // written concurrently.
    std::map<std::string, std::vector<size_t>> by_key;
    for (size_t i = 0; i < n; ++i) {
      by_key[i < shard_keys_.size() ? shard_keys_[i] : StrCat("#", i)]
          .push_back(i);
    }
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
    const size_t tasks = by_key.size();
    for (const auto& [key, idxs] : by_key) {
      std::vector<size_t> mine = idxs;
      pool_->Submit([&run_one, &mu, &cv, &done, mine]() {
        for (size_t i : mine) run_one(i);
        // Notify while holding the lock: Open's stack frame (and with it
        // `cv`) may unwind the moment the waiter sees done == tasks, so an
        // unlocked notify_one could signal a destroyed condvar.
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == tasks; });
  }
  // Aggregate every failing shard into one status (first shard's code):
  // a partitioned read cannot answer soundly with any shard missing, and
  // keeping every failing store's name in the message lets the caller's
  // failure attribution mark all of them down in a single attempt instead
  // of rediscovering them one retry at a time.
  size_t failed = 0;
  std::string combined;
  StatusCode code = StatusCode::kOk;
  for (size_t i = 0; i < n; ++i) {
    if (statuses[i].ok()) continue;
    if (failed == 0) code = statuses[i].code();
    combined += (failed ? "; " : "") + statuses[i].message();
    ++failed;
  }
  if (failed > 0) {
    if (failed == 1) return Status(code, std::move(combined));
    return Status(code, StrCat(failed, " shards failed: ", combined));
  }
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  rows_.reserve(total);
  for (auto& p : parts) {
    rows_.insert(rows_.end(), std::make_move_iterator(p.begin()),
                 std::make_move_iterator(p.end()));
  }
  return Status::OK();
}

Result<bool> ScatterGatherOperator::NextBatch(RowBatch* out) {
  // Open re-runs the shard fetches, so the gathered rows can be moved.
  return EmitSlice(rows_, &pos_, columns_.size(), /*may_move=*/true, out);
}

std::string ScatterGatherOperator::label() const {
  return StrCat(label_, " [", fetches_.size(), " shards]");
}

// ------------------------------------------------------- Unary operators --

FilterOperator::FilterOperator(OperatorPtr input, ExprPtr predicate)
    : input_(std::move(input)), predicate_(std::move(predicate)) {}

Status FilterOperator::Open() { return input_->Open(); }

Result<bool> FilterOperator::NextBatch(RowBatch* out) {
  for (;;) {
    ESTOCADA_ASSIGN_OR_RETURN(bool more, input_->NextBatch(&in_));
    if (!more) {
      out->Reset(in_.arity());
      return false;
    }
    std::vector<uint32_t> sel;
    if (in_.has_selection()) {
      sel = in_.selection();
    } else {
      sel.reserve(in_.physical_rows());
      for (size_t i = 0; i < in_.physical_rows(); ++i) {
        sel.push_back(static_cast<uint32_t>(i));
      }
    }
    ESTOCADA_RETURN_NOT_OK(predicate_->FilterBatch(in_, &sel));
    if (sel.empty()) continue;  // whole chunk dropped; pull the next one
    *out = std::move(in_);
    out->SetSelection(std::move(sel));
    return true;
  }
}

std::string FilterOperator::label() const {
  return StrCat("Filter ", predicate_->ToString());
}

ProjectOperator::ProjectOperator(OperatorPtr input,
                                 std::vector<std::string> names,
                                 std::vector<ExprPtr> exprs)
    : input_(std::move(input)),
      names_(std::move(names)),
      exprs_(std::move(exprs)) {}

Status ProjectOperator::Open() {
  if (names_.size() != exprs_.size()) {
    return Status::InvalidArgument("Project: name/expr count mismatch");
  }
  return input_->Open();
}

Result<bool> ProjectOperator::NextBatch(RowBatch* out) {
  ESTOCADA_ASSIGN_OR_RETURN(bool more, input_->NextBatch(&in_));
  if (!more) {
    out->Reset(exprs_.size());
    return false;
  }
  sel_scratch_.clear();
  if (in_.has_selection()) {
    sel_scratch_ = in_.selection();
  } else {
    sel_scratch_.reserve(in_.physical_rows());
    for (size_t i = 0; i < in_.physical_rows(); ++i) {
      sel_scratch_.push_back(static_cast<uint32_t>(i));
    }
  }
  out->Reset(exprs_.size());
  for (size_t c = 0; c < exprs_.size(); ++c) {
    ESTOCADA_RETURN_NOT_OK(
        exprs_[c]->EvalBatch(in_, sel_scratch_, &out->column(c)));
  }
  out->SetPhysicalRows(sel_scratch_.size());
  return true;
}

std::string ProjectOperator::label() const {
  return StrCat("Project [", StrJoin(names_, ", "), "]");
}

LimitOperator::LimitOperator(OperatorPtr input, size_t limit)
    : input_(std::move(input)), limit_(limit) {}

Status LimitOperator::Open() {
  produced_ = 0;
  return input_->Open();
}

Result<bool> LimitOperator::NextBatch(RowBatch* out) {
  if (produced_ >= limit_) {
    out->Reset(0);
    return false;
  }
  ESTOCADA_ASSIGN_OR_RETURN(bool more, input_->NextBatch(&in_));
  if (!more) {
    out->Reset(in_.arity());
    return false;
  }
  const size_t want = limit_ - produced_;
  if (in_.size() > want) {
    std::vector<uint32_t> sel;
    sel.reserve(want);
    for (size_t i = 0; i < want; ++i) sel.push_back(in_.ActiveIndex(i));
    in_.SetSelection(std::move(sel));
  }
  produced_ += in_.size();
  *out = std::move(in_);
  return true;
}

std::string LimitOperator::label() const { return StrCat("Limit ", limit_); }

DistinctOperator::DistinctOperator(OperatorPtr input)
    : input_(std::move(input)) {}

Status DistinctOperator::Open() {
  seen_.clear();
  return input_->Open();
}

Result<bool> DistinctOperator::NextBatch(RowBatch* out) {
  for (;;) {
    ESTOCADA_ASSIGN_OR_RETURN(bool more, input_->NextBatch(&in_));
    if (!more) {
      out->Reset(in_.arity());
      return false;
    }
    std::vector<uint32_t> keep;
    const size_t n = in_.size();
    for (size_t i = 0; i < n; ++i) {
      if (seen_.emplace(in_.MaterializeRow(i), true).second) {
        keep.push_back(in_.ActiveIndex(i));
      }
    }
    if (keep.empty()) continue;  // all duplicates; pull the next chunk
    *out = std::move(in_);
    out->SetSelection(std::move(keep));
    return true;
  }
}

SortOperator::SortOperator(OperatorPtr input, std::vector<size_t> sort_columns)
    : input_(std::move(input)), sort_columns_(std::move(sort_columns)) {}

Status SortOperator::Open() {
  ESTOCADA_ASSIGN_OR_RETURN(rows_, Collect(input_.get()));
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (size_t c : sort_columns_) {
                       int cmp = Value::Compare(a[c], b[c]);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortOperator::NextBatch(RowBatch* out) {
  // Open re-sorts a fresh drain, so the sorted rows can be moved out.
  return EmitSlice(rows_, &pos_, columns().size(), /*may_move=*/true, out);
}

std::string SortOperator::label() const {
  return StrCat("Sort [", StrJoin(sort_columns_, ", "), "]");
}

// ------------------------------------------------------ Binary operators --

HashJoinOperator::HashJoinOperator(
    OperatorPtr left, OperatorPtr right,
    std::vector<std::pair<size_t, size_t>> key_pairs)
    : left_(std::move(left)),
      right_(std::move(right)),
      key_pairs_(std::move(key_pairs)) {}

std::vector<std::string> HashJoinOperator::columns() const {
  std::vector<std::string> out = left_->columns();
  for (const std::string& c : right_->columns()) out.push_back(c);
  return out;
}

std::string HashJoinOperator::label() const {
  return StrCat("HashJoin [",
                StrJoinMapped(key_pairs_, ", ",
                              [](const std::pair<size_t, size_t>& p) {
                                return StrCat("l", p.first, "=r", p.second);
                              }),
                "]");
}

Status HashJoinOperator::Open() {
  build_key_cols_.clear();
  probe_key_cols_.clear();
  for (const auto& [l, r] : key_pairs_) {
    build_key_cols_.push_back(static_cast<uint32_t>(l));
    probe_key_cols_.push_back(static_cast<uint32_t>(r));
  }
  // Resolve the compiled kernel for this key arity once per Open.
  key_ops_ = &CompiledKeyOps(key_pairs_.size());
  // Drain the build side chunk by chunk straight into the build columns;
  // the chunks are ours to consume, so their values are moved.
  build_batch_.Reset(left_->columns().size());
  ESTOCADA_RETURN_NOT_OK(left_->Open());
  RowBatch chunk;
  for (;;) {
    ESTOCADA_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&chunk));
    if (!more) break;
    if (build_batch_.physical_rows() == 0) build_batch_.Reset(chunk.arity());
    const size_t n = chunk.size();
    for (size_t c = 0; c < chunk.arity(); ++c) {
      std::vector<Value>& from = chunk.column(c);
      std::vector<Value>& to = build_batch_.column(c);
      for (size_t i = 0; i < n; ++i) {
        to.push_back(std::move(from[chunk.ActiveIndex(i)]));
      }
    }
    build_batch_.SetPhysicalRows(build_batch_.physical_rows() + n);
  }
  table_.Reset(build_batch_.physical_rows());
  for (size_t i = 0; i < build_batch_.physical_rows(); ++i) {
    table_.Insert(key_ops_->hash(build_batch_, build_key_cols_.data(),
                                 build_key_cols_.size(),
                                 static_cast<uint32_t>(i)),
                  static_cast<uint32_t>(i));
  }
  return right_->Open();
}

Result<bool> HashJoinOperator::NextBatch(RowBatch* out) {
  const size_t left_arity = build_batch_.arity();
  const size_t key_arity = build_key_cols_.size();
  for (;;) {
    ESTOCADA_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&probe_));
    if (!more) {
      out->Reset(left_arity);
      return false;
    }
    const size_t right_arity = probe_.arity();
    out->Reset(left_arity + right_arity);
    size_t emitted = 0;
    const size_t n = probe_.size();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t p = probe_.ActiveIndex(i);
      const uint64_t h =
          key_ops_->hash(probe_, probe_key_cols_.data(), key_arity, p);
      for (uint32_t m = table_.Head(h); m != FlatJoinTable::kNone;
           m = table_.Next(m)) {
        if (!key_ops_->equals(build_batch_, build_key_cols_.data(), m, probe_,
                              probe_key_cols_.data(), key_arity, p)) {
          continue;
        }
        for (size_t c = 0; c < left_arity; ++c) {
          out->column(c).push_back(build_batch_.column(c)[m]);
        }
        for (size_t c = 0; c < right_arity; ++c) {
          out->column(left_arity + c).push_back(probe_.column(c)[p]);
        }
        ++emitted;
      }
    }
    if (emitted == 0) continue;  // no matches in this probe chunk
    out->SetPhysicalRows(emitted);
    return true;
  }
}

BindJoinOperator::BindJoinOperator(OperatorPtr input,
                                   std::vector<size_t> bind_columns,
                                   std::vector<std::string> fetched_columns,
                                   Fetch fetch, std::string target_label)
    : input_(std::move(input)),
      bind_columns_(std::move(bind_columns)),
      fetched_columns_(std::move(fetched_columns)),
      fetch_(std::move(fetch)),
      target_label_(std::move(target_label)) {}

std::vector<std::string> BindJoinOperator::columns() const {
  std::vector<std::string> out = input_->columns();
  for (const std::string& c : fetched_columns_) out.push_back(c);
  return out;
}

std::string BindJoinOperator::label() const {
  return StrCat("BindJoin -> ", target_label_, " [bind: ",
                StrJoin(bind_columns_, ", "), "]");
}

Status BindJoinOperator::Open() {
  cache_.clear();
  fetch_calls_ = 0;
  return input_->Open();
}

Result<bool> BindJoinOperator::NextBatch(RowBatch* out) {
  const size_t in_arity = input_->columns().size();
  const size_t out_arity = in_arity + fetched_columns_.size();
  for (;;) {
    ESTOCADA_ASSIGN_OR_RETURN(bool more, input_->NextBatch(&in_));
    if (!more) {
      out->Reset(out_arity);
      return false;
    }
    const size_t n = in_.size();
    // Materialize the binding key per logical row, then fetch the distinct
    // uncached bindings — in one batched call when the target supports it
    // and more than one is missing, else one fetch_ per binding.
    std::vector<Row> bindings(n);
    std::vector<Row> missing;
    std::unordered_set<Row, RowHash> missing_set;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t p = in_.ActiveIndex(i);
      Row& binding = bindings[i];
      binding.reserve(bind_columns_.size());
      for (size_t c : bind_columns_) {
        if (c >= in_.arity()) {
          return Status::OutOfRange(
              StrCat("BindJoin: bind column ", c, " out of range"));
        }
        binding.push_back(in_.column(c)[p]);
      }
      if (cache_.count(binding) == 0 && missing_set.insert(binding).second) {
        missing.push_back(binding);
      }
    }
    if (batch_fetch_ && missing.size() > 1) {
      fetch_calls_ += missing.size();
      ESTOCADA_ASSIGN_OR_RETURN(std::vector<std::vector<Row>> fetched,
                                batch_fetch_(missing));
      if (fetched.size() != missing.size()) {
        return Status::Internal(
            StrCat("BindJoin: batched fetch returned ", fetched.size(),
                   " result sets for ", missing.size(), " bindings"));
      }
      for (size_t i = 0; i < missing.size(); ++i) {
        cache_.emplace(std::move(missing[i]), std::move(fetched[i]));
      }
    } else {
      for (Row& binding : missing) {
        ++fetch_calls_;
        ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> fetched, fetch_(binding));
        cache_.emplace(std::move(binding), std::move(fetched));
      }
    }
    out->Reset(out_arity);
    size_t emitted = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t p = in_.ActiveIndex(i);
      const std::vector<Row>& matches = cache_.at(bindings[i]);
      for (const Row& fetched : matches) {
        for (size_t c = 0; c < in_arity; ++c) {
          out->column(c).push_back(in_.column(c)[p]);
        }
        for (size_t c = 0; c < fetched.size(); ++c) {
          out->column(in_arity + c).push_back(fetched[c]);
        }
        ++emitted;
      }
    }
    if (emitted == 0) continue;  // every binding in this chunk had no matches
    out->SetPhysicalRows(emitted);
    return true;
  }
}

UnionAllOperator::UnionAllOperator(std::vector<OperatorPtr> inputs)
    : inputs_(std::move(inputs)) {}

std::vector<std::string> UnionAllOperator::columns() const {
  return inputs_.empty() ? std::vector<std::string>{} : inputs_[0]->columns();
}

std::vector<const Operator*> UnionAllOperator::children() const {
  std::vector<const Operator*> out;
  out.reserve(inputs_.size());
  for (const OperatorPtr& in : inputs_) out.push_back(in.get());
  return out;
}

Status UnionAllOperator::Open() {
  if (inputs_.empty()) {
    return Status::InvalidArgument("UnionAll needs at least one input");
  }
  current_ = 0;
  return inputs_[0]->Open();
}

Result<bool> UnionAllOperator::NextBatch(RowBatch* out) {
  // Exhausted (or never opened with inputs): stay at end of stream.
  if (current_ >= inputs_.size()) return false;
  for (;;) {
    ESTOCADA_ASSIGN_OR_RETURN(bool more, inputs_[current_]->NextBatch(out));
    if (more) return true;
    if (++current_ >= inputs_.size()) return false;
    ESTOCADA_RETURN_NOT_OK(inputs_[current_]->Open());
  }
}

// ------------------------------------------------------ Nested / groups --

NestOperator::NestOperator(OperatorPtr input, std::vector<size_t> group_columns,
                           std::string nested_column_name)
    : input_(std::move(input)),
      group_columns_(std::move(group_columns)),
      nested_name_(std::move(nested_column_name)) {}

std::vector<std::string> NestOperator::columns() const {
  std::vector<std::string> in_cols = input_->columns();
  std::vector<std::string> out;
  for (size_t c : group_columns_) {
    out.push_back(c < in_cols.size() ? in_cols[c] : StrCat("c", c));
  }
  out.push_back(nested_name_);
  return out;
}

Result<bool> NestOperator::NextBatch(RowBatch* out) {
  // Open regroups a fresh drain, so the groups can be moved out.
  return EmitSlice(output_, &pos_, columns().size(), /*may_move=*/true, out);
}

std::string NestOperator::label() const {
  return StrCat("Nest group=[", StrJoin(group_columns_, ", "), "] as ",
                nested_name_);
}

Status NestOperator::Open() {
  ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> rows, Collect(input_.get()));
  // Preserve first-seen group order (deterministic output).
  std::unordered_map<Row, size_t, RowHash> group_pos;
  output_.clear();
  std::vector<bool> grouped;
  const size_t in_arity = rows.empty() ? 0 : rows[0].size();
  grouped.assign(in_arity, false);
  for (size_t c : group_columns_) {
    if (!rows.empty() && c >= in_arity) {
      return Status::OutOfRange(StrCat("Nest: group column ", c,
                                       " out of range (arity ", in_arity,
                                       ")"));
    }
    if (c < grouped.size()) grouped[c] = true;
  }
  for (Row& row : rows) {
    Row key;
    key.reserve(group_columns_.size());
    for (size_t c : group_columns_) key.push_back(row[c]);
    Row rest;
    for (size_t i = 0; i < row.size(); ++i) {
      if (!grouped[i]) rest.push_back(row[i]);
    }
    Value rest_value = rest.size() == 1 ? rest[0] : Value::List(rest);
    auto it = group_pos.find(key);
    if (it == group_pos.end()) {
      group_pos.emplace(key, output_.size());
      Row out = key;
      out.push_back(Value::List({rest_value}));
      output_.push_back(std::move(out));
    } else {
      output_[it->second].back().mutable_list().push_back(rest_value);
    }
  }
  pos_ = 0;
  return Status::OK();
}

UnnestOperator::UnnestOperator(OperatorPtr input, size_t list_column)
    : input_(std::move(input)), list_column_(list_column) {}

std::string UnnestOperator::label() const {
  return StrCat("Unnest $", list_column_);
}

Status UnnestOperator::Open() {
  in_.Reset(0);
  in_pos_ = 0;
  elem_pos_ = 0;
  return input_->Open();
}

Result<bool> UnnestOperator::NextBatch(RowBatch* out) {
  for (;;) {
    // Refill only once the current chunk is spent, so an input that has
    // reported end of stream is never pulled again.
    if (in_pos_ >= in_.size()) {
      ESTOCADA_ASSIGN_OR_RETURN(bool more, input_->NextBatch(&in_));
      if (!more) {
        out->Reset(in_.arity());
        return false;
      }
      if (list_column_ >= in_.arity()) {
        return Status::OutOfRange(
            StrCat("Unnest: column ", list_column_, " out of range"));
      }
      in_pos_ = 0;
      elem_pos_ = 0;
    }
    out->Reset(in_.arity());
    size_t emitted = 0;
    while (in_pos_ < in_.size() && emitted < RowBatch::kDefaultRows) {
      const uint32_t p = in_.ActiveIndex(in_pos_);
      const Value& lv = in_.column(list_column_)[p];
      if (!lv.is_list()) {
        return Status::InvalidArgument(StrCat("Unnest: column ", list_column_,
                                              " is not a list: ",
                                              lv.ToString()));
      }
      const std::vector<Value>& elems = lv.list();
      for (; elem_pos_ < elems.size() && emitted < RowBatch::kDefaultRows;
           ++elem_pos_, ++emitted) {
        for (size_t c = 0; c < in_.arity(); ++c) {
          out->column(c).push_back(c == list_column_ ? elems[elem_pos_]
                                                     : in_.column(c)[p]);
        }
      }
      if (elem_pos_ >= elems.size()) {
        ++in_pos_;
        elem_pos_ = 0;
      }
    }
    if (emitted > 0) {
      out->SetPhysicalRows(emitted);
      return true;
    }
  }
}

AggregateOperator::AggregateOperator(OperatorPtr input,
                                     std::vector<size_t> group_columns,
                                     std::vector<AggSpec> aggregates)
    : input_(std::move(input)),
      group_columns_(std::move(group_columns)),
      aggs_(std::move(aggregates)) {}

std::vector<std::string> AggregateOperator::columns() const {
  std::vector<std::string> in_cols = input_->columns();
  std::vector<std::string> out;
  for (size_t c : group_columns_) {
    out.push_back(c < in_cols.size() ? in_cols[c] : StrCat("c", c));
  }
  for (const AggSpec& a : aggs_) out.push_back(a.output_name);
  return out;
}

Result<bool> AggregateOperator::NextBatch(RowBatch* out) {
  // Open re-aggregates a fresh drain, so the groups can be moved out.
  return EmitSlice(output_, &pos_, columns().size(), /*may_move=*/true, out);
}

std::string AggregateOperator::label() const {
  auto fn_name = [](AggFn f) {
    switch (f) {
      case AggFn::kCount: return "count";
      case AggFn::kSum: return "sum";
      case AggFn::kMin: return "min";
      case AggFn::kMax: return "max";
      case AggFn::kAvg: return "avg";
    }
    return "?";
  };
  return StrCat("Aggregate group=[", StrJoin(group_columns_, ", "), "] [",
                StrJoinMapped(aggs_, ", ",
                              [&](const AggSpec& a) {
                                return StrCat(fn_name(a.fn), "($", a.column,
                                              ")");
                              }),
                "]");
}

Status AggregateOperator::Open() {
  ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> rows, Collect(input_.get()));
  struct Acc {
    int64_t count = 0;    ///< All rows (COUNT(*)).
    int64_t nonnull = 0;  ///< Non-null inputs (AVG denominator).
    double sum = 0;
    bool sum_is_int = true;
    int64_t isum = 0;
    std::optional<Value> min;
    std::optional<Value> max;
  };
  std::unordered_map<Row, size_t, RowHash> group_pos;
  std::vector<Row> keys;
  std::vector<std::vector<Acc>> accs;
  for (const Row& row : rows) {
    Row key;
    key.reserve(group_columns_.size());
    for (size_t c : group_columns_) {
      if (c >= row.size()) {
        return Status::OutOfRange(
            StrCat("Aggregate: group column ", c, " out of range"));
      }
      key.push_back(row[c]);
    }
    auto it = group_pos.find(key);
    size_t gi;
    if (it == group_pos.end()) {
      gi = keys.size();
      group_pos.emplace(key, gi);
      keys.push_back(key);
      accs.emplace_back(aggs_.size());
    } else {
      gi = it->second;
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      Acc& acc = accs[gi][a];
      ++acc.count;
      if (aggs_[a].fn == AggFn::kCount) continue;
      if (aggs_[a].column >= row.size()) {
        return Status::OutOfRange(
            StrCat("Aggregate: column ", aggs_[a].column, " out of range"));
      }
      const Value& v = row[aggs_[a].column];
      if (v.is_null()) continue;
      ++acc.nonnull;
      if (aggs_[a].fn == AggFn::kSum || aggs_[a].fn == AggFn::kAvg) {
        if (!v.is_int() && !v.is_real()) {
          return Status::InvalidArgument(
              StrCat("Aggregate: sum/avg over non-numeric ", v.ToString()));
        }
        acc.sum += v.as_real();
        if (v.is_int()) {
          acc.isum += v.int_value();
        } else {
          acc.sum_is_int = false;
        }
      }
      if (!acc.min || Value::Compare(v, *acc.min) < 0) acc.min = v;
      if (!acc.max || Value::Compare(v, *acc.max) > 0) acc.max = v;
    }
  }
  output_.clear();
  for (size_t gi = 0; gi < keys.size(); ++gi) {
    Row out = keys[gi];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const Acc& acc = accs[gi][a];
      switch (aggs_[a].fn) {
        case AggFn::kCount:
          out.push_back(Value::Int(acc.count));
          break;
        case AggFn::kSum:
          out.push_back(acc.sum_is_int ? Value::Int(acc.isum)
                                       : Value::Real(acc.sum));
          break;
        case AggFn::kAvg:
          out.push_back(acc.nonnull == 0
                            ? Value::Null()
                            : Value::Real(acc.sum /
                                          static_cast<double>(acc.nonnull)));
          break;
        case AggFn::kMin:
          out.push_back(acc.min.value_or(Value::Null()));
          break;
        case AggFn::kMax:
          out.push_back(acc.max.value_or(Value::Null()));
          break;
      }
    }
    output_.push_back(std::move(out));
  }
  pos_ = 0;
  return Status::OK();
}

}  // namespace estocada::engine
