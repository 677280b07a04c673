#include "stores/parallel_store.h"

#include <algorithm>
#include <atomic>

#include "common/strings.h"

namespace estocada::stores {

using engine::Row;
using engine::Value;

// Scans are partition-parallel: the per-row cost amortizes across the
// worker pool (that is the whole point of delegating bulk work here).
ParallelStore::ParallelStore(size_t workers, CostProfile profile)
    : StoreBase(profile, static_cast<double>(std::max<size_t>(workers, 1))),
      pool_(std::make_unique<ThreadPool>(workers)) {}

Status ParallelStore::CreateRelation(const std::string& name, size_t arity,
                                     size_t partitions) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (relations_.count(name)) {
    return Status::AlreadyExists(
        StrCat("relation '", name, "' already exists"));
  }
  if (arity == 0 || partitions == 0) {
    return Status::InvalidArgument(
        "relation needs arity >= 1 and partitions >= 1");
  }
  Relation r;
  r.arity = arity;
  r.partitions.resize(partitions);
  relations_.emplace(name, std::move(r));
  return Status::OK();
}

Status ParallelStore::DropRelation(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (relations_.erase(name) == 0) {
    return Status::NotFound(StrCat("relation '", name, "' does not exist"));
  }
  return Status::OK();
}

bool ParallelStore::HasRelation(const std::string& name) const {
  return relations_.count(name) > 0;
}

Result<const ParallelStore::Relation*> ParallelStore::GetRelation(
    const std::string& name) const {
  return FindContainer(relations_, name, "relation");
}

Result<ParallelStore::Relation*> ParallelStore::GetMutableRelation(
    const std::string& name) {
  return FindContainer(relations_, name, "relation");
}

std::string ParallelStore::IndexKey(const std::vector<size_t>& columns) {
  return StrJoin(columns, ",");
}

Status ParallelStore::Insert(const std::string& relation, Row row) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  ESTOCADA_ASSIGN_OR_RETURN(Relation * r, GetMutableRelation(relation));
  if (row.size() != r->arity) {
    return Status::InvalidArgument(
        StrCat("relation '", relation, "' expects arity ", r->arity,
               ", got ", row.size()));
  }
  size_t part = row[0].Hash() % r->partitions.size();
  size_t offset = r->partitions[part].size();
  for (auto& [cols_key, index] : r->indexes) {
    // Recover column positions from the key.
    Row key;
    for (const std::string& c : StrSplit(cols_key, ',')) {
      key.push_back(row[static_cast<size_t>(std::stoul(c))]);
    }
    index[key].emplace_back(part, offset);
  }
  r->partitions[part].push_back(std::move(row));
  ++r->row_count;
  return Status::OK();
}

Status ParallelStore::InsertBatch(const std::string& relation,
                                  std::vector<Row> rows) {
  for (Row& row : rows) {
    ESTOCADA_RETURN_NOT_OK(Insert(relation, std::move(row)));
  }
  return Status::OK();
}

Result<std::vector<Row>> ParallelStore::ParallelScan(
    const std::string& relation,
    const std::function<bool(const Row&)>& predicate,
    const std::vector<size_t>& projection, StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Relation* r, GetRelation(relation));
  for (size_t col : projection) {
    if (col >= r->arity) {
      return Status::OutOfRange(
          StrCat("projection column ", col, " out of range for '", relation,
                 "'"));
    }
  }
  const size_t parts = r->partitions.size();
  std::vector<std::vector<Row>> partial(parts);
  std::atomic<uint64_t> scanned{0};
  for (size_t p = 0; p < parts; ++p) {
    pool_->Submit([&, p] {
      const auto& rows = r->partitions[p];
      auto& out = partial[p];
      uint64_t local_scanned = 0;
      for (const Row& row : rows) {
        ++local_scanned;
        if (predicate && !predicate(row)) continue;
        if (projection.empty()) {
          out.push_back(row);
        } else {
          Row projected;
          projected.reserve(projection.size());
          for (size_t col : projection) projected.push_back(row[col]);
          out.push_back(std::move(projected));
        }
      }
      scanned.fetch_add(local_scanned, std::memory_order_relaxed);
    });
  }
  pool_->WaitIdle();
  std::vector<Row> results;
  for (auto& part : partial) {
    results.insert(results.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  Charge(stats, 1, scanned.load(), 0, results.size());
  return results;
}

Status ParallelStore::CreateIndex(const std::string& relation,
                                  const std::vector<size_t>& columns) {
  ESTOCADA_ASSIGN_OR_RETURN(Relation * r, GetMutableRelation(relation));
  if (columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  for (size_t col : columns) {
    if (col >= r->arity) {
      return Status::OutOfRange(
          StrCat("index column ", col, " out of range for '", relation, "'"));
    }
  }
  std::string key = IndexKey(columns);
  if (r->indexes.count(key)) {
    return Status::AlreadyExists(
        StrCat("index (", key, ") already exists on '", relation, "'"));
  }
  auto& index = r->indexes[key];
  for (size_t p = 0; p < r->partitions.size(); ++p) {
    for (size_t o = 0; o < r->partitions[p].size(); ++o) {
      const Row& row = r->partitions[p][o];
      Row k;
      k.reserve(columns.size());
      for (size_t col : columns) k.push_back(row[col]);
      index[k].emplace_back(p, o);
    }
  }
  return Status::OK();
}

Result<std::vector<Row>> ParallelStore::IndexLookup(
    const std::string& relation, const std::vector<size_t>& columns,
    const Row& key, StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Relation* r, GetRelation(relation));
  auto it = r->indexes.find(IndexKey(columns));
  if (it == r->indexes.end()) {
    return Status::NotFound(
        StrCat("no index (", IndexKey(columns), ") on '", relation, "'"));
  }
  std::vector<Row> out;
  auto hit = it->second.find(key);
  if (hit != it->second.end()) {
    out.reserve(hit->second.size());
    for (const auto& [p, o] : hit->second) {
      out.push_back(r->partitions[p][o]);
    }
  }
  Charge(stats, 1, 0, 1, out.size());
  return out;
}

Result<std::vector<std::vector<Row>>> ParallelStore::IndexLookupMany(
    const std::string& relation, const std::vector<size_t>& columns,
    const std::vector<Row>& keys, StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Relation* r, GetRelation(relation));
  auto it = r->indexes.find(IndexKey(columns));
  if (it == r->indexes.end()) {
    return Status::NotFound(
        StrCat("no index (", IndexKey(columns), ") on '", relation, "'"));
  }
  std::vector<std::vector<Row>> out;
  out.reserve(keys.size());
  uint64_t returned = 0;
  for (const Row& key : keys) {
    std::vector<Row>& matches = out.emplace_back();
    auto hit = it->second.find(key);
    if (hit != it->second.end()) {
      matches.reserve(hit->second.size());
      for (const auto& [p, o] : hit->second) {
        matches.push_back(r->partitions[p][o]);
      }
      returned += matches.size();
    }
  }
  Charge(stats, 1, 0, keys.size(), returned);
  return out;
}

Result<size_t> ParallelStore::RowCount(const std::string& relation) const {
  ESTOCADA_ASSIGN_OR_RETURN(const Relation* r, GetRelation(relation));
  return r->row_count;
}

Result<size_t> ParallelStore::Arity(const std::string& relation) const {
  ESTOCADA_ASSIGN_OR_RETURN(const Relation* r, GetRelation(relation));
  return r->arity;
}

}  // namespace estocada::stores
