#include "stores/parallel_store.h"

#include <algorithm>

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

Result<const ParallelStore::Index*> ParallelStore::GetIndex(
    const Relation& r, const std::string& relation,
    const std::vector<size_t>& columns) {
  auto it = r.indexes.find(columns);
  if (it == r.indexes.end()) {
    return Status::NotFound(StrCat("no index (", StrJoin(columns, ","),
                                   ") on '", relation, "'"));
  }
  return &it->second;
}

namespace {

/// Appends the rows of `rows` that pass `keep` to `out`, projected onto
/// `projection` (empty = every column).
template <typename Keep>
void ScanInto(const std::vector<Row>& rows, const Keep& keep,
              const std::vector<size_t>& projection, std::vector<Row>* out) {
  for (const Row& row : rows) {
    if (!keep(row)) continue;
    if (projection.empty()) {
      out->push_back(row);
      continue;
    }
    Row projected;
    projected.reserve(projection.size());
    for (size_t col : projection) projected.push_back(row[col]);
    out->push_back(std::move(projected));
  }
}

}  // namespace

Status ParallelStore::Insert(const std::string& relation, Row row) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  ESTOCADA_ASSIGN_OR_RETURN(Relation * r, GetMutableRelation(relation));
  if (row.size() != r->arity) {
    return Status::InvalidArgument(
        StrCat("relation '", relation, "' expects arity ", r->arity,
               ", got ", row.size()));
  }
  size_t part = r->PartitionOf(row[0]);
  size_t offset = r->partitions[part].size();
  for (auto& [columns, index] : r->indexes) {
    Row key;
    key.reserve(columns.size());
    for (size_t col : columns) key.push_back(row[col]);
    index[std::move(key)].emplace_back(part, offset);
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
  auto keep = [&predicate](const Row& row) {
    return !predicate || predicate(row);
  };
  const size_t parts = r->partitions.size();
  std::vector<std::vector<Row>> partial(parts);
  for (size_t p = 0; p < parts; ++p) {
    pool_->Submit([&, p] {
      ScanInto(r->partitions[p], keep, projection, &partial[p]);
    });
  }
  pool_->WaitIdle();
  std::vector<Row> results;
  for (auto& part : partial) {
    results.insert(results.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  Charge(stats, 1, r->row_count, 0, results.size());
  return results;
}

Result<std::vector<Row>> ParallelStore::PartitionScan(
    const std::string& relation, const Value& key,
    const std::function<bool(const Row&)>& predicate,
    StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Relation* r, GetRelation(relation));
  const std::vector<Row>& rows = r->partitions[r->PartitionOf(key)];
  std::vector<Row> results;
  ScanInto(
      rows,
      [&](const Row& row) {
        return row[0] == key && (!predicate || predicate(row));
      },
      {}, &results);
  Charge(stats, 1, rows.size(), 0, results.size());
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
  if (r->indexes.count(columns)) {
    return Status::AlreadyExists(StrCat("index (", StrJoin(columns, ","),
                                        ") already exists on '", relation,
                                        "'"));
  }
  Index& index = r->indexes[columns];
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
  ESTOCADA_ASSIGN_OR_RETURN(const Index* index,
                            GetIndex(*r, relation, columns));
  std::vector<Row> out;
  auto hit = index->find(key);
  if (hit != index->end()) {
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
  ESTOCADA_ASSIGN_OR_RETURN(const Index* index,
                            GetIndex(*r, relation, columns));
  std::vector<std::vector<Row>> out;
  out.reserve(keys.size());
  uint64_t returned = 0;
  for (const Row& key : keys) {
    std::vector<Row>& matches = out.emplace_back();
    auto hit = index->find(key);
    if (hit != index->end()) {
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
