#include "stores/document_store.h"

#include <algorithm>

#include "common/strings.h"

namespace estocada::stores {

using json::JsonValue;

namespace {

bool CompareWithOp(const JsonValue& lhs, DocOp op, const JsonValue& rhs) {
  // Numbers compare numerically across int/double; other kinds compare
  // only within their own kind.
  int c;
  if (lhs.is_number() && rhs.is_number()) {
    double a = lhs.as_double();
    double b = rhs.as_double();
    c = a < b ? -1 : (a > b ? 1 : 0);
  } else if (lhs.kind() != rhs.kind()) {
    return false;
  } else {
    c = JsonValue::Compare(lhs, rhs);
  }
  switch (op) {
    case DocOp::kEq:
      return c == 0;
    case DocOp::kLt:
      return c < 0;
    case DocOp::kLe:
      return c <= 0;
    case DocOp::kGt:
      return c > 0;
    case DocOp::kGe:
      return c >= 0;
  }
  return false;
}

}  // namespace

bool MatchesPredicate(const JsonValue& doc, const PathPredicate& pred) {
  const JsonValue* v = doc.FindPath(pred.path);
  if (v == nullptr) return false;
  if (v->is_array()) {
    for (const JsonValue& e : v->array()) {
      if (CompareWithOp(e, pred.op, pred.value)) return true;
    }
    return false;
  }
  return CompareWithOp(*v, pred.op, pred.value);
}

DocumentStore::DocumentStore(CostProfile profile) : StoreBase(profile) {}

Status DocumentStore::CreateCollection(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (collections_.count(name)) {
    return Status::AlreadyExists(
        StrCat("collection '", name, "' already exists"));
  }
  collections_.emplace(name, Collection{});
  return Status::OK();
}

Status DocumentStore::DropCollection(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (collections_.erase(name) == 0) {
    return Status::NotFound(StrCat("collection '", name, "' does not exist"));
  }
  return Status::OK();
}

bool DocumentStore::HasCollection(const std::string& name) const {
  return collections_.count(name) > 0;
}

Result<const DocumentStore::Collection*> DocumentStore::GetCollection(
    const std::string& name) const {
  return FindContainer(collections_, name, "collection");
}

Result<DocumentStore::Collection*> DocumentStore::GetMutableCollection(
    const std::string& name) {
  return FindContainer(collections_, name, "collection");
}

namespace {

/// Index keys for the value at `path` within `doc`: one per array element
/// (multikey) or a single one for scalars/objects. Empty if path missing.
std::vector<std::string> IndexKeysFor(const JsonValue& doc,
                                      const std::string& path) {
  const JsonValue* v = doc.FindPath(path);
  if (v == nullptr) return {};
  std::vector<std::string> keys;
  if (v->is_array()) {
    for (const JsonValue& e : v->array()) keys.push_back(json::KeyText(e));
  } else {
    keys.push_back(json::KeyText(*v));
  }
  return keys;
}

}  // namespace

Result<std::string> DocumentStore::Insert(const std::string& collection,
                                          JsonValue document) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  ESTOCADA_ASSIGN_OR_RETURN(Collection * c, GetMutableCollection(collection));
  std::string id;
  if (const JsonValue* idv = document.Find("_id");
      idv != nullptr && idv->is_string()) {
    id = idv->string_value();
  } else {
    id = StrCat("doc", c->next_generated_id++);
    if (document.is_object()) {
      document.Set("_id", JsonValue::Str(id));
    }
  }
  if (c->docs.count(id)) {
    return Status::AlreadyExists(
        StrCat("document '", id, "' already in collection '", collection,
               "'"));
  }
  Charge(nullptr, 1, 0, 1, 0);
  for (auto& [path, index] : c->path_indexes) {
    for (const std::string& key : IndexKeysFor(document, path)) {
      index[key].push_back(id);
    }
  }
  c->docs.emplace(id, std::move(document));
  return id;
}

Result<JsonValue> DocumentStore::FindById(const std::string& collection,
                                          const std::string& id,
                                          StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Collection* c, GetCollection(collection));
  Charge(stats, 1, 0, 1, 0);
  auto it = c->docs.find(id);
  if (it == c->docs.end()) {
    return Status::NotFound(
        StrCat("document '", id, "' not in collection '", collection, "'"));
  }
  Charge(stats, 0, 0, 0, 1);
  return it->second;
}

Result<std::vector<std::optional<JsonValue>>> DocumentStore::FindByIdMany(
    const std::string& collection, const std::vector<std::string>& ids,
    StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Collection* c, GetCollection(collection));
  std::vector<std::optional<JsonValue>> out;
  out.reserve(ids.size());
  uint64_t returned = 0;
  for (const std::string& id : ids) {
    auto it = c->docs.find(id);
    if (it == c->docs.end()) {
      out.emplace_back(std::nullopt);
    } else {
      out.emplace_back(it->second);
      ++returned;
    }
  }
  Charge(stats, 1, 0, ids.size(), returned);
  return out;
}

Result<std::vector<JsonValue>> DocumentStore::Find(
    const std::string& collection,
    const std::vector<PathPredicate>& predicates, StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Collection* c, GetCollection(collection));
  uint64_t scanned = 0;
  uint64_t lookups = 0;
  std::vector<JsonValue> out;

  // Pick an indexed equality predicate if one exists.
  const PathPredicate* indexed = nullptr;
  for (const PathPredicate& p : predicates) {
    if (p.op == DocOp::kEq && c->path_indexes.count(p.path)) {
      indexed = &p;
      break;
    }
  }
  auto matches_all = [&](const JsonValue& doc) {
    for (const PathPredicate& p : predicates) {
      if (!MatchesPredicate(doc, p)) return false;
    }
    return true;
  };
  if (indexed != nullptr) {
    ++lookups;
    const auto& index = c->path_indexes.at(indexed->path);
    auto hit = index.find(json::KeyText(indexed->value));
    if (hit != index.end()) {
      for (const std::string& id : hit->second) {
        auto dit = c->docs.find(id);
        if (dit == c->docs.end()) continue;  // Removed since indexing.
        ++scanned;
        if (matches_all(dit->second)) out.push_back(dit->second);
      }
    }
  } else {
    for (const auto& [id, doc] : c->docs) {
      ++scanned;
      if (matches_all(doc)) out.push_back(doc);
    }
  }
  Charge(stats, 1, scanned, lookups, out.size());
  return out;
}

Status DocumentStore::Remove(const std::string& collection,
                             const std::string& id) {
  ESTOCADA_ASSIGN_OR_RETURN(Collection * c, GetMutableCollection(collection));
  auto it = c->docs.find(id);
  if (it == c->docs.end()) {
    return Status::NotFound(
        StrCat("document '", id, "' not in collection '", collection, "'"));
  }
  Charge(nullptr, 1, 0, 1, 0);
  for (auto& [path, index] : c->path_indexes) {
    for (const std::string& key : IndexKeysFor(it->second, path)) {
      auto hit = index.find(key);
      if (hit == index.end()) continue;
      auto& ids = hit->second;
      ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    }
  }
  c->docs.erase(it);
  return Status::OK();
}

Status DocumentStore::CreatePathIndex(const std::string& collection,
                                      const std::string& path) {
  ESTOCADA_ASSIGN_OR_RETURN(Collection * c, GetMutableCollection(collection));
  if (c->path_indexes.count(path)) {
    return Status::AlreadyExists(
        StrCat("index on '", path, "' already exists in '", collection, "'"));
  }
  auto& index = c->path_indexes[path];
  for (const auto& [id, doc] : c->docs) {
    for (const std::string& key : IndexKeysFor(doc, path)) {
      index[key].push_back(id);
    }
  }
  return Status::OK();
}

Result<size_t> DocumentStore::Count(const std::string& collection) const {
  ESTOCADA_ASSIGN_OR_RETURN(const Collection* c, GetCollection(collection));
  return c->docs.size();
}

}  // namespace estocada::stores
