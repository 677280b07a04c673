#include "stores/kv_store.h"

#include "common/strings.h"

namespace estocada::stores {

KeyValueStore::KeyValueStore(CostProfile profile) : StoreBase(profile) {}

Status KeyValueStore::CreateCollection(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (collections_.count(name)) {
    return Status::AlreadyExists(
        StrCat("collection '", name, "' already exists"));
  }
  collections_.emplace(name, Collection{});
  return Status::OK();
}

Status KeyValueStore::DropCollection(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (collections_.erase(name) == 0) {
    return Status::NotFound(StrCat("collection '", name, "' does not exist"));
  }
  return Status::OK();
}

bool KeyValueStore::HasCollection(const std::string& name) const {
  return collections_.count(name) > 0;
}

Result<const KeyValueStore::Collection*> KeyValueStore::GetCollection(
    const std::string& name) const {
  return FindContainer(collections_, name, "collection");
}

Status KeyValueStore::Put(const std::string& collection, const std::string& key,
                          std::string value) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  ESTOCADA_ASSIGN_OR_RETURN(
      Collection * c, FindContainer(collections_, collection, "collection"));
  Charge(nullptr, 1, 0, 1, 0);
  c->Put(key, std::move(value));
  return Status::OK();
}

Status KeyValueStore::BulkLoad(
    const std::string& collection,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  ESTOCADA_ASSIGN_OR_RETURN(
      Collection * c, FindContainer(collections_, collection, "collection"));
  // Cost parity with entries.size() individual Puts.
  Charge(nullptr, entries.size(), 0, entries.size(), 0);
  c->BulkLoad(entries);
  return c->Verify();
}

Result<std::string> KeyValueStore::Get(const std::string& collection,
                                       const std::string& key,
                                       StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Collection* c, GetCollection(collection));
  Charge(stats, 1, 0, 1, 0);
  const std::string* v = c->Find(key);
  if (v == nullptr) {
    return Status::NotFound(
        StrCat("key '", key, "' not in collection '", collection, "'"));
  }
  Charge(stats, 0, 0, 0, 1);
  return *v;
}

Result<std::vector<std::optional<std::string>>> KeyValueStore::MGet(
    const std::string& collection, const std::vector<std::string>& keys,
    StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Collection* c, GetCollection(collection));
  std::vector<std::optional<std::string>> out;
  out.reserve(keys.size());
  uint64_t returned = 0;
  for (const std::string& k : keys) {
    const std::string* v = c->Find(k);
    if (v == nullptr) {
      out.emplace_back(std::nullopt);
    } else {
      out.emplace_back(*v);
      ++returned;
    }
  }
  Charge(stats, 1, 0, keys.size(), returned);
  return out;
}

Status KeyValueStore::Delete(const std::string& collection,
                             const std::string& key) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  ESTOCADA_ASSIGN_OR_RETURN(
      Collection * c, FindContainer(collections_, collection, "collection"));
  Charge(nullptr, 1, 0, 1, 0);
  if (!c->Erase(key)) {
    return Status::NotFound(
        StrCat("key '", key, "' not in collection '", collection, "'"));
  }
  return Status::OK();
}

Result<std::vector<std::pair<std::string, std::string>>> KeyValueStore::Scan(
    const std::string& collection, StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Collection* c, GetCollection(collection));
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(c->size());
  c->ForEach([&out](const std::string& k, const std::string& v) {
    out.emplace_back(k, v);
  });
  Charge(stats, 1, c->size(), 0, c->size());
  return out;
}

Result<size_t> KeyValueStore::Size(const std::string& collection) const {
  ESTOCADA_ASSIGN_OR_RETURN(const Collection* c, GetCollection(collection));
  return c->size();
}

}  // namespace estocada::stores
