#ifndef ESTOCADA_STORES_KV_STORE_H_
#define ESTOCADA_STORES_KV_STORE_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "stores/open_hash.h"
#include "stores/store_stats.h"

namespace estocada::stores {

/// Key-value store standing in for the paper's Redis/Voldemort: named
/// collections of string key → string value pairs, O(1) Get/Put/Delete and
/// batched MGet. Deliberately *no* secondary predicates and no joins — the
/// only way in is by key, which is exactly the access-pattern restriction
/// the pivot model encodes with an input-adorned key position. A full Scan
/// exists (the stores are slave systems, ESTOCADA may bulk-load from them)
/// but costs proportionally to the collection.
class KeyValueStore : public StoreBase {
 public:
  /// Default profile models a lightweight binary-protocol round trip —
  /// the cheap-lookup blueprint that motivates the §II migration.
  explicit KeyValueStore(CostProfile profile = kKeyValueBlueprint);

  Status CreateCollection(const std::string& name);
  Status DropCollection(const std::string& name);
  bool HasCollection(const std::string& name) const;

  /// Upserts `key` in `collection`.
  Status Put(const std::string& collection, const std::string& key,
             std::string value);

  /// Bulk-loads `entries` into `collection` in one call: the table is
  /// pre-sized for the whole batch (no mid-load rehash) and every loaded
  /// key is re-probed afterwards (Verify). Charges exactly what the same
  /// entries written through per-key Put would — one operation and one
  /// index touch per entry — so migration cost accounting is unchanged.
  Status BulkLoad(const std::string& collection,
                  const std::vector<std::pair<std::string, std::string>>& entries);

  /// Point lookup; kNotFound when absent.
  Result<std::string> Get(const std::string& collection, const std::string& key,
                          StoreStats* stats = nullptr) const;

  /// Batched lookup; missing keys yield nullopt at their position. One
  /// round trip, one index access per key.
  Result<std::vector<std::optional<std::string>>> MGet(
      const std::string& collection, const std::vector<std::string>& keys,
      StoreStats* stats = nullptr) const;

  Status Delete(const std::string& collection, const std::string& key);

  /// Full dump of a collection in unspecified order. Expensive by design.
  Result<std::vector<std::pair<std::string, std::string>>> Scan(
      const std::string& collection, StoreStats* stats = nullptr) const;

  Result<size_t> Size(const std::string& collection) const;


 private:
  /// Flat open-addressing table (see open_hash.h) — the per-key hot path
  /// behind Get/MGet is a contiguous linear probe, not a bucket-list chase.
  using Collection = OpenHashMap;

  Result<const Collection*> GetCollection(const std::string& name) const;


  std::map<std::string, Collection> collections_;
};

}  // namespace estocada::stores

#endif  // ESTOCADA_STORES_KV_STORE_H_
