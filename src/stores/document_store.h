#ifndef ESTOCADA_STORES_DOCUMENT_STORE_H_
#define ESTOCADA_STORES_DOCUMENT_STORE_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "json/json.h"
#include "stores/store_stats.h"

namespace estocada::stores {

/// Comparison operators supported by document path predicates.
enum class DocOp { kEq, kLt, kLe, kGt, kGe };

/// One predicate over a dotted document path ("user.address.city" = X).
struct PathPredicate {
  std::string path;
  DocOp op = DocOp::kEq;
  json::JsonValue value;
};

/// Document store standing in for the paper's MongoDB: named collections
/// of JSON documents addressed by a string `_id`, conjunctive find() over
/// dotted path predicates, optional per-path hash indexes — and *no*
/// joins, the feature boundary the rewriting layer must respect when
/// delegating (single-collection filters go down, joins stay up).
class DocumentStore : public StoreBase {
 public:
  /// Default profile: BSON-protocol round trip + per-document match cost.
  explicit DocumentStore(CostProfile profile = kDocumentBlueprint);

  Status CreateCollection(const std::string& name);
  Status DropCollection(const std::string& name);
  bool HasCollection(const std::string& name) const;

  /// Inserts a document. If it has a string "_id" member that id is used
  /// (must be unique); otherwise one is generated ("doc<N>"). Returns the
  /// id.
  Result<std::string> Insert(const std::string& collection,
                             json::JsonValue document);

  /// Point lookup by document id.
  Result<json::JsonValue> FindById(const std::string& collection,
                                   const std::string& id,
                                   StoreStats* stats = nullptr) const;

  /// Batched point lookup: one round trip covering all `ids`, missing ids
  /// yield nullopt at their position (mirrors KeyValueStore::MGet). Charged
  /// as one operation plus one index touch per id.
  Result<std::vector<std::optional<json::JsonValue>>> FindByIdMany(
      const std::string& collection, const std::vector<std::string>& ids,
      StoreStats* stats = nullptr) const;

  /// Conjunctive find: all documents satisfying every predicate. Equality
  /// predicates on indexed paths use the index; everything else scans.
  Result<std::vector<json::JsonValue>> Find(
      const std::string& collection,
      const std::vector<PathPredicate>& predicates,
      StoreStats* stats = nullptr) const;

  Status Remove(const std::string& collection, const std::string& id);

  /// Hash index over the value at `path` (array values index each
  /// element, Mongo-style multikey).
  Status CreatePathIndex(const std::string& collection,
                         const std::string& path);

  Result<size_t> Count(const std::string& collection) const;


 private:
  struct Collection {
    /// id -> document; std::map for deterministic iteration.
    std::map<std::string, json::JsonValue> docs;
    /// path -> (json::KeyText of the value -> doc ids).
    std::map<std::string,
             std::unordered_map<std::string, std::vector<std::string>>>
        path_indexes;
    uint64_t next_generated_id = 0;
  };

  Result<const Collection*> GetCollection(const std::string& name) const;
  Result<Collection*> GetMutableCollection(const std::string& name);


  std::map<std::string, Collection> collections_;
};

/// True iff `doc` satisfies `pred` (missing path = no match; array values
/// match if any element matches, Mongo semantics).
bool MatchesPredicate(const json::JsonValue& doc, const PathPredicate& pred);

}  // namespace estocada::stores

#endif  // ESTOCADA_STORES_DOCUMENT_STORE_H_
