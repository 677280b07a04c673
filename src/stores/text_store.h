#ifndef ESTOCADA_STORES_TEXT_STORE_H_
#define ESTOCADA_STORES_TEXT_STORE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "stores/store_stats.h"

namespace estocada::stores {

/// Full-text store standing in for the paper's SOLR/Lucene: named cores of
/// documents with string fields, an inverted index (term -> postings) per
/// core built at AddDocument time, and conjunctive term search with
/// postings-intersection. Tokenization is lowercase alphanumeric-run
/// splitting. This is the store the product-catalog fragment lives in.
class TextStore : public StoreBase {
 public:
  /// Default profile: search-server round trip + per-posting cost.
  explicit TextStore(CostProfile profile = kTextBlueprint);

  Status CreateCore(const std::string& name);
  Status DropCore(const std::string& name);

  /// Indexes a document: every field's text is tokenized into the core's
  /// inverted index. Re-adding an existing id fails.
  Status AddDocument(const std::string& core, const std::string& doc_id,
                     const std::map<std::string, std::string>& fields);

  /// Conjunctive search: ids of documents containing *all* `terms`
  /// (across any field). Terms are tokenized/lowercased the same way as
  /// documents. Sorted by id for determinism.
  Result<std::vector<std::string>> Search(const std::string& core,
                                          const std::vector<std::string>& terms,
                                          StoreStats* stats = nullptr) const;

  /// Batched search: result i holds Search(core, queries[i]). One client
  /// round trip; each query is still charged exactly like a standalone
  /// Search (the inverted-index work is per query, not amortizable).
  Result<std::vector<std::vector<std::string>>> SearchMany(
      const std::string& core,
      const std::vector<std::vector<std::string>>& queries,
      StoreStats* stats = nullptr) const;

  /// Stored field retrieval.
  Result<std::map<std::string, std::string>> GetDocument(
      const std::string& core, const std::string& doc_id,
      StoreStats* stats = nullptr) const;

  /// Every document of `core` (id -> stored fields). Expensive by design:
  /// one operation scanning and returning every document.
  Result<std::map<std::string, std::map<std::string, std::string>>> Scan(
      const std::string& core, StoreStats* stats = nullptr) const;

  Result<size_t> DocumentCount(const std::string& core) const;


  /// Lowercase alphanumeric tokens of `text`.
  static std::vector<std::string> Tokenize(const std::string& text);

 private:
  struct Core {
    std::map<std::string, std::map<std::string, std::string>> docs;
    std::unordered_map<std::string, std::vector<std::string>> inverted;
  };

  Result<const Core*> GetCore(const std::string& name) const;


  std::map<std::string, Core> cores_;
};

}  // namespace estocada::stores

#endif  // ESTOCADA_STORES_TEXT_STORE_H_
