#include "stores/text_store.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace estocada::stores {

TextStore::TextStore(CostProfile profile) : StoreBase(profile) {}

std::vector<std::string> TextStore::Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

Status TextStore::CreateCore(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (cores_.count(name)) {
    return Status::AlreadyExists(StrCat("core '", name, "' already exists"));
  }
  cores_.emplace(name, Core{});
  return Status::OK();
}

Status TextStore::DropCore(const std::string& name) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  if (cores_.erase(name) == 0) {
    return Status::NotFound(StrCat("core '", name, "' does not exist"));
  }
  return Status::OK();
}

Result<const TextStore::Core*> TextStore::GetCore(
    const std::string& name) const {
  return FindContainer(cores_, name, "core");
}

Status TextStore::AddDocument(
    const std::string& core, const std::string& doc_id,
    const std::map<std::string, std::string>& fields) {
  ESTOCADA_RETURN_NOT_OK(InjectWriteFault());
  ESTOCADA_ASSIGN_OR_RETURN(Core * c, FindContainer(cores_, core, "core"));
  if (c->docs.count(doc_id)) {
    return Status::AlreadyExists(
        StrCat("document '", doc_id, "' already in core '", core, "'"));
  }
  Charge(nullptr, 1, 0, 1, 0);
  std::vector<std::string> seen;  // Avoid duplicate postings per doc.
  for (const auto& [field, text] : fields) {
    for (const std::string& tok : Tokenize(text)) {
      if (std::find(seen.begin(), seen.end(), tok) == seen.end()) {
        c->inverted[tok].push_back(doc_id);
        seen.push_back(tok);
      }
    }
  }
  c->docs.emplace(doc_id, fields);
  return Status::OK();
}

Result<std::vector<std::string>> TextStore::Search(
    const std::string& core, const std::vector<std::string>& terms,
    StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Core* c, GetCore(core));
  if (terms.empty()) {
    return Status::InvalidArgument("search needs at least one term");
  }
  // Normalize the query terms the same way documents were tokenized.
  std::vector<std::string> norm;
  for (const std::string& t : terms) {
    for (const std::string& tok : Tokenize(t)) norm.push_back(tok);
  }
  if (norm.empty()) {
    return Status::InvalidArgument("search terms tokenize to nothing");
  }
  uint64_t scanned = 0;
  std::vector<std::string> result;
  bool first = true;
  for (const std::string& term : norm) {
    auto hit = c->inverted.find(term);
    std::vector<std::string> postings =
        hit == c->inverted.end() ? std::vector<std::string>{} : hit->second;
    std::sort(postings.begin(), postings.end());
    scanned += postings.size();
    if (first) {
      result = std::move(postings);
      first = false;
    } else {
      std::vector<std::string> merged;
      std::set_intersection(result.begin(), result.end(), postings.begin(),
                            postings.end(), std::back_inserter(merged));
      result = std::move(merged);
    }
    if (result.empty()) break;
  }
  Charge(stats, 1, scanned, norm.size(), result.size());
  return result;
}

Result<std::vector<std::vector<std::string>>> TextStore::SearchMany(
    const std::string& core,
    const std::vector<std::vector<std::string>>& queries,
    StoreStats* stats) const {
  std::vector<std::vector<std::string>> out;
  out.reserve(queries.size());
  for (const std::vector<std::string>& terms : queries) {
    ESTOCADA_ASSIGN_OR_RETURN(std::vector<std::string> ids,
                              Search(core, terms, stats));
    out.push_back(std::move(ids));
  }
  return out;
}

Result<std::map<std::string, std::string>> TextStore::GetDocument(
    const std::string& core, const std::string& doc_id,
    StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Core* c, GetCore(core));
  Charge(stats, 1, 0, 1, 0);
  auto it = c->docs.find(doc_id);
  if (it == c->docs.end()) {
    return Status::NotFound(
        StrCat("document '", doc_id, "' not in core '", core, "'"));
  }
  Charge(stats, 0, 0, 0, 1);
  return it->second;
}

Result<std::map<std::string, std::map<std::string, std::string>>>
TextStore::Scan(const std::string& core, StoreStats* stats) const {
  ESTOCADA_RETURN_NOT_OK(InjectReadFault());
  ESTOCADA_ASSIGN_OR_RETURN(const Core* c, GetCore(core));
  Charge(stats, 1, c->docs.size(), 0, c->docs.size());
  return c->docs;
}

Result<size_t> TextStore::DocumentCount(const std::string& core) const {
  ESTOCADA_ASSIGN_OR_RETURN(const Core* c, GetCore(core));
  return c->docs.size();
}

}  // namespace estocada::stores
