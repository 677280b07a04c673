// Text fragments (arity 2: docID, term): one core per container, one core
// document per distinct docID (id = the JSON text of the docID) with two
// fields: "text", every term's search text joined by spaces (what the
// inverted index tokenizes), and "terms", the JSON list of the exact term
// values. A search by the bound term's tokens yields candidate documents;
// only their rows holding exactly the bound term answer, so tokenizing
// never widens or merges terms. Postings are immutable: containers are
// rebuilt, never appended to.

#include <map>

#include "common/strings.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {
namespace {

using engine::Row;
using engine::Value;

/// The text a term is indexed and searched by. Numbers use their key
/// text, so terms that compare equal (1 and 1.0) tokenize alike.
std::string SearchText(const Value& term) {
  return term.is_string() ? term.string_value() : json::KeyText(term.ToJson());
}

/// Appends the rows of stored document `id` to `out`.
Status DecodeDocument(const std::string& id,
                      const std::map<std::string, std::string>& fields,
                      std::vector<Row>* out) {
  auto it = fields.find("terms");
  if (it == fields.end()) {
    return Status::Internal(
        StrCat("text fragment document ", id, " has no terms field"));
  }
  ESTOCADA_ASSIGN_OR_RETURN(Value doc_id, ParseStoredJson(id));
  ESTOCADA_ASSIGN_OR_RETURN(Value terms, ParseStoredJson(it->second));
  if (!terms.is_list()) {
    return Status::Internal("corrupt text fragment document");
  }
  for (const Value& term : terms.list()) out->push_back({doc_id, term});
  return Status::OK();
}

class Driver : public StoreDriver {
 public:
  Driver() : StoreDriver(stores::kTextBlueprint) {}

  bool appends() const override { return false; }

  Status Load(const Placement& p, const std::vector<Row>& rows) const override {
    if (p.desc.view.arity() != 2) {
      return Status::InvalidArgument(StrCat(
          "text fragment '", p.desc.name(),
          "' must have arity 2 (docID, term), got ", p.desc.view.arity()));
    }
    ESTOCADA_RETURN_NOT_OK(p.store.text->CreateCore(p.container));
    std::map<std::string, std::vector<const Value*>> terms_per_doc;
    for (const Row& row : rows) {
      terms_per_doc[row[0].ToJson().Serialize()].push_back(&row[1]);
    }
    for (const auto& [id, terms] : terms_per_doc) {
      std::string text;
      json::JsonValue exact = json::JsonValue::MakeArray();
      for (const Value* term : terms) {
        if (!text.empty()) text += ' ';
        text += SearchText(*term);
        exact.Append(term->ToJson());
      }
      ESTOCADA_RETURN_NOT_OK(p.store.text->AddDocument(
          p.container, id, {{"text", text}, {"terms", exact.Serialize()}}));
    }
    return Status::OK();
  }

  Status Append(const Placement&, const std::vector<Row>&) const override {
    return Status::Unsupported("text fragments are rebuilt, not appended");
  }

  Status Drop(const Placement& p) const override {
    return p.store.text->DropCore(p.container);
  }

  Result<std::vector<Row>> ReadAll(const Placement& p) const override {
    ESTOCADA_ASSIGN_OR_RETURN(auto docs, p.store.text->Scan(p.container));
    std::vector<Row> out;
    for (const auto& [id, fields] : docs) {
      ESTOCADA_RETURN_NOT_OK(DecodeDocument(id, fields, &out));
    }
    return out;
  }

  Result<Row> CanonRow(const Row& row) const override {
    return JsonTextRoundTrip(row);
  }

  /// SEARCH by the bound term, then one stored-document read per
  /// candidate to keep only its rows holding exactly that term.
  Result<NativeAccess> CompileAccess(const AccessRequest& req) const override {
    const BoundAtom& a = req.atom;
    const stores::CostProfile& cost = blueprint();
    NativeAccess out;
    out.access_cost = cost.per_operation + cost.per_index_lookup +
                      cost.per_row_returned * req.est_out_rows;
    if (!req.build) return out;
    out.desc = StrCat(a.store_name, ": SEARCH ", a.container, " [",
                      a.ground[1].has_value() ? a.ground[1]->ToString() : "?",
                      "]");
    out.fetch = [store = a.store->text, container = a.container,
                 filter = AtomFilter(a, req.needed_positions),
                 runtime = req.runtime, store_name = a.store_name](
                    const Row& binding) -> Result<std::vector<Row>> {
      AtomFilter::Ground ground = filter.Bind(binding);
      if (!ground[1].has_value()) {
        return Status::NoRewriting("text search requires a bound term");
      }
      stores::StoreStats* stats = &runtime->per_store[store_name];
      ESTOCADA_ASSIGN_OR_RETURN(
          std::vector<std::string> ids,
          store->Search(container, {SearchText(*ground[1])}, stats));
      std::vector<Row> rows;
      for (const std::string& id : ids) {
        ESTOCADA_ASSIGN_OR_RETURN(auto fields,
                                  store->GetDocument(container, id, stats));
        ESTOCADA_RETURN_NOT_OK(DecodeDocument(id, fields, &rows));
      }
      return filter.Keep(std::move(rows), binding);
    };
    return out;
  }
};

}  // namespace

const StoreDriver& TextDriver() {
  static const Driver driver;
  return driver;
}

}  // namespace estocada::rewriting
