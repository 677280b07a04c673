// Document fragments: one collection per container, one JSON document per
// view row: {"_id": "r<N>", "f0": ..., "f1": ...}, where N counts the
// container's documents. Input-adorned and index_positions fields get a
// path index each. Every access is one FIND with the ground positions as
// equality predicates; the store never joins.

#include "common/strings.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {
namespace {

using engine::Row;
using engine::Value;

/// Field name of each view head position: f0, f1, ...
std::vector<std::string> FieldNames(size_t arity) {
  std::vector<std::string> out;
  out.reserve(arity);
  for (size_t c = 0; c < arity; ++c) out.push_back(StrCat("f", c));
  return out;
}

Result<std::vector<Row>> DecodeDocuments(
    const std::vector<json::JsonValue>& docs,
    const std::vector<std::string>& fields) {
  std::vector<Row> rows(docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    rows[d].reserve(fields.size());
    for (const std::string& f : fields) {
      const json::JsonValue* v = docs[d].Find(f);
      if (v == nullptr) {
        return Status::Internal(StrCat("document fragment misses field ", f));
      }
      rows[d].push_back(Value::FromJson(*v));
    }
  }
  return rows;
}

class Driver : public StoreDriver {
 public:
  Driver() : StoreDriver(stores::kDocumentBlueprint) {}

  Status Load(const Placement& p, const std::vector<Row>& rows) const override {
    ESTOCADA_RETURN_NOT_OK(p.store.document->CreateCollection(p.container));
    ESTOCADA_RETURN_NOT_OK(Append(p, rows));
    for (size_t pos : IndexPositions(p.desc)) {
      ESTOCADA_RETURN_NOT_OK(
          p.store.document->CreatePathIndex(p.container, StrCat("f", pos)));
    }
    return Status::OK();
  }

  /// Synthetic _ids continue from the container's own count: they only
  /// need to be container-unique (reads ignore them), and a restarted
  /// replica rebuild never collides with its own earlier batches.
  Status Append(const Placement& p,
                const std::vector<Row>& rows) const override {
    if (rows.empty()) return Status::OK();
    ESTOCADA_ASSIGN_OR_RETURN(size_t n,
                              p.store.document->Count(p.container));
    const std::vector<std::string> fields = FieldNames(p.desc.view.arity());
    for (const Row& row : rows) {
      json::JsonValue doc = json::JsonValue::MakeObject();
      doc.Set("_id", json::JsonValue::Str(StrCat("r", n++)));
      for (size_t c = 0; c < fields.size(); ++c) {
        doc.Set(fields[c], row[c].ToJson());
      }
      ESTOCADA_RETURN_NOT_OK(
          p.store.document->Insert(p.container, std::move(doc)).status());
    }
    return Status::OK();
  }

  Status Drop(const Placement& p) const override {
    return p.store.document->DropCollection(p.container);
  }

  Result<std::vector<Row>> ReadAll(const Placement& p) const override {
    ESTOCADA_ASSIGN_OR_RETURN(auto docs,
                              p.store.document->Find(p.container, {}));
    return DecodeDocuments(docs, FieldNames(p.desc.view.arity()));
  }

  /// The store keeps JsonValues in memory (no text step).
  Result<Row> CanonRow(const Row& row) const override {
    Row out;
    out.reserve(row.size());
    for (const Value& v : row) out.push_back(Value::FromJson(v.ToJson()));
    return out;
  }

  Result<NativeAccess> CompileAccess(const AccessRequest& req) const override {
    const BoundAtom& a = req.atom;
    const stores::CostProfile& cost = blueprint();
    NativeAccess out;
    out.access_cost = cost.per_operation +
                      cost.per_row_scanned * req.rows_total * 0.5 +
                      cost.per_row_returned * req.est_out_rows;
    if (!req.build) return out;
    std::vector<std::string> pred_bits;
    for (size_t i = 0; i < a.arity(); ++i) {
      if (a.ground[i].has_value()) {
        pred_bits.push_back(StrCat("f", i, "=", a.ground[i]->ToString()));
      }
    }
    out.desc = StrCat(a.store_name, ": FIND ", a.container, " {",
                      StrJoin(pred_bits, ", "), "}");
    // A list value cannot be an equality predicate (the store matches
    // array fields element-wise); the post-check compares it instead.
    out.fetch = [store = a.store->document, container = a.container,
                 filter = AtomFilter(a, req.needed_positions),
                 fields = FieldNames(a.arity()), runtime = req.runtime,
                 store_name = a.store_name](
                    const Row& binding) -> Result<std::vector<Row>> {
      AtomFilter::Ground ground = filter.Bind(binding);
      std::vector<stores::PathPredicate> preds;
      for (size_t i = 0; i < fields.size(); ++i) {
        if (ground[i].has_value() && !ground[i]->is_list()) {
          preds.push_back({fields[i], stores::DocOp::kEq, ground[i]->ToJson()});
        }
      }
      ESTOCADA_ASSIGN_OR_RETURN(
          std::vector<json::JsonValue> docs,
          store->Find(container, preds, &runtime->per_store[store_name]));
      ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> rows,
                                DecodeDocuments(docs, fields));
      return filter.Keep(std::move(rows), binding);
    };
    return out;
  }
};

}  // namespace

const StoreDriver& DocumentDriver() {
  static const Driver driver;
  return driver;
}

}  // namespace estocada::rewriting
