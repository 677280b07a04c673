// Key-value fragments: one collection per container, keyed by view head
// position 0. The key text is json::KeyText of that value, so keys that
// compare equal (1 and 1.0) share one entry; the payload under a key is
// the JSON list of every row sharing it (a key position need not be
// unique — e.g. an advisor-made fragment keyed by product category).
// The only cheap access is by key: GET, or one MGET per batch of
// bindings; anything else scans the collection.

#include <map>

#include "common/strings.h"
#include "rewriting/store_driver.h"

namespace estocada::rewriting {
namespace {

using engine::Row;
using engine::Value;

std::string KeyOf(const Value& v) { return json::KeyText(v.ToJson()); }

/// The payload (JSON list of rows) each key of `rows` stores, by key.
std::map<std::string, json::JsonValue> PayloadsByKey(
    const std::vector<Row>& rows) {
  std::map<std::string, json::JsonValue> out;
  for (const Row& row : rows) {
    json::JsonValue& payload =
        out.try_emplace(KeyOf(row[0]), json::JsonValue::MakeArray())
            .first->second;
    payload.Append(Value::List(row).ToJson());
  }
  return out;
}

/// Appends the rows of one payload to `out`.
Status DecodePayload(const std::string& payload, size_t arity,
                     std::vector<Row>* out) {
  ESTOCADA_ASSIGN_OR_RETURN(json::JsonValue parsed, json::Parse(payload));
  if (!parsed.is_array()) {
    return Status::Internal("corrupt KV fragment payload");
  }
  for (const json::JsonValue& r : parsed.array()) {
    if (!r.is_array() || r.array().size() != arity) {
      return Status::Internal("corrupt KV fragment row");
    }
    Row row;
    row.reserve(arity);
    for (const json::JsonValue& v : r.array()) {
      row.push_back(Value::FromJson(v));
    }
    out->push_back(std::move(row));
  }
  return Status::OK();
}

class Driver : public StoreDriver {
 public:
  Driver() : StoreDriver(stores::kKeyValueBlueprint) {}

  Status Load(const Placement& p, const std::vector<Row>& rows) const override {
    ESTOCADA_RETURN_NOT_OK(p.store.kv->CreateCollection(p.container));
    // One pre-sized bulk load instead of per-key Puts; the charge is
    // identical (one op + one index touch per key).
    const std::map<std::string, json::JsonValue> payloads =
        PayloadsByKey(rows);
    std::vector<std::pair<std::string, std::string>> entries;
    entries.reserve(payloads.size());
    for (const auto& [key, payload] : payloads) {
      entries.emplace_back(key, payload.Serialize());
    }
    return p.store.kv->BulkLoad(p.container, entries);
  }

  /// Read-modify-write of the per-key payloads.
  Status Append(const Placement& p,
                const std::vector<Row>& rows) const override {
    for (const auto& [key, fresh] : PayloadsByKey(rows)) {
      json::JsonValue payload = json::JsonValue::MakeArray();
      auto existing = p.store.kv->Get(p.container, key);
      if (existing.ok()) {
        ESTOCADA_ASSIGN_OR_RETURN(payload, json::Parse(*existing));
        if (!payload.is_array()) {
          return Status::Internal("corrupt KV fragment payload");
        }
      } else if (existing.status().code() != StatusCode::kNotFound) {
        return existing.status();
      }
      for (const json::JsonValue& row : fresh.array()) payload.Append(row);
      ESTOCADA_RETURN_NOT_OK(
          p.store.kv->Put(p.container, key, payload.Serialize()));
    }
    return Status::OK();
  }

  Status Drop(const Placement& p) const override {
    return p.store.kv->DropCollection(p.container);
  }

  Result<std::vector<Row>> ReadAll(const Placement& p) const override {
    ESTOCADA_ASSIGN_OR_RETURN(auto pairs, p.store.kv->Scan(p.container));
    std::vector<Row> out;
    for (const auto& [key, payload] : pairs) {
      ESTOCADA_RETURN_NOT_OK(
          DecodePayload(payload, p.desc.view.arity(), &out));
    }
    return out;
  }

  Result<Row> CanonRow(const Row& row) const override {
    return JsonTextRoundTrip(row);
  }

  Result<NativeAccess> CompileAccess(const AccessRequest& req) const override {
    const BoundAtom& a = req.atom;
    const stores::CostProfile& cost = blueprint();
    NativeAccess out;
    stores::KeyValueStore* store = a.store->kv;
    const bool key_needed =
        !req.needed_positions.empty() && req.needed_positions[0] == 0;
    const bool key_ground = a.ground[0].has_value();
    AtomFilter filter(a, req.needed_positions);
    const size_t arity = a.arity();
    if (key_ground || key_needed) {
      out.access_cost = cost.per_operation + cost.per_index_lookup;
      if (!req.build) return out;
      out.desc = StrCat(a.store_name, ": GET ", a.container, "[",
                        key_ground ? a.ground[0]->ToString()
                                   : StrCat("?", req.needed_vars[0]),
                        "]");
      out.fetch = [store, container = a.container, filter, arity,
                   runtime = req.runtime, store_name = a.store_name](
                      const Row& binding) -> Result<std::vector<Row>> {
        AtomFilter::Ground ground = filter.Bind(binding);
        auto got = store->Get(container, KeyOf(*ground[0]),
                              &runtime->per_store[store_name]);
        if (!got.ok()) {
          if (got.status().code() == StatusCode::kNotFound) {
            return std::vector<Row>{};
          }
          return got.status();
        }
        std::vector<Row> rows;
        ESTOCADA_RETURN_NOT_OK(DecodePayload(*got, arity, &rows));
        return filter.Keep(std::move(rows), binding);
      };
      // Batched form: k uncached bindings become one MGet round trip.
      out.batch_fetch = [store, container = a.container, filter, arity,
                         runtime = req.runtime, store_name = a.store_name](
                            const std::vector<Row>& bindings)
          -> Result<std::vector<std::vector<Row>>> {
        std::vector<std::string> keys;
        keys.reserve(bindings.size());
        for (const Row& binding : bindings) {
          keys.push_back(KeyOf(*filter.Bind(binding)[0]));
        }
        ESTOCADA_ASSIGN_OR_RETURN(
            std::vector<std::optional<std::string>> payloads,
            store->MGet(container, keys, &runtime->per_store[store_name]));
        std::vector<std::vector<Row>> out_sets(bindings.size());
        for (size_t b = 0; b < bindings.size(); ++b) {
          if (!payloads[b].has_value()) continue;
          ESTOCADA_RETURN_NOT_OK(
              DecodePayload(*payloads[b], arity, &out_sets[b]));
          out_sets[b] = filter.Keep(std::move(out_sets[b]), bindings[b]);
        }
        return out_sets;
      };
      return out;
    }
    // Free access: full collection scan (allowed but costly). Outer
    // bindings on non-key input positions become post-checks.
    out.access_cost = cost.per_operation +
                      cost.per_row_scanned * req.rows_total +
                      cost.per_row_returned * req.est_out_rows;
    if (!req.build) return out;
    out.desc = StrCat(a.store_name, ": SCAN ", a.container);
    out.fetch = [store, container = a.container, filter, arity,
                 runtime = req.runtime, store_name = a.store_name](
                    const Row& binding) -> Result<std::vector<Row>> {
      AtomFilter::Ground ground = filter.Bind(binding);
      ESTOCADA_ASSIGN_OR_RETURN(
          auto pairs, store->Scan(container, &runtime->per_store[store_name]));
      std::vector<Row> rows;
      for (const auto& [key, payload] : pairs) {
        ESTOCADA_RETURN_NOT_OK(DecodePayload(payload, arity, &rows));
      }
      return filter.Keep(std::move(rows), binding);
    };
    return out;
  }
};

}  // namespace

const StoreDriver& KeyValueDriver() {
  static const Driver driver;
  return driver;
}

}  // namespace estocada::rewriting
