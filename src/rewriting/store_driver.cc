#include "rewriting/store_driver.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace estocada::rewriting {

using catalog::StoreKind;
using engine::Row;
using engine::Value;

double RuntimeStats::TotalSimulatedCost() const {
  double total = 0;
  for (const auto& [name, stats] : per_store) total += stats.simulated_cost;
  return total;
}

std::string RuntimeStats::ToString() const {
  std::string out;
  for (const auto& [name, stats] : per_store) {
    out += StrCat("  ", name, ": ", stats.ToString(), "\n");
  }
  return out;
}

AtomFilter::AtomFilter(Ground ground, const std::vector<std::string>& var,
                       std::vector<size_t> needed)
    : ground_(std::move(ground)), needed_(std::move(needed)) {
  for (size_t i = 0; i < ground_.size(); ++i) {
    if (ground_[i].has_value()) equals_.emplace_back(i, *ground_[i]);
  }
  for (size_t i = 0; i < var.size(); ++i) {
    if (var[i].empty()) continue;
    for (size_t j = 0; j < i; ++j) {
      if (var[j] == var[i]) {
        repeats_.emplace_back(i, j);
        break;
      }
    }
  }
}

AtomFilter::Ground AtomFilter::Bind(const Row& binding) const {
  Ground ground = ground_;
  for (size_t i = 0; i < needed_.size(); ++i) {
    ground[needed_[i]] = binding[i];
  }
  return ground;
}

std::vector<Row> AtomFilter::Keep(std::vector<Row> rows,
                                  const Row& binding) const {
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [&](const Row& row) {
                              return !Matches(row, binding);
                            }),
             rows.end());
  return rows;
}

Result<JoinAccess> StoreDriver::CompileJoin(
    const std::vector<const BoundAtom*>&, const std::shared_ptr<RuntimeStats>&,
    bool) const {
  return Status::Internal("store kind does not fuse atoms");
}

const StoreDriver& DriverFor(StoreKind kind) {
  switch (kind) {
    case StoreKind::kRelational:
      return RelationalDriver();
    case StoreKind::kKeyValue:
      return KeyValueDriver();
    case StoreKind::kDocument:
      return DocumentDriver();
    case StoreKind::kParallel:
      return ParallelDriver();
    case StoreKind::kText:
      return TextDriver();
    case StoreKind::kGraph:
      return GraphDriver();
  }
  return RelationalDriver();
}

std::vector<size_t> InputPositions(const pacb::ViewDefinition& view) {
  std::vector<size_t> out;
  for (size_t i = 0; i < view.adornments.size(); ++i) {
    if (view.adornments[i] == pivot::Adornment::kInput) out.push_back(i);
  }
  return out;
}

std::vector<size_t> IndexPositions(const catalog::StorageDescriptor& desc) {
  std::set<size_t> positions;
  for (size_t p : InputPositions(desc.view)) positions.insert(p);
  for (size_t p : desc.index_positions) positions.insert(p);
  return {positions.begin(), positions.end()};
}

Result<Value> ParseStoredJson(const std::string& text) {
  ESTOCADA_ASSIGN_OR_RETURN(json::JsonValue j, json::Parse(text));
  return Value::FromJson(j);
}

Result<Row> JsonTextRoundTrip(const Row& row) {
  Row out;
  out.reserve(row.size());
  for (const Value& v : row) {
    ESTOCADA_ASSIGN_OR_RETURN(Value rt,
                              ParseStoredJson(v.ToJson().Serialize()));
    out.push_back(std::move(rt));
  }
  return out;
}

}  // namespace estocada::rewriting
