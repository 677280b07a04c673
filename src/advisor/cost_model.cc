#include "advisor/cost_model.h"

#include "rewriting/store_driver.h"

namespace estocada::advisor {

Result<double> CostModel::TotalCost(
    const std::vector<CostProbe>& probes) const {
  double total = 0;
  for (const CostProbe& p : probes) {
    ESTOCADA_ASSIGN_OR_RETURN(double cost, runner_(p.text, p.parameters));
    total += cost;
  }
  return total;
}

Result<double> CostModel::MeanCost(const std::vector<CostProbe>& probes) const {
  if (probes.empty()) return 0.0;
  ESTOCADA_ASSIGN_OR_RETURN(double total, TotalCost(probes));
  return total / static_cast<double>(probes.size());
}

stores::CostProfile CostModel::BlueprintProfile(catalog::StoreKind kind) {
  return rewriting::DriverFor(kind).blueprint();
}

double CostModel::PredictProbeCost(catalog::StoreKind kind, double mean_rows) {
  stores::CostProfile p = BlueprintProfile(kind);
  return p.per_operation + p.per_index_lookup +
         mean_rows * p.per_row_returned;
}

}  // namespace estocada::advisor
