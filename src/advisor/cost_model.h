#ifndef ESTOCADA_ADVISOR_COST_MODEL_H_
#define ESTOCADA_ADVISOR_COST_MODEL_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/value.h"
#include "stores/store_stats.h"

namespace estocada::advisor {

/// One deterministic probe of the layout cost model: a pivot CQ text plus
/// fixed parameter bindings. Probes come from a drawn benchmark workload
/// or from the parameter samples the WorkloadLog retains per shape.
struct CostProbe {
  std::string text;
  std::map<std::string, engine::Value> parameters;
};

/// The deterministic layout cost model (DESIGN.md §3) shared by the E1
/// bench (bench_kv_migration) and the Autopilot tuner, in two halves:
///
///  * *measured* cost — the simulated cost of actually executing probes
///    against the live layout, summed in probe order so repeated runs are
///    bit-identical;
///  * *predicted* cost — the blueprint estimate of serving one probe from
///    a fragment keyed on the probe's parameter positions in a store of a
///    given kind (one round trip + one index lookup + result transfer,
///    priced with the store defaults).
///
/// A deployment whose stores deviate from the blueprint profiles is
/// exactly the "cost model lies" case: the prediction says improve, the
/// measurement says regress — which the Autopilot's post-cutover check
/// catches.
class CostModel {
 public:
  /// Executes one query and returns its simulated cost. Injected so the
  /// same model runs against a bare Estocada facade, a QueryServer, or a
  /// mock (the advisor layer cannot link either of the former).
  using QueryRunner = std::function<Result<double>(
      const std::string& text,
      const std::map<std::string, engine::Value>& parameters)>;

  explicit CostModel(QueryRunner runner) : runner_(std::move(runner)) {}

  /// Total simulated cost of `probes`, executed and summed in order.
  Result<double> TotalCost(const std::vector<CostProbe>& probes) const;

  /// Mean per-probe simulated cost (0 for an empty probe set).
  Result<double> MeanCost(const std::vector<CostProbe>& probes) const;

  /// Blueprint per-probe cost of serving a shape from a fragment keyed on
  /// its parameter positions in a store of `kind`: per_operation +
  /// per_index_lookup + mean_rows * per_row_returned.
  static double PredictProbeCost(catalog::StoreKind kind, double mean_rows);

  /// The blueprint CostProfile of `kind` — each store stand-in's default
  /// profile, as the kind's store driver reports it.
  static stores::CostProfile BlueprintProfile(catalog::StoreKind kind);

 private:
  QueryRunner runner_;
};

}  // namespace estocada::advisor

#endif  // ESTOCADA_ADVISOR_COST_MODEL_H_
