#ifndef ESTOCADA_STORES_STORE_STATS_H_
#define ESTOCADA_STORES_STORE_STATS_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/strings.h"
#include "stores/fault.h"

namespace estocada::stores {

/// Work counters shared by every store stand-in. Stores do real in-memory
/// work; on top of it they accumulate `simulated_cost`, a deterministic
/// abstract-latency figure driven by each store's CostProfile. Benches
/// report both: wall time reflects this machine, simulated cost reflects
/// the relative performance blueprint of the systems the paper used
/// (client/server round trips, job launch overheads, per-row costs) —
/// see DESIGN.md §3 on substitutions.
struct StoreStats {
  uint64_t operations = 0;      ///< API calls served.
  uint64_t rows_scanned = 0;    ///< Tuples/documents examined.
  uint64_t index_lookups = 0;   ///< Point accesses through an index.
  uint64_t rows_returned = 0;   ///< Results produced.
  double simulated_cost = 0.0;  ///< Abstract latency units (≈ microseconds).

  void Add(const StoreStats& other) {
    operations += other.operations;
    rows_scanned += other.rows_scanned;
    index_lookups += other.index_lookups;
    rows_returned += other.rows_returned;
    simulated_cost += other.simulated_cost;
  }

  std::string ToString() const;
};

/// Per-operation abstract costs of one store. Units are arbitrary but
/// consistent across stores, calibrated so the E1/E2 scenario experiments
/// reproduce the paper's relative gains.
struct CostProfile {
  double per_operation = 0.0;    ///< Fixed cost per API call (round trip).
  double per_row_scanned = 0.0;  ///< Cost per tuple/doc examined.
  double per_index_lookup = 0.0; ///< Cost per index point access.
  double per_row_returned = 0.0; ///< Cost per result transferred.
};

/// The blueprint profiles: each store's default (see its constructor for
/// what it models), and the figures the translator and the advisor price
/// plans with, through the store drivers.
inline constexpr CostProfile kRelationalBlueprint{25.0, 0.05, 0.8, 0.05};
inline constexpr CostProfile kKeyValueBlueprint{4.0, 0.02, 0.3, 0.05};
inline constexpr CostProfile kDocumentBlueprint{12.0, 0.12, 0.5, 0.15};
inline constexpr CostProfile kParallelBlueprint{60.0, 0.01, 0.6, 0.05};
inline constexpr CostProfile kTextBlueprint{10.0, 0.03, 0.4, 0.1};
inline constexpr CostProfile kGraphBlueprint{6.0, 0.04, 0.2, 0.06};

/// Base of every store stand-in: an optional, initially absent
/// fault-injector hook plus the store's cost accounting. Stores call
/// InjectReadFault()/InjectWriteFault() at the top of each read/write
/// path (with no injector attached that is a null check and nothing more)
/// and Charge() for the work each call did.
class StoreBase {
 public:
  /// Registers this store with `injector` under `store_id` (the catalog
  /// store name). Pass nullptr to detach. Not thread-safe against
  /// concurrent reads — attach during deployment setup.
  void AttachFaultInjector(FaultInjector* injector, std::string store_id) {
    fault_injector_ = injector;
    fault_store_id_ = std::move(store_id);
  }

  /// Snapshot of the stats accumulated across all calls. Reads under the
  /// stats mutex so concurrent query threads never observe torn counters.
  StoreStats lifetime_stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return lifetime_stats_;
  }

 protected:
  /// `scan_parallelism` divides the per-row scan cost: a store that scans
  /// partition-parallel amortizes it over its workers.
  explicit StoreBase(CostProfile profile, double scan_parallelism = 1.0)
      : profile_(profile), scan_parallelism_(scan_parallelism) {}

  Status InjectReadFault() const {
    if (fault_injector_ == nullptr) return Status::OK();
    return fault_injector_->OnRead(fault_store_id_);
  }

  Status InjectWriteFault() const {
    if (fault_injector_ == nullptr) return Status::OK();
    return fault_injector_->OnWrite(fault_store_id_);
  }

  /// The container `name` in `containers`; kNotFound calls it a `noun`.
  template <typename Map>
  static auto FindContainer(Map& containers, const std::string& name,
                            const char* noun)
      -> Result<decltype(&containers.begin()->second)> {
    auto it = containers.find(name);
    if (it == containers.end()) {
      return Status::NotFound(StrCat(noun, " '", name, "' does not exist"));
    }
    return &it->second;
  }

  /// Prices one call's work with the profile and adds it to the lifetime
  /// stats and to `stats` (when non-null) under one lock: the scatter
  /// tasks of one query share its per-store stats object.
  void Charge(StoreStats* stats, uint64_t ops, uint64_t scanned,
              uint64_t lookups, uint64_t returned) const;

 private:
  FaultInjector* fault_injector_ = nullptr;
  std::string fault_store_id_;
  const CostProfile profile_;
  const double scan_parallelism_;
  mutable StoreStats lifetime_stats_;
  mutable std::mutex stats_mu_;
};

}  // namespace estocada::stores

#endif  // ESTOCADA_STORES_STORE_STATS_H_
