#include "stores/store_stats.h"

#include "common/strings.h"

namespace estocada::stores {

std::string StoreStats::ToString() const {
  return StrCat("ops=", operations, " scanned=", rows_scanned,
                " index_lookups=", index_lookups, " returned=", rows_returned,
                " simulated_cost=", simulated_cost);
}

void StoreBase::Charge(StoreStats* stats, uint64_t ops, uint64_t scanned,
                       uint64_t lookups, uint64_t returned) const {
  StoreStats delta;
  delta.operations = ops;
  delta.rows_scanned = scanned;
  delta.index_lookups = lookups;
  delta.rows_returned = returned;
  delta.simulated_cost =
      profile_.per_operation * static_cast<double>(ops) +
      profile_.per_row_scanned * static_cast<double>(scanned) /
          scan_parallelism_ +
      profile_.per_index_lookup * static_cast<double>(lookups) +
      profile_.per_row_returned * static_cast<double>(returned);
  std::lock_guard<std::mutex> lock(stats_mu_);
  lifetime_stats_.Add(delta);
  if (stats != nullptr) stats->Add(delta);
}

}  // namespace estocada::stores
