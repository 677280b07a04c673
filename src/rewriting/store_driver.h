#ifndef ESTOCADA_REWRITING_STORE_DRIVER_H_
#define ESTOCADA_REWRITING_STORE_DRIVER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/operator.h"

namespace estocada::rewriting {

/// Per-store work counters accumulated while a plan executes; gives the
/// demo's "performance statistics split across the underlying DMSs and
/// ESTOCADA's runtime" (§IV step 3).
struct RuntimeStats {
  std::map<std::string, stores::StoreStats> per_store;

  double TotalSimulatedCost() const;
  std::string ToString() const;
};

/// One fragment placement: the store holding it, the fragment, and the
/// container inside the store.
struct Placement {
  const catalog::StoreHandle& store;
  const catalog::StorageDescriptor& desc;
  const std::string& container;
};

/// One rewriting atom routed to one placement, with what the atom fixes
/// per position at plan time.
struct BoundAtom {
  const catalog::StorageDescriptor* fragment = nullptr;
  const catalog::StoreHandle* store = nullptr;
  std::string store_name;
  std::string container;
  /// Plan-time ground value per position (constant or parameter).
  std::vector<std::optional<engine::Value>> ground;
  /// Variable name per position ("" when ground).
  std::vector<std::string> var;

  size_t arity() const { return ground.size(); }
};

/// The one atom-match check: ground positions equal their values,
/// including the ones a binding fills in per call, and positions sharing a
/// variable agree, all under Value's equality (null equals null, 1 equals
/// 1.0). Every fetched row passes it (a store may not push every predicate
/// down), and so does every staged row the staging evaluator scans. It
/// keeps the ground positions as a sparse list: the staging scan is the
/// insert path's inner loop.
class AtomFilter {
 public:
  using Ground = std::vector<std::optional<engine::Value>>;

  /// `ground` holds each position's plan-time value (nullopt where free)
  /// and `var` its variable ("" where ground). `needed` are the positions
  /// a binding row fills in, in binding order.
  AtomFilter(Ground ground, const std::vector<std::string>& var,
             std::vector<size_t> needed = {});
  AtomFilter(const BoundAtom& atom, std::vector<size_t> needed)
      : AtomFilter(atom.ground, atom.var, std::move(needed)) {}

  /// The atom's ground values with `binding` filled in (for pushdown).
  Ground Bind(const engine::Row& binding) const;

  bool Matches(const engine::Row& row,
               const engine::Row& binding = {}) const {
    for (const auto& [i, value] : equals_) {
      if (row[i] != value) return false;
    }
    for (size_t k = 0; k < needed_.size(); ++k) {
      if (row[needed_[k]] != binding[k]) return false;
    }
    for (const auto& [i, j] : repeats_) {
      if (row[i] != row[j]) return false;
    }
    return true;
  }
  /// The rows of `rows` that match under `binding`.
  std::vector<engine::Row> Keep(std::vector<engine::Row> rows,
                                const engine::Row& binding) const;

  /// The plan-time ground values (no binding).
  const Ground& ground() const { return ground_; }

 private:
  Ground ground_;
  std::vector<size_t> needed_;
  /// (i, value): position i holds a plan-time ground value.
  std::vector<std::pair<size_t, engine::Value>> equals_;
  /// (i, j): position i repeats the variable first seen at position j.
  std::vector<std::pair<size_t, size_t>> repeats_;
};

/// One compiled native access: how a plan reads a group of atoms from
/// one placement. The optional forms are null when the access lacks them.
struct NativeAccess {
  /// Fetches the rows for one binding of the needed variables (an empty
  /// row when nothing is needed).
  engine::BindJoinOperator::Fetch fetch;
  /// Optional: several bindings in one store round trip.
  engine::BindJoinOperator::BatchFetch batch_fetch;
  /// Optional paged source form: a GraphFetchOperator pulls one store
  /// page per NextBatch instead of a materializing callback scan.
  engine::GraphFetchOperator::ChunkFetch graph_stream;
  engine::GraphFetchOperator::ChunkReset graph_reset;
  double access_cost = 1;  ///< Simulated cost per fetch call.
  std::string desc;        ///< The delegated native query, one line.
};

/// A group of atoms fused into one delegated query (StoreDriver::fuses).
struct JoinAccess : NativeAccess {
  /// Output column variable names ("" for columns not bound to a var).
  std::vector<std::string> out_vars;
  std::vector<std::string> out_names;
  /// Per-column distinct estimate (0 = unknown).
  std::vector<double> out_distinct;
  double est_out_rows = 1;  ///< Expected rows per fetch call.
};

/// What the translator asks a driver to compile: one atom's access.
struct AccessRequest {
  const BoundAtom& atom;
  /// Input-adorned positions holding a free variable; each call's binding
  /// row supplies them in this order, named by `needed_vars`.
  const std::vector<size_t>& needed_positions;
  const std::vector<std::string>& needed_vars;
  double rows_total;    ///< Stored rows of the placement.
  double est_out_rows;  ///< Expected rows per fetch call.
  /// The plan's per-query counters the fetches charge.
  const std::shared_ptr<RuntimeStats>& runtime;
  /// False: estimate only (access_cost), no closures and no desc.
  bool build;
};

/// Everything one store kind knows about holding fragments: its container
/// layout (row encoding, indexes), how a rewriting atom over a fragment
/// becomes a native access, and its cost blueprint. Callers never see how
/// rows are encoded inside a store. One implementation per kind lives in
/// rewriting/drivers/; DriverFor picks it.
class StoreDriver {
 public:
  explicit StoreDriver(const stores::CostProfile& blueprint)
      : blueprint_(blueprint) {}
  virtual ~StoreDriver() = default;

  /// The kind's blueprint cost profile (stores/store_stats.h).
  const stores::CostProfile& blueprint() const { return blueprint_; }

  /// False when containers cannot take appends: maintenance and repair
  /// rebuild them from the staging truth instead.
  virtual bool appends() const { return true; }

  /// True when every atom routed to one store instance fuses into one
  /// delegated query (CompileJoin) instead of one access per atom.
  virtual bool fuses() const { return false; }

  /// Creates the container with the fragment's indexes and loads `rows`
  /// (may be empty: the container then awaits appends).
  virtual Status Load(const Placement& p,
                      const std::vector<engine::Row>& rows) const = 0;

  /// Appends view rows to an existing container.
  virtual Status Append(const Placement& p,
                        const std::vector<engine::Row>& rows) const = 0;

  virtual Status Drop(const Placement& p) const = 0;

  /// Reads the container back into view rows (the inverse of Load and
  /// Append); any order, duplicates kept.
  virtual Result<std::vector<engine::Row>> ReadAll(
      const Placement& p) const = 0;

  /// An expected view row as ReadAll returns it from a correct container,
  /// after the layout's serialization round trip.
  virtual Result<engine::Row> CanonRow(const engine::Row& row) const {
    return row;
  }

  /// Compiles one atom's access against its placement.
  virtual Result<NativeAccess> CompileAccess(
      const AccessRequest& req) const = 0;

  /// Compiles atoms routed to one store instance into one delegated query
  /// (only called when fuses()).
  virtual Result<JoinAccess> CompileJoin(
      const std::vector<const BoundAtom*>& atoms,
      const std::shared_ptr<RuntimeStats>& runtime, bool build) const;

 private:
  const stores::CostProfile& blueprint_;
};

const StoreDriver& DriverFor(catalog::StoreKind kind);

// ---- Shared by the driver implementations.

/// Input-adorned positions of the fragment's view.
std::vector<size_t> InputPositions(const pacb::ViewDefinition& view);

/// Input-adorned positions plus the descriptor's index_positions
/// (deduplicated, sorted): the positions a fragment indexes one by one.
std::vector<size_t> IndexPositions(const catalog::StorageDescriptor& desc);

Result<engine::Value> ParseStoredJson(const std::string& text);

/// A row after a JSON text round trip of each value (what text-encoding
/// layouts read back for it).
Result<engine::Row> JsonTextRoundTrip(const engine::Row& row);

const StoreDriver& RelationalDriver();
const StoreDriver& KeyValueDriver();
const StoreDriver& DocumentDriver();
const StoreDriver& ParallelDriver();
const StoreDriver& TextDriver();
const StoreDriver& GraphDriver();

}  // namespace estocada::rewriting

#endif  // ESTOCADA_REWRITING_STORE_DRIVER_H_
