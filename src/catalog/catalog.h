#ifndef ESTOCADA_CATALOG_CATALOG_H_
#define ESTOCADA_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/value.h"
#include "pacb/view.h"
#include "pivot/schema.h"
#include "stores/document_store.h"
#include "stores/graph_store.h"
#include "stores/kv_store.h"
#include "stores/parallel_store.h"
#include "stores/relational_store.h"
#include "stores/text_store.h"

namespace estocada::catalog {

/// The kinds of DMSs ESTOCADA can exploit side by side.
enum class StoreKind {
  kRelational,
  kKeyValue,
  kDocument,
  kParallel,
  kText,
  kGraph,
};

/// Every StoreKind value, for code that must cover all kinds (tests,
/// sweeps). Kept in enum order.
inline constexpr StoreKind kAllStoreKinds[] = {
    StoreKind::kRelational, StoreKind::kKeyValue, StoreKind::kDocument,
    StoreKind::kParallel,   StoreKind::kText,     StoreKind::kGraph,
};

const char* StoreKindName(StoreKind kind);

/// A registered DMS instance: a name (e.g. "postgres1") plus a non-owning
/// pointer to exactly one store implementation.
struct StoreHandle {
  std::string name;
  StoreKind kind = StoreKind::kRelational;
  stores::RelationalStore* relational = nullptr;
  stores::KeyValueStore* kv = nullptr;
  stores::DocumentStore* document = nullptr;
  stores::ParallelStore* parallel = nullptr;
  stores::TextStore* text = nullptr;
  /// Appended last so existing five-pointer braced initializers stay valid.
  stores::GraphStore* graph = nullptr;
};

/// Per-fragment statistics driving the cost model ("statistics it gathers
/// and stores on the data of each fragment, using database textbook
/// formulas").
struct FragmentStatistics {
  size_t row_count = 0;
  /// Distinct value count per view-head position.
  std::vector<size_t> distinct;

  /// Selectivity of an equality on `position` (1/distinct, floored).
  double EqualitySelectivity(size_t position) const;
};

/// Visibility of a fragment to the planner. `kShadow` fragments are
/// migration targets being backfilled: they have a container and a
/// descriptor but are excluded from `AllViews()` (so the rewriter never
/// uses them and no catalog-epoch bump is needed when they appear),
/// from incremental maintenance (the migration engine owns their delta
/// replay), and from the catalog JSON export. Cutover flips them to
/// `kActive`, which *is* a catalog change.
enum class FragmentLifecycle {
  kActive,
  kShadow,
};

/// One physical copy of a fragment shard: a store instance, the container
/// inside it, and a freshness epoch. A replica is fresh when its epoch
/// equals its shard's write_epoch — every logical mutation of the shard
/// bumps write_epoch, and each replica's epoch advances only when the
/// mutation landed on that copy. `rebuilding` marks a replica the
/// ReplicaRepairer owns: routing and write fan-out skip it until
/// re-admission.
struct ReplicaPlacement {
  std::string store_name;
  std::string container;
  uint64_t epoch = 0;
  bool rebuilding = false;

  bool fresh(uint64_t write_epoch) const { return epoch == write_epoch; }
};

/// How a fragment's rows are divided across shards. Partitioning is part
/// of the LAV view description's *where*: the view itself is unchanged
/// (the PACB rewriter still sees one fragment), but the physical extent is
/// split across `shards` shards by the value of one head attribute, so the
/// translator must scatter-gather (or prune to one shard when the key is
/// bound). The default, one shard, is an unpartitioned fragment.
struct PartitionSpec {
  enum class Kind { kHash, kRange };
  Kind kind = Kind::kHash;
  /// View-head position of the partition key (resolved from the attribute
  /// name at definition time).
  size_t key_position = 0;
  size_t shards = 1;
  /// kRange only: `shards - 1` strictly ascending upper-exclusive split
  /// points. Shard i serves bounds[i-1] <= v < bounds[i]; shard 0 takes
  /// everything below bounds[0], the last shard everything from
  /// bounds[shards-2] up.
  std::vector<engine::Value> bounds;

  bool partitioned() const { return shards > 1; }
  /// Which shard owns a partition-key value.
  size_t ShardOf(const engine::Value& v) const;
};

/// One shard's placement state: its replica set (K >= 1 copies, the first
/// is the primary) plus its own write epoch. Epochs are per shard so a
/// write routed to one shard cannot make replicas of untouched shards
/// look stale.
struct ShardState {
  std::vector<ReplicaPlacement> replicas;
  uint64_t write_epoch = 0;

  /// A shard replicated on `stores` (first = primary); containers are
  /// left empty for RegisterFragment to default.
  static ShardState OnStores(const std::vector<std::string>& stores);

  /// True when `idx` names a replica that routing may serve from: not
  /// mid-rebuild and caught up with the write epoch.
  bool replica_available(size_t idx) const {
    if (idx >= replicas.size()) return false;
    const ReplicaPlacement& r = replicas[idx];
    return !r.rebuilding && r.fresh(write_epoch);
  }
};

/// A storage descriptor sd(Sk, Di/Fj) — the paper's §III artifact. The
/// *what* is the LAV view definition (a CQ over the application dataset's
/// pivot relations); the *where* is `shards` — shards × replicas, each
/// replica naming a store and the container inside it; the supported
/// access operations follow from the store kind and the view's
/// access-pattern adornments.
struct StorageDescriptor {
  /// Fragment name == view head relation name (e.g. "F_cart_by_user").
  pacb::ViewDefinition view;
  FragmentStatistics stats;
  /// Extra positions to build secondary indexes on at materialization
  /// (beyond the input-adorned ones). For relational/document fragments
  /// each position gets its own index; for parallel fragments the set
  /// forms one composite index when no input adornments exist.
  std::vector<size_t> index_positions;
  /// Planner visibility (see FragmentLifecycle).
  FragmentLifecycle lifecycle = FragmentLifecycle::kActive;
  /// How rows divide across `shards`; `partition.shards` always equals
  /// `shards.size()`.
  PartitionSpec partition;
  /// The fragment's placement: one ShardState per shard — exactly one
  /// for an unpartitioned fragment. RegisterFragment defaults empty
  /// containers to "<frag>" / "<frag>#r<i>" for one shard and to
  /// "<frag>#p<s>" / "<frag>#p<s>#r<i>" otherwise.
  std::vector<ShardState> shards;

  const std::string& name() const { return view.name(); }
  bool is_shadow() const { return lifecycle == FragmentLifecycle::kShadow; }
  bool partitioned() const { return partition.partitioned(); }
  size_t shard_count() const { return shards.size(); }
  /// Shard 0's primary replica — the fragment's primary placement when
  /// it is unpartitioned.
  const ReplicaPlacement& primary() const {
    return shards.front().replicas.front();
  }
};

/// The Storage Descriptor Manager: datasets (pivot schemas + constraints),
/// registered stores, and fragment descriptors.
class Catalog {
 public:
  Catalog() = default;

  /// Merges a dataset's pivot schema (relations + constraints).
  Status RegisterDatasetSchema(const pivot::Schema& schema);

  /// Registers a DMS instance. Exactly one store pointer must be set and
  /// must match `kind`.
  Status RegisterStore(StoreHandle handle);

  Result<const StoreHandle*> GetStore(const std::string& name) const;

  /// Registers a fragment descriptor; the view's head relation name must
  /// be fresh, the store known, and the view body over dataset relations.
  Status RegisterFragment(StorageDescriptor descriptor);

  Status DropFragment(const std::string& name);

  Result<const StorageDescriptor*> GetFragment(const std::string& name) const;
  Result<StorageDescriptor*> GetMutableFragment(const std::string& name);

  const std::map<std::string, StorageDescriptor>& fragments() const {
    return fragments_;
  }
  const std::map<std::string, StoreHandle>& stores() const { return stores_; }
  const pivot::Schema& dataset_schema() const { return dataset_schema_; }

  /// All *active* view definitions, for the rewriter. Shadow fragments
  /// (mid-migration backfill targets) are invisible to planning until
  /// their cutover activates them.
  std::vector<pacb::ViewDefinition> AllViews() const;

  /// Human-readable inventory (demo step 1: "view their specification").
  std::string ToString() const;

 private:
  pivot::Schema dataset_schema_;
  std::map<std::string, StoreHandle> stores_;
  std::map<std::string, StorageDescriptor> fragments_;
};

/// Stored column names of a fragment's physical layout: the view head
/// variable names ('$' stripped; h<i> fallback; duplicates suffixed).
/// Shared by the materializer (which creates containers) and the
/// translator (which queries them).
std::vector<std::string> FragmentColumnNames(const pacb::ViewDefinition& view);

}  // namespace estocada::catalog

#endif  // ESTOCADA_CATALOG_CATALOG_H_
