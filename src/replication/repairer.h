#ifndef ESTOCADA_REPLICATION_REPAIRER_H_
#define ESTOCADA_REPLICATION_REPAIRER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "migration/online_copy.h"
#include "runtime/query_server.h"

namespace estocada::replication {

/// Stages of one replica rebuild, in order:
///
///   Idle → Backfilling → CatchingUp → Verifying → Admitted
///
/// with Aborted reachable from every pre-Admitted stage. An aborted
/// rebuild leaves the placement flagged `rebuilding` — out of routing and
/// out of the write fan-out — so a later repair starts over from a clean
/// container and serving correctness never depends on a rebuild
/// finishing.
enum class RepairStage {
  kIdle = 0,
  kBackfilling,
  kCatchingUp,
  kVerifying,
  kAdmitted,
  kAborted,
};

const char* RepairStageName(RepairStage stage);

/// A repair's pacing and retry knobs are its online copy's.
struct RepairOptions : migration::CopyOptions {
  /// Test hook, fired at every stage entry; a non-OK return aborts the
  /// rebuild right there (deterministic abort-at-stage tests).
  std::function<Status(RepairStage)> stage_hook;
};

/// Outcome and counters of one replica rebuild.
struct RepairReport {
  std::string fragment;
  size_t shard = 0;
  size_t replica = 0;
  RepairStage stage = RepairStage::kIdle;  ///< Final stage reached.
  Status error;                            ///< Why it aborted (OK otherwise).
  migration::CopyProgress progress;        ///< The online copy's counters.
  bool digest_checked = false;  ///< Sibling digest equality was enforced.

  bool admitted() const { return stage == RepairStage::kAdmitted; }
  std::string ToString() const;
};

/// Self-healing for K-way replicated fragments: detects dead or stale
/// replicas, rebuilds them from the staging truth while their siblings
/// keep serving, verifies the rebuilt container, and atomically re-admits
/// it into routing and the write fan-out. A replica is addressed as
/// (fragment, shard, replica); every shard with a sibling is in scope.
///
/// A rebuild flags the placement `rebuilding` (routing and the write
/// fan-out stop touching it) and re-creates its container empty, then
/// fills it with the OnlineCopy pipeline migrations use
/// (migration/online_copy.h): backfill from a staging snapshot, catch-up
/// of the inserts that raced it through the delta rule (a deletion, or a
/// text placement, rebuilds the placement from staging instead), and one
/// exclusive-lock section that drains the rest, verifies the container
/// against the staging truth, checks digest equality with a healthy
/// same-kind sibling, and admits the replica (epoch stamped to the
/// shard's write epoch, `rebuilding` cleared). No catalog-epoch bump:
/// routing is per-translation, so cached plans pick the replica up
/// immediately.
///
/// Thread-safe against the serving path (every catalog touch goes through
/// the server's locks). Run one repairer instance; repairs are
/// sequential. The Autopilot checks repair_in_progress() before launching
/// migrations so a layout change never races a rebuild.
class ReplicaRepairer {
 public:
  explicit ReplicaRepairer(runtime::QueryServer* server,
                           RepairOptions options = {});

  ReplicaRepairer(const ReplicaRepairer&) = delete;
  ReplicaRepairer& operator=(const ReplicaRepairer&) = delete;

  /// Rebuilds one replica synchronously. The report carries the outcome:
  /// report.error is OK iff the replica was admitted. (Failure leaves the
  /// placement `rebuilding`; a later call — or Tick() — retries.)
  RepairReport RepairReplica(const std::string& fragment, size_t shard,
                             size_t replica);

  /// One repair pass: scans the catalog for replicas that are stale
  /// (epoch behind their shard's write epoch — they missed writes while
  /// their store was down) or stuck mid-rebuild, skips those whose store
  /// breaker is still open (the store is not back yet), and rebuilds the
  /// rest. Returns the number of replicas admitted; failures stay flagged
  /// for the next tick.
  Result<size_t> Tick();

  /// Anti-entropy pass over *live* replicas: each shard's same-kind
  /// sibling groups are digest-compared, and a disagreeing group (or a
  /// kind's lone replica in its shard) is set-verified against the
  /// staging truth; corrupt replicas are rebuilt. A group that is
  /// identically corrupt escapes the digest screen — the bench's chaos
  /// does not produce that, and truth-verification of every replica every
  /// pass would defeat the point of cheap digests. Returns the number of
  /// replicas repaired.
  Result<size_t> Scrub();

  /// True while RepairReplica/Tick/Scrub is rebuilding something. The
  /// Autopilot's hold guard reads this.
  bool repair_in_progress() const {
    return active_.load(std::memory_order_acquire) > 0;
  }

  /// Reports of every rebuild attempted, in order (test introspection).
  std::vector<RepairReport> history() const;

 private:
  /// One rebuild (all stages).
  void RunRebuild(RepairReport* report);

  runtime::QueryServer* server_;
  RepairOptions options_;
  std::atomic<int> active_{0};
  mutable std::mutex history_mu_;
  std::vector<RepairReport> history_;
};

}  // namespace estocada::replication

#endif  // ESTOCADA_REPLICATION_REPAIRER_H_
