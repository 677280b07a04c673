#ifndef ESTOCADA_MIGRATION_MIGRATION_H_
#define ESTOCADA_MIGRATION_MIGRATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "common/result.h"
#include "migration/online_copy.h"
#include "pacb/view.h"
#include "runtime/query_server.h"

namespace estocada::migration {

/// The staged, resumable state machine of one online migration:
///
///   Planned → Backfilling → CatchingUp → Verifying → CutOver → Retired
///
/// with Aborted reachable from every pre-Retired stage. The value names
/// the *current* stage: `kBackfilling` means the backfill is pending or
/// in progress; `kCutOver` means the target fragment is live (epoch
/// bumped) but the retired sources have not yet been dropped. Stages
/// before kRetired are strictly ordered so RunUntil can compare them.
enum class MigrationStage {
  kPlanned = 0,
  kBackfilling,
  kCatchingUp,
  kVerifying,
  kCutOver,
  kRetired,
  kAborted,
};

const char* StageName(MigrationStage stage);

/// What to migrate: a target fragment to build (the view + store), and/or
/// source fragments to retire at cutover. An empty view (`drop_only`)
/// retires fragments without building anything — the advisor's
/// kDropFragment advice.
struct MigrationSpec {
  pacb::ViewDefinition view;
  std::string store_name;
  std::vector<size_t> index_positions;
  /// Fragments dropped at the Retired stage, after the target is live.
  std::vector<std::string> retire;

  bool drop_only() const { return view.query.name.empty(); }
  std::string ToString() const;

  /// Lifts one piece of advisor advice into a migration: kAddFragment
  /// builds the recommended view (retiring nothing); kDropFragment is a
  /// drop-only migration of that fragment.
  static MigrationSpec FromRecommendation(const advisor::Recommendation& rec);
};

/// A migration's pacing and retry knobs are its online copy's.
using MigrationOptions = CopyOptions;

/// Counters of one migration (relaxed atomics, mirroring ServerMetrics).
struct MigrationMetricsSnapshot {
  uint64_t rows_copied = 0;      ///< Backfill rows appended to the target.
  uint64_t batches = 0;          ///< Exclusive-lock append batches.
  uint64_t throttle_stalls = 0;  ///< Sleeps forced by max_rows_per_sec.
  uint64_t deltas_captured = 0;  ///< Update events logged for catch-up.
  uint64_t deltas_replayed = 0;  ///< Deltas replayed into the target.
  uint64_t catchup_rounds = 0;   ///< Catch-up iterations executed.
  uint64_t rebuilds = 0;         ///< Full target rebuilds (deletes, text).
  uint64_t target_retries = 0;   ///< kUnavailable retries against the target.
  uint64_t breaker_pauses = 0;   ///< Pauses on an open target breaker.
  uint64_t cutover_epoch = 0;    ///< Catalog epoch right after activation.
  uint64_t catchup_lag = 0;      ///< Deltas currently pending replay.
};

/// Point-in-time public state of a migration.
struct MigrationStatus {
  MigrationStage stage = MigrationStage::kPlanned;
  bool paused = false;  ///< Currently waiting out an open breaker.
  Status error;         ///< Why the migration aborted (OK otherwise).
  MigrationMetricsSnapshot metrics;

  std::string ToString() const;
};

/// Executes one MigrationSpec against a serving QueryServer while the old
/// layout keeps answering. The target is filled by an OnlineCopy
/// (online_copy.h), whose steps the stages drive:
///
///  * Planned: validates the spec, registers the target as a *shadow*
///    fragment (invisible to the planner — no epoch bump) with its empty
///    container, and starts the copy (update listener, snapshot).
///  * Backfilling: the copy's throttled backfill.
///  * CatchingUp: the copy's catch-up rounds.
///  * Verifying/CutOver: the copy's final exclusive-lock section, whose
///    commit step activates the shadow — the catalog-epoch bump that
///    atomically invalidates every cached plan of the old layout.
///  * Retired: drops the retired source fragments (the exclusive-lock
///    acquisition is the drain: in-flight readers finish first).
///
/// Abort() rolls back from any pre-Retired stage; the old layout is
/// untouched until cutover, so rollback is dropping the shadow (or, from
/// kCutOver, dropping the just-activated target — the sources still
/// exist). Any non-retryable error during Run() triggers the same
/// rollback. Thread-safe: Run/RunUntil on one thread, Abort/status from
/// any other.
class MigrationEngine {
 public:
  MigrationEngine(runtime::QueryServer* server, MigrationSpec spec,
                  MigrationOptions options = {});
  ~MigrationEngine();

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  /// Drives the state machine to kRetired. Returns OK on success, the
  /// triggering error after an automatic rollback, or kAborted when
  /// Abort() interrupted the run.
  Status Run();

  /// Advances until `stage` is the current stage (deterministic test
  /// hook: RunUntil(kCatchingUp) stops with the backfill done and the
  /// catch-up pending). Fails if the migration terminates first.
  Status RunUntil(MigrationStage stage);

  /// Requests an abort and rolls back. Blocks until any in-flight stage
  /// transition yields (batch boundaries poll the request). Idempotent;
  /// fails with kFailedPrecondition once the migration retired.
  Status Abort();

  MigrationStatus status() const;
  const MigrationSpec& spec() const { return spec_; }

 private:
  /// One stage transition; step_mu_ held.
  Status StepLocked();
  Status StepPlan();
  Status StepBackfill();
  Status StepCatchUp();
  Status StepCutOver();
  Status StepRetire();
  /// Rollback + transition to kAborted; step_mu_ held.
  void AbortLocked(Status cause);

  runtime::QueryServer* server_;
  MigrationSpec spec_;
  std::string target_;  ///< Target fragment name; empty when drop-only.
  /// Fills the target (idle for a drop-only migration); also holds the
  /// abort request.
  OnlineCopy copy_;

  /// Serializes stage transitions and rollback.
  std::mutex step_mu_;
  std::atomic<MigrationStage> stage_{MigrationStage::kPlanned};
  bool shadow_defined_ = false;  ///< step_mu_ held.
  std::atomic<uint64_t> cutover_epoch_{0};

  /// Terminal error (step_mu_-independent so status() never blocks on a
  /// long-running stage).
  mutable std::mutex error_mu_;
  Status error_;
};

/// Start/status/abort front of the migration engine for a QueryServer:
/// each Start spawns a worker thread running a MigrationEngine, so the
/// server keeps serving while layouts change underneath it.
class MigrationManager {
 public:
  explicit MigrationManager(runtime::QueryServer* server);
  /// Joins every worker (in-flight migrations are aborted).
  ~MigrationManager();

  MigrationManager(const MigrationManager&) = delete;
  MigrationManager& operator=(const MigrationManager&) = delete;

  /// Invoked on the worker thread when its migration terminates — fires
  /// for kRetired *and* kAborted alike (an aborted migration completed,
  /// unsuccessfully), and strictly before Wait/WaitFor can observe the
  /// completion, so a returned Wait implies the callback already ran.
  /// Must not call Wait/WaitFor on the same id from inside (the worker
  /// would wait on itself); nudging a condition variable or queueing work
  /// is the intended use (the Autopilot's daemon loop does the former).
  using CompletionCallback =
      std::function<void(uint64_t id, const MigrationStatus& status)>;

  /// Launches a migration; returns its id immediately.
  Result<uint64_t> Start(MigrationSpec spec, MigrationOptions options = {},
                         CompletionCallback on_complete = nullptr);

  /// Convenience: lifts advisor advice into a spec and starts it.
  Result<uint64_t> StartRecommendation(const advisor::Recommendation& rec,
                                       MigrationOptions options = {},
                                       CompletionCallback on_complete = nullptr);

  Result<MigrationStatus> GetStatus(uint64_t id) const;

  /// Requests rollback of a running migration.
  Status Abort(uint64_t id);

  /// Blocks until the migration terminates; returns its final status.
  Result<MigrationStatus> Wait(uint64_t id);

  /// Bounded Wait: blocks at most `timeout_micros` microseconds. Returns
  /// the final status if the migration terminated in time, and
  /// kUnavailable when it is still running at the deadline (the migration
  /// itself is untouched — callers can retry, Abort, or keep polling).
  Result<MigrationStatus> WaitFor(uint64_t id, uint64_t timeout_micros);

  /// (id, status) of every migration ever started, in id order.
  std::vector<std::pair<uint64_t, MigrationStatus>> List() const;

 private:
  struct Entry {
    std::unique_ptr<MigrationEngine> engine;
    std::thread worker;
    std::atomic<bool> done{false};
  };

  Result<Entry*> Find(uint64_t id) const;

  runtime::QueryServer* server_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::unique_ptr<Entry>> entries_;
  uint64_t next_id_ = 1;
};

}  // namespace estocada::migration

#endif  // ESTOCADA_MIGRATION_MIGRATION_H_
