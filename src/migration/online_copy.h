#ifndef ESTOCADA_MIGRATION_ONLINE_COPY_H_
#define ESTOCADA_MIGRATION_ONLINE_COPY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "runtime/query_server.h"

namespace estocada::migration {

/// How an online copy paces itself and rides out a failing store. One
/// struct for both callers: a migration fills a shadow fragment with it
/// (MigrationOptions), a replica repair a rebuilding replica
/// (replication::RepairOptions).
struct CopyOptions {
  /// Rows appended per exclusive-lock acquisition. Each batch briefly
  /// takes the server's exclusive lock (that is what keeps the copy
  /// transactional against readers), so small batches bound the stall
  /// the query path can observe.
  size_t batch_rows = 256;
  /// Sustained backfill-rate ceiling; 0 = unthrottled.
  size_t max_rows_per_sec = 0;
  /// Retry budget for store operations that fail kUnavailable; each retry
  /// first waits out the store's open breaker.
  int max_retries = 64;
  /// Base backoff between those retries (grows linearly, capped at 8x).
  uint64_t retry_backoff_micros = 100;
  /// Poll interval while paused on the store's open breaker.
  uint64_t pause_poll_micros = 200;
};

/// Counters of one online copy.
struct CopyProgress {
  uint64_t rows_copied = 0;      ///< Backfill rows appended.
  uint64_t batches = 0;          ///< Exclusive-lock append batches.
  uint64_t throttle_stalls = 0;  ///< Sleeps forced by max_rows_per_sec.
  uint64_t deltas_captured = 0;  ///< Update events logged for catch-up.
  uint64_t deltas_replayed = 0;  ///< Inserts replayed through the delta rule.
  uint64_t catchup_rounds = 0;   ///< Catch-up iterations executed.
  uint64_t rebuilds = 0;         ///< Rebuilds from staging (deletes, text).
  uint64_t retries = 0;          ///< kUnavailable retries against the store.
  uint64_t breaker_pauses = 0;   ///< Pauses on the store's open breaker.
  uint64_t lag = 0;              ///< Inserts currently pending replay.
};

/// Fills one *non-serving placement* — the container of a shadow
/// fragment, or a replica flagged `rebuilding` — from the staging truth
/// while the server keeps serving and taking writes:
///
///  * Start: attaches an update listener (an insert into one of the
///    view's relations becomes a delta; a deletion, or any update when
///    the placement's kind takes no appends, schedules a rebuild instead),
///    then snapshots the view over staging. Listener before snapshot: an
///    update in the gap is both captured and visible to the snapshot —
///    replaying it twice is benign under set semantics, missing it would
///    not be.
///  * Backfill: appends the snapshot in throttled batches, each under a
///    short exclusive-lock window.
///  * CatchUp: replays what the listener captured, in rounds, chunk by
///    chunk — inserts through the delta rule, a scheduled rebuild by
///    reloading the placement from staging.
///  * Finish: one exclusive-lock section drains the rest, verifies the
///    placement against the staging truth, and runs the caller's commit
///    step (a migration activates its shadow; a repair digest-checks and
///    admits its replica). Nothing in between can observe a half-filled
///    placement.
///
/// Every store operation runs in one retry envelope: kUnavailable
/// failures are retried with backoff, feed the store's circuit breaker,
/// and wait out an open breaker first. The envelope stops early when an
/// abort is requested. The caller creates the empty placement before
/// Start and owns what happens to it after a failure.
///
/// Run the steps on one thread; RequestAbort, paused and progress are
/// safe from any other.
class OnlineCopy {
 public:
  /// `store` is the placement's store: the breaker the envelope watches
  /// and feeds.
  OnlineCopy(runtime::QueryServer* server, std::string store,
             CopyOptions options);
  /// Detaches the listener.
  ~OnlineCopy();

  OnlineCopy(const OnlineCopy&) = delete;
  OnlineCopy& operator=(const OnlineCopy&) = delete;

  /// Runs `op` in the retry envelope.
  Status Retry(const std::function<Status()>& op);

  /// Addresses the placement — replica `replica` of shard `shard` of
  /// `fragment`, which the caller already created empty — attaches the
  /// listener and takes the snapshot of the rows the shard owns.
  Status Start(const std::string& fragment, size_t shard, size_t replica);
  /// Appends the snapshot; returns early (OK) on an abort request.
  Status Backfill();
  /// Replays the captured updates; returns early (OK) on an abort
  /// request. A residual backlog (updates kept racing the rounds) is
  /// left to Finish.
  Status CatchUp();
  /// Drain, verify, `commit`, all under one exclusive lock; detaches the
  /// listener once the commit succeeded.
  Status Finish(const std::function<Status(Estocada*)>& commit);
  /// Stops capturing updates. Idempotent.
  void Detach();

  void RequestAbort() { abort_.store(true, std::memory_order_release); }
  bool abort_requested() const {
    return abort_.load(std::memory_order_acquire);
  }
  /// True while waiting out an open breaker.
  bool paused() const { return paused_.load(std::memory_order_acquire); }
  CopyProgress progress() const;

 private:
  struct UpdateLog;

  void PauseWhileBreakerOpen();
  /// Replays the frozen backlog (exclusive lock held via `sys`): the
  /// scheduled rebuild, or at most `max_rows` inserts (0 = all). Chunking
  /// bounds the fault exposure of each attempt — an all-or-nothing replay
  /// of a long backlog would never succeed at a 10% fault rate. The
  /// backlog is consumed only on success, so retries are idempotent.
  Status DrainLocked(Estocada* sys, size_t max_rows);
  bool Pending() const;

  runtime::QueryServer* server_;
  const std::string store_;
  const CopyOptions options_;
  std::string fragment_;
  size_t shard_ = 0;
  size_t replica_ = 0;

  /// Shared with the listener, which may still run (on a writer thread,
  /// under the server's exclusive lock) while Detach removes it. Lock
  /// order: server lock before the log's mutex.
  std::shared_ptr<UpdateLog> log_;
  uint64_t listener_token_ = 0;  ///< 0 = detached.

  std::vector<engine::Row> snapshot_;

  std::atomic<bool> abort_{false};
  std::atomic<bool> paused_{false};
  struct Counters {
    std::atomic<uint64_t> rows_copied{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> throttle_stalls{0};
    std::atomic<uint64_t> deltas_replayed{0};
    std::atomic<uint64_t> catchup_rounds{0};
    std::atomic<uint64_t> rebuilds{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> breaker_pauses{0};
  };
  Counters counters_;
};

}  // namespace estocada::migration

#endif  // ESTOCADA_MIGRATION_ONLINE_COPY_H_
