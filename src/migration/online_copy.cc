#include "migration/online_copy.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "rewriting/materializer.h"
#include "runtime/retry.h"

namespace estocada::migration {

using engine::Row;
using runtime::QueryServer;

namespace {

/// Catch-up rounds before the residual backlog is left to Finish's
/// exclusive-lock section.
constexpr size_t kMaxCatchUpRounds = 16;

}  // namespace

/// What the listener captured since the snapshot.
struct OnlineCopy::UpdateLog {
  std::mutex mu;
  std::vector<std::pair<std::string, Row>> inserts;
  /// A rebuild from staging is due; it subsumes every pending insert.
  bool rebuild = false;
  uint64_t captured = 0;
};

OnlineCopy::OnlineCopy(QueryServer* server, std::string store,
                       CopyOptions options)
    : server_(server),
      store_(std::move(store)),
      options_(options),
      log_(std::make_shared<UpdateLog>()) {}

OnlineCopy::~OnlineCopy() { Detach(); }

void OnlineCopy::Detach() {
  if (listener_token_ != 0) {
    server_->RemoveUpdateListener(listener_token_);
    listener_token_ = 0;
  }
}

CopyProgress OnlineCopy::progress() const {
  CopyProgress out;
  out.rows_copied = counters_.rows_copied.load(std::memory_order_relaxed);
  out.batches = counters_.batches.load(std::memory_order_relaxed);
  out.throttle_stalls =
      counters_.throttle_stalls.load(std::memory_order_relaxed);
  out.deltas_replayed =
      counters_.deltas_replayed.load(std::memory_order_relaxed);
  out.catchup_rounds = counters_.catchup_rounds.load(std::memory_order_relaxed);
  out.rebuilds = counters_.rebuilds.load(std::memory_order_relaxed);
  out.retries = counters_.retries.load(std::memory_order_relaxed);
  out.breaker_pauses = counters_.breaker_pauses.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(log_->mu);
  out.deltas_captured = log_->captured;
  out.lag = log_->inserts.size();
  return out;
}

void OnlineCopy::PauseWhileBreakerOpen() {
  bool counted = false;
  while (!abort_requested()) {
    // ExcludedStores() also performs due open → half-open transitions,
    // which is exactly what lets a paused copy resume and probe.
    std::vector<std::string> excluded = server_->health().ExcludedStores();
    if (std::find(excluded.begin(), excluded.end(), store_) ==
        excluded.end()) {
      break;
    }
    if (!counted) {
      counters_.breaker_pauses.fetch_add(1, std::memory_order_relaxed);
      counted = true;
    }
    paused_.store(true, std::memory_order_release);
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.pause_poll_micros));
  }
  paused_.store(false, std::memory_order_release);
}

Status OnlineCopy::Retry(const std::function<Status()>& op) {
  Status last = Status::Internal("online-copy retry loop never ran");
  const int budget = std::max(1, options_.max_retries);
  for (int attempt = 1; attempt <= budget; ++attempt) {
    if (abort_requested()) {
      return Status::Aborted("online copy aborted during a store operation");
    }
    PauseWhileBreakerOpen();
    Status st = op();
    if (st.ok()) {
      server_->health().ReportSuccess(store_);
      return st;
    }
    if (!runtime::RetryPolicy::IsRetryable(st)) return st;
    last = st;
    counters_.retries.fetch_add(1, std::memory_order_relaxed);
    // Feed the breaker: enough consecutive failures trip it open, and the
    // next attempt's pause waits out the cooldown instead of hammering a
    // down store.
    server_->health().ReportFailure(store_);
    const uint64_t backoff = options_.retry_backoff_micros *
                             static_cast<uint64_t>(std::min(attempt, 8));
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
  }
  return last;
}

Status OnlineCopy::Start(const std::string& fragment, size_t shard,
                         size_t replica) {
  fragment_ = fragment;
  shard_ = shard;
  replica_ = replica;
  std::set<std::string> relations;
  bool appends = true;
  ESTOCADA_RETURN_NOT_OK(server_->WithReadLock([&](const Estocada& sys) {
    ESTOCADA_ASSIGN_OR_RETURN(
        rewriting::ReplicaTarget target,
        rewriting::ResolveReplica(sys.catalog(), fragment, shard, replica));
    for (const pivot::Atom& a : target.desc->view.query.body) {
      relations.insert(a.relation);
    }
    appends = target.driver().appends();
    return Status::OK();
  }));
  // A kind that takes no appends (text) is filled by one rebuild, which
  // every later update re-schedules: the backfill is empty.
  {
    std::lock_guard<std::mutex> lock(log_->mu);
    log_->rebuild = !appends;
  }
  listener_token_ = server_->AddUpdateListener(
      [log = log_, relations = std::move(relations),
       appends](const QueryServer::UpdateEvent& event) {
        if (relations.find(event.relation) == relations.end()) return;
        std::lock_guard<std::mutex> lock(log->mu);
        ++log->captured;
        if (appends && event.kind == QueryServer::UpdateEvent::Kind::kInsert) {
          log->inserts.emplace_back(event.relation, event.row);
        } else {
          // A deletion has no append delta: rebuild from staging.
          log->rebuild = true;
          log->inserts.clear();
        }
      });
  if (!appends) return Status::OK();
  return server_->WithReadLock([&](const Estocada& sys) {
    ESTOCADA_ASSIGN_OR_RETURN(const catalog::StorageDescriptor* desc,
                              sys.catalog().GetFragment(fragment));
    ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> extent,
                              sys.EvaluateFragmentView(fragment));
    // Only the shard's rows: the backfill never ships another shard's.
    return rewriting::ForEachShardBucket(
        *desc, extent, [&](size_t s, const std::vector<Row>& rows) {
          if (s == shard) snapshot_ = rows;
          return Status::OK();
        });
  });
}

Status OnlineCopy::Backfill() {
  const auto start = std::chrono::steady_clock::now();
  const size_t batch_rows = std::max<size_t>(1, options_.batch_rows);
  size_t pos = 0;
  while (pos < snapshot_.size()) {
    if (abort_requested()) return Status::OK();
    const size_t end = std::min(snapshot_.size(), pos + batch_rows);
    std::vector<Row> batch(snapshot_.begin() + pos, snapshot_.begin() + end);
    ESTOCADA_RETURN_NOT_OK(Retry([&] {
      return server_->WithAdminLock([&](Estocada* sys) {
        return sys->AppendToPlacement(fragment_, shard_, replica_, batch);
      });
    }));
    pos = end;
    counters_.batches.fetch_add(1, std::memory_order_relaxed);
    counters_.rows_copied.fetch_add(batch.size(), std::memory_order_relaxed);
    // Budgeted copy rate: sleep whenever we are ahead of the allowance.
    if (options_.max_rows_per_sec > 0) {
      const double budget_secs = static_cast<double>(pos) /
                                 static_cast<double>(options_.max_rows_per_sec);
      const double elapsed_secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed_secs < budget_secs) {
        counters_.throttle_stalls.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(budget_secs - elapsed_secs));
      }
    }
  }
  snapshot_ = {};
  return Status::OK();
}

bool OnlineCopy::Pending() const {
  std::lock_guard<std::mutex> lock(log_->mu);
  return log_->rebuild || !log_->inserts.empty();
}

Status OnlineCopy::DrainLocked(Estocada* sys, size_t max_rows) {
  // The server's exclusive lock is held: no update event can land while
  // this runs, so the backlog is frozen.
  bool rebuild;
  std::vector<std::pair<std::string, Row>> pending;
  {
    std::lock_guard<std::mutex> lock(log_->mu);
    rebuild = log_->rebuild;
    if (!rebuild) {
      size_t n = log_->inserts.size();
      if (max_rows > 0 && n > max_rows) n = max_rows;
      pending.assign(log_->inserts.begin(),
                     log_->inserts.begin() + static_cast<ptrdiff_t>(n));
    }
  }
  if (rebuild) {
    ESTOCADA_RETURN_NOT_OK(
        sys->RebuildPlacement(fragment_, shard_, replica_));
    counters_.rebuilds.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(log_->mu);
    log_->rebuild = false;
    log_->inserts.clear();
    return Status::OK();
  }
  if (pending.empty()) return Status::OK();
  ESTOCADA_RETURN_NOT_OK(
      sys->MaintainPlacement(fragment_, shard_, replica_, pending));
  counters_.deltas_replayed.fetch_add(pending.size(),
                                      std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(log_->mu);
  log_->inserts.erase(log_->inserts.begin(),
                      log_->inserts.begin() +
                          static_cast<ptrdiff_t>(pending.size()));
  return Status::OK();
}

Status OnlineCopy::CatchUp() {
  const size_t chunk = std::max<size_t>(1, options_.batch_rows);
  for (size_t round = 0; round < kMaxCatchUpRounds && Pending(); ++round) {
    counters_.catchup_rounds.fetch_add(1, std::memory_order_relaxed);
    // One round = drain everything currently pending, chunk by chunk:
    // each chunk is its own retryable store operation, so a long backlog
    // under chaos converges instead of retrying one giant append forever.
    while (Pending()) {
      if (abort_requested()) return Status::OK();
      ESTOCADA_RETURN_NOT_OK(Retry([&] {
        return server_->WithAdminLock(
            [&](Estocada* sys) { return DrainLocked(sys, chunk); });
      }));
    }
  }
  return Status::OK();
}

Status OnlineCopy::Finish(const std::function<Status(Estocada*)>& commit) {
  ESTOCADA_RETURN_NOT_OK(Retry([&] {
    return server_->WithAdminLock([&](Estocada* sys) {
      // Catch-up left at most a few residual updates; draining them all
      // here, under the same lock as the commit, is what makes it atomic.
      ESTOCADA_RETURN_NOT_OK(DrainLocked(sys, /*max_rows=*/0));
      ESTOCADA_RETURN_NOT_OK(sys->VerifyReplica(fragment_, shard_, replica_));
      return commit(sys);
    });
  }));
  // The placement serves now: the write fan-out maintains it.
  Detach();
  return Status::OK();
}

}  // namespace estocada::migration
