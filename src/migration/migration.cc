#include "migration/migration.h"

#include <algorithm>
#include <chrono>

#include "common/strings.h"
#include "rewriting/store_driver.h"
#include "runtime/retry.h"

namespace estocada::migration {

using engine::Row;
using runtime::QueryServer;

const char* StageName(MigrationStage stage) {
  switch (stage) {
    case MigrationStage::kPlanned:
      return "Planned";
    case MigrationStage::kBackfilling:
      return "Backfilling";
    case MigrationStage::kCatchingUp:
      return "CatchingUp";
    case MigrationStage::kVerifying:
      return "Verifying";
    case MigrationStage::kCutOver:
      return "CutOver";
    case MigrationStage::kRetired:
      return "Retired";
    case MigrationStage::kAborted:
      return "Aborted";
  }
  return "?";
}

std::string MigrationSpec::ToString() const {
  std::string out;
  if (drop_only()) {
    out = "drop-only migration";
  } else {
    out = StrCat("migrate ", view.query.ToString(), " @ ", store_name);
  }
  if (!retire.empty()) {
    out += StrCat(" (retire ", StrJoin(retire, ", "), ")");
  }
  return out;
}

MigrationSpec MigrationSpec::FromRecommendation(
    const advisor::Recommendation& rec) {
  MigrationSpec spec;
  if (rec.action == advisor::Recommendation::Action::kDropFragment) {
    spec.retire.push_back(rec.fragment_name);
  } else {
    spec.view = rec.view;
    spec.store_name = rec.store_name;
  }
  return spec;
}

std::string MigrationStatus::ToString() const {
  std::string out = StrCat("[", StageName(stage), paused ? ", paused" : "",
                           "] copied ", metrics.rows_copied, " rows in ",
                           metrics.batches, " batches, replayed ",
                           metrics.deltas_replayed, "/",
                           metrics.deltas_captured, " deltas (lag ",
                           metrics.catchup_lag, "), ", metrics.rebuilds,
                           " rebuilds, ", metrics.target_retries,
                           " retries, ", metrics.breaker_pauses, " pauses");
  if (stage == MigrationStage::kCutOver || stage == MigrationStage::kRetired) {
    out += StrCat(", cutover epoch ", metrics.cutover_epoch);
  }
  if (!error.ok()) out += StrCat(" — ", error.ToString());
  return out;
}

MigrationEngine::MigrationEngine(QueryServer* server, MigrationSpec spec,
                                 MigrationOptions options)
    : server_(server), spec_(std::move(spec)), options_(options) {
  if (!spec_.drop_only()) target_ = spec_.view.name();
  for (const pivot::Atom& a : spec_.view.query.body) {
    view_relations_.insert(a.relation);
  }
}

MigrationEngine::~MigrationEngine() {
  std::lock_guard<std::mutex> lock(step_mu_);
  DetachListener();
}

void MigrationEngine::DetachListener() {
  if (listener_token_ != 0) {
    server_->RemoveUpdateListener(listener_token_);
    listener_token_ = 0;
  }
}

MigrationStatus MigrationEngine::status() const {
  MigrationStatus out;
  out.stage = stage_.load(std::memory_order_acquire);
  out.paused = paused_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    out.error = error_;
  }
  out.metrics.rows_copied = metrics_.rows_copied.load();
  out.metrics.batches = metrics_.batches.load();
  out.metrics.throttle_stalls = metrics_.throttle_stalls.load();
  out.metrics.deltas_captured = metrics_.deltas_captured.load();
  out.metrics.deltas_replayed = metrics_.deltas_replayed.load();
  out.metrics.catchup_rounds = metrics_.catchup_rounds.load();
  out.metrics.rebuilds = metrics_.rebuilds.load();
  out.metrics.target_retries = metrics_.target_retries.load();
  out.metrics.breaker_pauses = metrics_.breaker_pauses.load();
  out.metrics.cutover_epoch = metrics_.cutover_epoch.load();
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    out.metrics.catchup_lag = deltas_.size();
  }
  return out;
}

void MigrationEngine::PauseWhileBreakerOpen() {
  if (spec_.store_name.empty()) return;
  bool counted = false;
  while (!abort_requested_.load(std::memory_order_acquire)) {
    // ExcludedStores() also performs due open → half-open transitions,
    // which is exactly what lets a paused migration resume.
    std::vector<std::string> excluded = server_->health().ExcludedStores();
    if (std::find(excluded.begin(), excluded.end(), spec_.store_name) ==
        excluded.end()) {
      break;
    }
    if (!counted) {
      metrics_.breaker_pauses.fetch_add(1, std::memory_order_relaxed);
      counted = true;
    }
    paused_.store(true, std::memory_order_release);
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.throttle.pause_poll_micros));
  }
  paused_.store(false, std::memory_order_release);
}

Status MigrationEngine::RetryTargetOp(const std::function<Status()>& op) {
  Status last = Status::Internal("migration retry loop never ran");
  const int budget = std::max(1, options_.max_target_retries);
  for (int attempt = 1; attempt <= budget; ++attempt) {
    if (abort_requested_.load(std::memory_order_acquire)) {
      return Status::Aborted("migration aborted during a target operation");
    }
    PauseWhileBreakerOpen();
    Status st = op();
    if (st.ok()) {
      if (!spec_.store_name.empty()) {
        server_->health().ReportSuccess(spec_.store_name);
      }
      return st;
    }
    if (!runtime::RetryPolicy::IsRetryable(st)) return st;
    last = st;
    metrics_.target_retries.fetch_add(1, std::memory_order_relaxed);
    // Feed the breaker: enough consecutive failures trip it open, and the
    // next attempt's PauseWhileBreakerOpen waits out the cooldown instead
    // of hammering a down store.
    if (!spec_.store_name.empty()) {
      server_->health().ReportFailure(spec_.store_name);
    }
    uint64_t backoff =
        options_.retry_backoff_micros *
        static_cast<uint64_t>(std::min(attempt, 8));
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
  }
  return last;
}

Status MigrationEngine::DrainDeltasLocked(Estocada* sys, size_t max_rows) {
  if (target_.empty()) return Status::OK();
  // The server's exclusive lock is held: no update event can land while
  // this runs, so the backlog is frozen. It is only consumed on success,
  // which makes the enclosing RetryTargetOp envelope idempotent.
  bool rebuild;
  std::vector<std::pair<std::string, Row>> pending;
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    rebuild = needs_rebuild_;
    if (!rebuild) {
      size_t n = deltas_.size();
      if (max_rows > 0 && n > max_rows) n = max_rows;
      pending.assign(deltas_.begin(),
                     deltas_.begin() + static_cast<ptrdiff_t>(n));
    }
  }
  if (rebuild) {
    ESTOCADA_RETURN_NOT_OK(sys->RebuildShadowFragment(target_));
    metrics_.rebuilds.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(delta_mu_);
    needs_rebuild_ = false;
    deltas_.clear();
    return Status::OK();
  }
  if (pending.empty()) return Status::OK();
  ESTOCADA_RETURN_NOT_OK(sys->MaintainShadowFragment(target_, pending));
  metrics_.deltas_replayed.fetch_add(pending.size(),
                                     std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(delta_mu_);
  deltas_.erase(deltas_.begin(),
                deltas_.begin() + static_cast<ptrdiff_t>(pending.size()));
  return Status::OK();
}

Status MigrationEngine::StepPlan() {
  bool target_rebuilds = false;
  // The retry envelope covers shadow-container creation too: the target
  // store rejects writes during a hard outage, and DefineShadowFragment
  // leaves nothing behind on failure, so re-running it is safe.
  ESTOCADA_RETURN_NOT_OK(RetryTargetOp([&] {
    return server_->WithAdminLock([&](Estocada* sys) {
    for (const std::string& name : spec_.retire) {
      auto frag = sys->catalog().GetFragment(name);
      if (!frag.ok()) return frag.status();
      if ((*frag)->is_shadow()) {
        return Status::FailedPrecondition(
            StrCat("cannot retire '", name, "': it is a shadow fragment"));
      }
    }
      if (spec_.drop_only()) return Status::OK();
      ESTOCADA_RETURN_NOT_OK(sys->DefineShadowFragment(
          spec_.view, spec_.store_name, spec_.index_positions));
      shadow_defined_ = true;
      auto store = sys->catalog().GetStore(spec_.store_name);
      if (!store.ok()) return store.status();
      target_rebuilds = !rewriting::DriverFor((*store)->kind).appends();
      return Status::OK();
    });
  }));
  if (!spec_.drop_only()) {
    // Listener before snapshot: an update in the gap is both captured as
    // a delta and visible to the snapshot — replaying it twice is benign
    // under set semantics, missing it would not be.
    listener_token_ = server_->AddUpdateListener(
        [this](const QueryServer::UpdateEvent& event) {
          if (view_relations_.find(event.relation) == view_relations_.end()) {
            return;
          }
          metrics_.deltas_captured.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(delta_mu_);
          if (event.kind == QueryServer::UpdateEvent::Kind::kInsert) {
            deltas_.emplace_back(event.relation, event.row);
          } else {
            // Deletions have no append delta: schedule a full rebuild
            // (which subsumes every pending insert delta).
            needs_rebuild_ = true;
            deltas_.clear();
          }
        });
    if (target_rebuilds) {
      // The target kind takes no appends (text): the whole backfill is
      // one rebuild, scheduled through the same catch-up path deletions
      // use.
      std::lock_guard<std::mutex> lock(delta_mu_);
      needs_rebuild_ = true;
    } else {
      ESTOCADA_RETURN_NOT_OK(server_->WithReadLock([&](const Estocada& sys) {
        ESTOCADA_ASSIGN_OR_RETURN(snapshot_,
                                  sys.EvaluateFragmentView(target_));
        return Status::OK();
      }));
    }
  }
  stage_.store(MigrationStage::kBackfilling, std::memory_order_release);
  return Status::OK();
}

Status MigrationEngine::StepBackfill() {
  backfill_start_ = std::chrono::steady_clock::now();
  const size_t batch_rows = std::max<size_t>(1, options_.throttle.batch_rows);
  while (backfill_pos_ < snapshot_.size()) {
    if (abort_requested_.load(std::memory_order_acquire)) {
      return Status::OK();  // The run loop rolls back.
    }
    const size_t end =
        std::min(snapshot_.size(), backfill_pos_ + batch_rows);
    std::vector<Row> batch(snapshot_.begin() + backfill_pos_,
                           snapshot_.begin() + end);
    ESTOCADA_RETURN_NOT_OK(RetryTargetOp([&] {
      return server_->WithAdminLock([&](Estocada* sys) {
        return sys->AppendToShadowFragment(target_, batch);
      });
    }));
    backfill_pos_ = end;
    metrics_.batches.fetch_add(1, std::memory_order_relaxed);
    metrics_.rows_copied.fetch_add(batch.size(), std::memory_order_relaxed);
    // Budgeted copy rate: sleep whenever we are ahead of the allowance.
    if (options_.throttle.max_rows_per_sec > 0) {
      double budget_secs =
          static_cast<double>(backfill_pos_) /
          static_cast<double>(options_.throttle.max_rows_per_sec);
      double elapsed_secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        backfill_start_)
              .count();
      if (elapsed_secs < budget_secs) {
        metrics_.throttle_stalls.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(budget_secs - elapsed_secs));
      }
    }
  }
  stage_.store(MigrationStage::kCatchingUp, std::memory_order_release);
  return Status::OK();
}

Status MigrationEngine::StepCatchUp() {
  const size_t chunk = std::max<size_t>(1, options_.throttle.batch_rows);
  for (size_t round = 0; round < options_.max_catchup_rounds; ++round) {
    if (abort_requested_.load(std::memory_order_acquire)) return Status::OK();
    bool backlog;
    {
      std::lock_guard<std::mutex> lock(delta_mu_);
      backlog = needs_rebuild_ || !deltas_.empty();
    }
    if (!backlog) break;
    metrics_.catchup_rounds.fetch_add(1, std::memory_order_relaxed);
    // One round = drain everything currently pending, chunk by chunk:
    // each chunk is its own retryable store operation, so a long backlog
    // under chaos converges instead of retrying one giant append forever.
    for (;;) {
      if (abort_requested_.load(std::memory_order_acquire)) {
        return Status::OK();
      }
      {
        std::lock_guard<std::mutex> lock(delta_mu_);
        if (!needs_rebuild_ && deltas_.empty()) break;
      }
      ESTOCADA_RETURN_NOT_OK(RetryTargetOp([&] {
        return server_->WithAdminLock(
            [&](Estocada* sys) { return DrainDeltasLocked(sys, chunk); });
      }));
    }
  }
  // A residual backlog (updates kept racing the rounds) is fine: the
  // cutover section drains it atomically.
  stage_.store(MigrationStage::kVerifying, std::memory_order_release);
  return Status::OK();
}

Status MigrationEngine::StepCutOver() {
  if (!spec_.drop_only()) {
    // One exclusive-lock section: final catch-up, verification against
    // the staging truth, activation (the epoch bump). Queries admitted
    // after it plan against the new layout; nothing in between can
    // observe a half-cut-over catalog.
    ESTOCADA_RETURN_NOT_OK(RetryTargetOp([&] {
      return server_->WithAdminLock([&](Estocada* sys) {
        // Catch-up left at most a few residual deltas; draining them all
        // here is what makes the cutover atomic.
        ESTOCADA_RETURN_NOT_OK(DrainDeltasLocked(sys, /*max_rows=*/0));
        if (options_.verify) {
          ESTOCADA_RETURN_NOT_OK(sys->VerifyFragment(target_));
        }
        ESTOCADA_RETURN_NOT_OK(sys->ActivateShadowFragment(target_));
        metrics_.cutover_epoch.store(sys->catalog_epoch(),
                                     std::memory_order_relaxed);
        return Status::OK();
      });
    }));
  }
  stage_.store(MigrationStage::kCutOver, std::memory_order_release);
  return Status::OK();
}

Status MigrationEngine::StepRetire() {
  ESTOCADA_RETURN_NOT_OK(server_->WithAdminLock([&](Estocada* sys) {
    for (const std::string& name : spec_.retire) {
      Status st = sys->DropFragment(name);
      // Dropped behind our back (a racing admin call): nothing to do.
      if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
    }
    return Status::OK();
  }));
  DetachListener();
  stage_.store(MigrationStage::kRetired, std::memory_order_release);
  return Status::OK();
}

Status MigrationEngine::StepLocked() {
  switch (stage_.load(std::memory_order_acquire)) {
    case MigrationStage::kPlanned:
      return StepPlan();
    case MigrationStage::kBackfilling:
      return StepBackfill();
    case MigrationStage::kCatchingUp:
      return StepCatchUp();
    case MigrationStage::kVerifying:
      return StepCutOver();
    case MigrationStage::kCutOver:
      return StepRetire();
    case MigrationStage::kRetired:
    case MigrationStage::kAborted:
      return Status::OK();
  }
  return Status::Internal("unknown migration stage");
}

void MigrationEngine::AbortLocked(Status cause) {
  MigrationStage stage = stage_.load(std::memory_order_acquire);
  if (stage == MigrationStage::kRetired ||
      stage == MigrationStage::kAborted) {
    return;
  }
  DetachListener();
  if (!target_.empty() && shadow_defined_) {
    if (stage == MigrationStage::kCutOver) {
      // Already activated but the sources still exist: dropping the
      // target (an epoch bump) returns every query to the old layout.
      (void)server_->WithAdminLock([&](Estocada* sys) {
        Status st = sys->DropFragment(target_);
        return st.code() == StatusCode::kNotFound ? Status::OK() : st;
      });
    } else {
      // Pre-cutover the planner never saw the target: dropping the
      // shadow leaves no trace (and no epoch bump).
      (void)server_->WithAdminLock([&](Estocada* sys) {
        Status st = sys->DropShadowFragment(target_);
        return st.code() == StatusCode::kNotFound ? Status::OK() : st;
      });
    }
    shadow_defined_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error_ = std::move(cause);
  }
  stage_.store(MigrationStage::kAborted, std::memory_order_release);
}

Status MigrationEngine::Run() {
  for (;;) {
    std::lock_guard<std::mutex> lock(step_mu_);
    MigrationStage stage = stage_.load(std::memory_order_acquire);
    if (stage == MigrationStage::kRetired) return Status::OK();
    if (stage == MigrationStage::kAborted) {
      std::lock_guard<std::mutex> elock(error_mu_);
      return error_.ok() ? Status::Aborted("migration aborted") : error_;
    }
    if (abort_requested_.load(std::memory_order_acquire)) {
      AbortLocked(Status::Aborted("migration aborted on request"));
      continue;
    }
    Status st = StepLocked();
    if (!st.ok()) AbortLocked(std::move(st));
  }
}

Status MigrationEngine::RunUntil(MigrationStage stage) {
  for (;;) {
    std::lock_guard<std::mutex> lock(step_mu_);
    MigrationStage current = stage_.load(std::memory_order_acquire);
    if (current == stage) return Status::OK();
    if (current == MigrationStage::kRetired ||
        current == MigrationStage::kAborted) {
      std::lock_guard<std::mutex> elock(error_mu_);
      return Status::FailedPrecondition(
          StrCat("migration terminated at ", StageName(current),
                 " before reaching ", StageName(stage),
                 error_.ok() ? "" : StrCat(" (", error_.ToString(), ")")));
    }
    if (abort_requested_.load(std::memory_order_acquire)) {
      AbortLocked(Status::Aborted("migration aborted on request"));
      continue;
    }
    Status st = StepLocked();
    if (!st.ok()) AbortLocked(std::move(st));
  }
}

Status MigrationEngine::Abort() {
  abort_requested_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(step_mu_);
  MigrationStage stage = stage_.load(std::memory_order_acquire);
  if (stage == MigrationStage::kRetired) {
    return Status::FailedPrecondition(
        "migration already retired; the cutover is permanent");
  }
  if (stage == MigrationStage::kAborted) return Status::OK();
  AbortLocked(Status::Aborted("migration aborted on request"));
  return Status::OK();
}

// ----------------------------------------------------------------------
// MigrationManager

MigrationManager::MigrationManager(QueryServer* server) : server_(server) {}

MigrationManager::~MigrationManager() {
  std::vector<Entry*> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, entry] : entries_) entries.push_back(entry.get());
  }
  for (Entry* entry : entries) {
    if (!entry->done.load()) (void)entry->engine->Abort();
  }
  for (Entry* entry : entries) {
    if (entry->worker.joinable()) entry->worker.join();
  }
}

Result<uint64_t> MigrationManager::Start(MigrationSpec spec,
                                         MigrationOptions options,
                                         CompletionCallback on_complete) {
  if (spec.drop_only() && spec.retire.empty()) {
    return Status::InvalidArgument(
        "migration spec has neither a target view nor fragments to retire");
  }
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  auto entry = std::make_unique<Entry>();
  entry->engine = std::make_unique<MigrationEngine>(server_, std::move(spec),
                                                    options);
  Entry* raw = entry.get();
  entry->worker = std::thread([raw, id, cb = std::move(on_complete)] {
    (void)raw->engine->Run();
    // Callback before the done flip: a Wait/WaitFor that returned implies
    // the callback already finished.
    if (cb) cb(id, raw->engine->status());
    raw->done.store(true, std::memory_order_release);
  });
  entries_.emplace(id, std::move(entry));
  return id;
}

Result<uint64_t> MigrationManager::StartRecommendation(
    const advisor::Recommendation& rec, MigrationOptions options,
    CompletionCallback on_complete) {
  return Start(MigrationSpec::FromRecommendation(rec), options,
               std::move(on_complete));
}

Result<MigrationManager::Entry*> MigrationManager::Find(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound(StrCat("no migration with id ", id));
  }
  return it->second.get();
}

Result<MigrationStatus> MigrationManager::GetStatus(uint64_t id) const {
  ESTOCADA_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  return entry->engine->status();
}

Status MigrationManager::Abort(uint64_t id) {
  ESTOCADA_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  return entry->engine->Abort();
}

Result<MigrationStatus> MigrationManager::Wait(uint64_t id) {
  ESTOCADA_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  while (!entry->done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->worker.joinable()) entry->worker.join();
  }
  return entry->engine->status();
}

Result<MigrationStatus> MigrationManager::WaitFor(uint64_t id,
                                                  uint64_t timeout_micros) {
  ESTOCADA_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout_micros);
  while (!entry->done.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Unavailable(
          StrCat("migration ", id, " still running after ", timeout_micros,
                 "us"));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->worker.joinable()) entry->worker.join();
  }
  return entry->engine->status();
}

std::vector<std::pair<uint64_t, MigrationStatus>> MigrationManager::List()
    const {
  std::vector<std::pair<uint64_t, MigrationStatus>> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    out.emplace_back(id, entry->engine->status());
  }
  return out;
}

}  // namespace estocada::migration
