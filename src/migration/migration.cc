#include "migration/migration.h"

#include <chrono>

#include "common/strings.h"

namespace estocada::migration {

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
    : server_(server),
      spec_(std::move(spec)),
      copy_(server, spec_.store_name, options) {
  if (!spec_.drop_only()) target_ = spec_.view.name();
}

MigrationEngine::~MigrationEngine() {
  std::lock_guard<std::mutex> lock(step_mu_);
  copy_.Detach();
}

MigrationStatus MigrationEngine::status() const {
  MigrationStatus out;
  out.stage = stage_.load(std::memory_order_acquire);
  out.paused = copy_.paused();
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    out.error = error_;
  }
  const CopyProgress p = copy_.progress();
  out.metrics.rows_copied = p.rows_copied;
  out.metrics.batches = p.batches;
  out.metrics.throttle_stalls = p.throttle_stalls;
  out.metrics.deltas_captured = p.deltas_captured;
  out.metrics.deltas_replayed = p.deltas_replayed;
  out.metrics.catchup_rounds = p.catchup_rounds;
  out.metrics.rebuilds = p.rebuilds;
  out.metrics.target_retries = p.retries;
  out.metrics.breaker_pauses = p.breaker_pauses;
  out.metrics.cutover_epoch = cutover_epoch_.load(std::memory_order_relaxed);
  out.metrics.catchup_lag = p.lag;
  return out;
}

Status MigrationEngine::StepPlan() {
  auto validate = [&](Estocada* sys) -> Status {
    for (const std::string& name : spec_.retire) {
      ESTOCADA_ASSIGN_OR_RETURN(const catalog::StorageDescriptor* frag,
                                sys->catalog().GetFragment(name));
      if (frag->is_shadow()) {
        return Status::FailedPrecondition(
            StrCat("cannot retire '", name, "': it is a shadow fragment"));
      }
    }
    return Status::OK();
  };
  if (spec_.drop_only()) {
    ESTOCADA_RETURN_NOT_OK(server_->WithAdminLock(validate));
  } else {
    // The retry envelope covers shadow-container creation too: the target
    // store rejects writes during a hard outage, and DefineShadowFragment
    // leaves nothing behind on failure, so re-running it is safe.
    ESTOCADA_RETURN_NOT_OK(copy_.Retry([&] {
      return server_->WithAdminLock([&](Estocada* sys) {
        ESTOCADA_RETURN_NOT_OK(validate(sys));
        ESTOCADA_RETURN_NOT_OK(sys->DefineShadowFragment(
            spec_.view, spec_.store_name, spec_.index_positions));
        shadow_defined_ = true;
        return Status::OK();
      });
    }));
    ESTOCADA_RETURN_NOT_OK(copy_.Start(target_, /*shard=*/0, /*replica=*/0));
  }
  stage_.store(MigrationStage::kBackfilling, std::memory_order_release);
  return Status::OK();
}

Status MigrationEngine::StepBackfill() {
  ESTOCADA_RETURN_NOT_OK(copy_.Backfill());
  // An abort request cut the backfill short: the run loop rolls back.
  if (copy_.abort_requested()) return Status::OK();
  stage_.store(MigrationStage::kCatchingUp, std::memory_order_release);
  return Status::OK();
}

Status MigrationEngine::StepCatchUp() {
  ESTOCADA_RETURN_NOT_OK(copy_.CatchUp());
  if (copy_.abort_requested()) return Status::OK();
  stage_.store(MigrationStage::kVerifying, std::memory_order_release);
  return Status::OK();
}

Status MigrationEngine::StepCutOver() {
  if (!spec_.drop_only()) {
    // The copy's final section drains, verifies and activates under one
    // exclusive lock: queries admitted after it plan against the new
    // layout, and nothing in between can observe a half-cut-over catalog.
    ESTOCADA_RETURN_NOT_OK(copy_.Finish([&](Estocada* sys) {
      ESTOCADA_RETURN_NOT_OK(sys->ActivateShadowFragment(target_));
      cutover_epoch_.store(sys->catalog_epoch(), std::memory_order_relaxed);
      return Status::OK();
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
  copy_.Detach();
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
    if (copy_.abort_requested()) {
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
    if (copy_.abort_requested()) {
      AbortLocked(Status::Aborted("migration aborted on request"));
      continue;
    }
    Status st = StepLocked();
    if (!st.ok()) AbortLocked(std::move(st));
  }
}

Status MigrationEngine::Abort() {
  copy_.RequestAbort();
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
