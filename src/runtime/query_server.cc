#include "runtime/query_server.h"

#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "pivot/parser.h"

namespace estocada::runtime {

namespace {
double ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace

QueryServer::QueryServer(Estocada* system, ServerOptions options)
    : system_(system),
      options_(options),
      cache_(options.cache),
      health_(options.health),
      rng_(options.backoff_jitter_seed),
      pool_(options.worker_threads == 0 ? 1 : options.worker_threads) {
  // Build the rewriter eagerly so the first queries take the fast path.
  std::unique_lock lock(mu_);
  (void)system_->PrepareRewriter();
}

QueryServer::~QueryServer() { pool_.WaitIdle(); }

std::vector<std::string> QueryServer::AttributeFailure(
    const Status& st, const std::vector<std::string>& plan_stores) const {
  std::vector<std::string> out;
  for (const std::string& store : plan_stores) {
    if (st.message().find(StrCat("store '", store, "'")) !=
        std::string::npos) {
      out.push_back(store);
    }
  }
  if (out.empty()) out = plan_stores;
  return out;
}

Result<Estocada::QueryResult> QueryServer::ServeFromStaging(
    const CanonicalQuery& canonical,
    const std::map<std::string, engine::Value>& parameters,
    std::vector<std::string> excluded, int attempt) {
  metrics_.RecordDegraded();
  Estocada::QueryResult result;
  ESTOCADA_ASSIGN_OR_RETURN(
      result.rows,
      system_->EvaluateOverStagingPrepared(canonical.query, parameters));
  result.degraded_to_staging = true;
  result.attempts = attempt;
  result.excluded_stores = std::move(excluded);
  result.rewriting_text = "(staging fallback)";
  result.plan_text = "(staging fallback: no rewriting survived the health "
                     "exclusions)";
  return result;
}

Result<PlanCache::CachedRewritings> QueryServer::RewritingsLocked(
    const CanonicalQuery& canonical, uint64_t epoch, uint64_t health_epoch) {
  PlanCache::CachedRewritings cached =
      cache_.Lookup(canonical.key, epoch, health_epoch);
  if (cached != nullptr) {
    metrics_.RecordCacheHit();
    return cached;
  }
  metrics_.RecordCacheMiss();
  metrics_.RecordRewrite();
  ESTOCADA_ASSIGN_OR_RETURN(pacb::RewritingResult rewritings,
                            system_->RewritePrepared(canonical.query));
  cached = std::make_shared<const pacb::RewritingResult>(std::move(rewritings));
  cache_.Insert(canonical.key, epoch, cached, health_epoch);
  return cached;
}

Result<Estocada::QueryResult> QueryServer::ServeLocked(
    const std::string& query_text,
    const std::map<std::string, engine::Value>& parameters, int attempt,
    uint64_t* planned_health_epoch) {
  uint64_t epoch = system_->catalog_epoch();
  // ExcludedStores() first: it performs due open → half-open transitions,
  // which bump the health epoch we key the cache on.
  std::vector<std::string> excluded;
  std::vector<std::string> probation;
  if (options_.fault_tolerant) {
    excluded = health_.ExcludedStores();
    probation = health_.ProbationStores();
  }
  uint64_t health_epoch = health_.health_epoch();
  if (planned_health_epoch != nullptr) *planned_health_epoch = health_epoch;
  rewriting::PlanConstraints constraints{excluded, probation};

  ESTOCADA_ASSIGN_OR_RETURN(std::shared_ptr<const CanonicalQuery> canonical,
                            CanonicalizeCached(query_text, epoch));
  std::map<std::string, engine::Value> remapped =
      RemapParameters(*canonical, parameters);

  // The cache holds the *complete* rewriting set of a query shape;
  // exclusions are applied at translation time, so an entry stays correct
  // for whatever breaker state holds at the moment it is used. Keying on
  // the health epoch additionally drops entries across availability
  // changes, re-admitting them against the new store set.
  Result<PlanCache::CachedRewritings> rewritings =
      RewritingsLocked(*canonical, epoch, health_epoch);
  if (!canonical->lifted.empty() &&
      (!rewritings.ok() || !LiftSurvives(*canonical, **rewritings))) {
    // The lifted set stays cached: a later text of this shape re-reads
    // the verdict from it instead of rewriting again, and goes straight
    // to its own constants.
    const bool guard_fired = rewritings.ok();
    metrics_.RecordLiftRejection();
    ESTOCADA_ASSIGN_OR_RETURN(pivot::ConjunctiveQuery q,
                              pivot::ParseQuery(query_text));
    canonical = std::make_shared<const CanonicalQuery>(Canonicalize(q));
    remapped = RemapParameters(*canonical, parameters);
    rewritings = RewritingsLocked(*canonical, epoch, health_epoch);
    if (guard_fired && !rewritings.ok() &&
        rewritings.status().code() == StatusCode::kChaseFailure) {
      // The lifted chase settled, and the constant chase can differ from
      // it only at the merges the guard saw: there the constants clash,
      // so no rewriting exists. The staging area still answers exactly,
      // also where evaluation equates constants the chase tells apart
      // (1 and 1.0).
      Result<Estocada::QueryResult> staged = ServeFromStaging(
          *canonical, remapped, std::move(excluded), attempt);
      if (staged.ok()) {
        staged->plan_text =
            "(staging fallback: the query's constants clash in the chase)";
      }
      return staged;
    }
  }
  Result<rewriting::PlanSet> planned =
      rewritings.ok()
          ? system_->PlanFromRewritings(**rewritings, remapped, constraints)
          : Result<rewriting::PlanSet>(rewritings.status());
  if (!planned.ok()) {
    if (options_.fault_tolerant &&
        planned.status().code() == StatusCode::kUnavailable) {
      // Planning starved by the exclusions: no rewriting avoids every
      // open-circuit store. Bottom of the ladder — answer from staging.
      return ServeFromStaging(*canonical, remapped, std::move(excluded),
                              attempt);
    }
    return planned.status();
  }

  std::vector<std::string> plan_stores = planned->best_plan().stores_used;
  Result<Estocada::QueryResult> result =
      system_->ExecutePlanned(std::move(*planned), canonical->query, remapped);
  if (result.ok()) {
    if (options_.fault_tolerant) {
      for (const std::string& store : plan_stores) {
        health_.ReportSuccess(store);
      }
      // Answered while avoiding an unhealthy store: a failover — the
      // rewriting multiplicity carried the query around the outage.
      if (!excluded.empty()) metrics_.RecordFailover();
    }
    result->attempts = attempt;
    result->excluded_stores = std::move(excluded);
    return result;
  }
  if (options_.fault_tolerant && RetryPolicy::IsRetryable(result.status())) {
    for (const std::string& store :
         AttributeFailure(result.status(), plan_stores)) {
      if (health_.ReportFailure(store)) metrics_.RecordBreakerTrip();
    }
  }
  return result;
}

void QueryServer::MemoInsertLocked(const std::string& query_text,
                                   MemoEntry entry, Memo* retired) {
  if (canon_current_.size() >= kCanonGenerationCap &&
      canon_current_.count(query_text) == 0) {
    retired->swap(canon_previous_);
    canon_previous_.swap(canon_current_);
  }
  // Replaces a stale entry of the same text (an older lift epoch).
  canon_current_.insert_or_assign(query_text, std::move(entry));
}

Result<std::shared_ptr<const CanonicalQuery>> QueryServer::CanonicalizeCached(
    const std::string& query_text, uint64_t epoch) {
  auto fresh = [epoch](const MemoEntry& e) {
    return e.any_epoch || e.epoch == epoch;
  };
  Memo retired;  // Freed after canon_mu_ is released.
  {
    std::lock_guard<std::mutex> lock(canon_mu_);
    auto it = canon_current_.find(query_text);
    if (it != canon_current_.end() && fresh(it->second)) {
      metrics_.RecordMemoHit();
      return it->second.canonical;
    }
    auto old = canon_previous_.find(query_text);
    if (old != canon_previous_.end() && fresh(old->second)) {
      metrics_.RecordMemoHit();
      MemoEntry promoted = std::move(old->second);
      canon_previous_.erase(old);
      std::shared_ptr<const CanonicalQuery> canonical = promoted.canonical;
      MemoInsertLocked(query_text, std::move(promoted), &retired);
      return canonical;
    }
  }
  metrics_.RecordMemoMiss();
  ESTOCADA_ASSIGN_OR_RETURN(pivot::ConjunctiveQuery q,
                            pivot::ParseQuery(query_text));
  MemoEntry entry;
  entry.canonical = std::make_shared<const CanonicalQuery>(
      CanonicalizeLifted(q, system_->named_constants()));
  entry.epoch = epoch;
  entry.any_epoch = true;
  for (const pivot::Atom& a : q.body) {
    for (const pivot::Term& t : a.terms) {
      if (t.is_constant()) entry.any_epoch = false;
    }
  }
  std::shared_ptr<const CanonicalQuery> canonical = entry.canonical;
  {
    std::lock_guard<std::mutex> lock(canon_mu_);
    MemoInsertLocked(query_text, std::move(entry), &retired);
  }
  return canonical;
}

Result<Estocada::QueryResult> QueryServer::ServeTimed(
    const std::string& query_text,
    const std::map<std::string, engine::Value>& parameters) {
  const auto start = std::chrono::steady_clock::now();
  Status last_error = Status::OK();
  int attempt = 1;
  // The loop serves two kinds of re-entry, neither holding the lock
  // across iterations: rewriter upgrades (the rewriter may be stale right
  // after a catalog change; rebuilding needs the exclusive lock, serving
  // only the shared one) and retries of transient execution failures
  // (backoff sleeps happen with no lock held). The spin bound is a
  // backstop against admin calls perpetually racing the upgrade.
  int reroutes = 0;
  for (int spin = 0; spin < 64; ++spin) {
    bool served = false;
    uint64_t planned_health_epoch = 0;
    {
      std::shared_lock read_lock(mu_);
      if (system_->rewriter_ready()) {
        served = true;
        Result<Estocada::QueryResult> result = ServeLocked(
            query_text, parameters, attempt, &planned_health_epoch);
        if (result.ok() || !options_.fault_tolerant ||
            !RetryPolicy::IsRetryable(result.status())) {
          if (result.ok()) result->reroutes = reroutes;
          return result;
        }
        last_error = result.status();
      }
    }
    if (!served) {
      std::unique_lock write_lock(mu_);
      ESTOCADA_RETURN_NOT_OK(system_->PrepareRewriter());
      continue;  // Upgrades do not consume retry attempts.
    }
    // Re-route rung, above retry: the attempt's failure moved the health
    // epoch (its own breaker trip, or a concurrent one), so planning now
    // routes around the tripped instance — replicated fragments land on a
    // sibling replica. Re-plan immediately: no backoff, no attempt
    // consumed; waiting would buy nothing because the outage is already
    // circuit-broken out of the plan.
    if (reroutes < options_.max_reroutes &&
        health_.health_epoch() != planned_health_epoch) {
      metrics_.RecordReroute();
      ++reroutes;
      continue;
    }
    const RetryPolicy& retry = options_.retry;
    if (attempt >= retry.max_attempts) return last_error;
    if (retry.deadline_micros > 0 &&
        ElapsedMicros(start) >= static_cast<double>(retry.deadline_micros)) {
      return last_error;
    }
    metrics_.RecordRetry();
    uint64_t wait_micros;
    {
      std::lock_guard<std::mutex> rng_lock(rng_mu_);
      wait_micros = retry.BackoffMicros(attempt, rng_);
    }
    if (wait_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(wait_micros));
    }
    ++attempt;
  }
  return Status::Internal(
      "rewriter preparation kept racing catalog changes; giving up");
}

Result<Estocada::QueryResult> QueryServer::Query(
    const std::string& query_text,
    const std::map<std::string, engine::Value>& parameters) {
  auto start = std::chrono::steady_clock::now();
  Result<Estocada::QueryResult> result = ServeTimed(query_text, parameters);
  metrics_.RecordQuery(result.ok(), ElapsedMicros(start));
  return result;
}

std::future<Result<Estocada::QueryResult>> QueryServer::Submit(
    std::string query_text, std::map<std::string, engine::Value> parameters) {
  auto task = std::make_shared<
      std::packaged_task<Result<Estocada::QueryResult>()>>(
      [this, text = std::move(query_text), params = std::move(parameters)] {
        return Query(text, params);
      });
  std::future<Result<Estocada::QueryResult>> future = task->get_future();
  pool_.Submit([task] { (*task)(); });
  return future;
}

void QueryServer::Drain() { pool_.WaitIdle(); }

Status QueryServer::DefineFragment(const std::string& view_text,
                                   const std::string& store_name,
                                   std::vector<pivot::Adornment> adornments,
                                   std::vector<size_t> index_positions) {
  std::unique_lock lock(mu_);
  ESTOCADA_RETURN_NOT_OK(system_->DefineFragment(
      view_text, store_name, std::move(adornments), std::move(index_positions)));
  return system_->PrepareRewriter();
}

Status QueryServer::DefineReplicatedFragment(
    const std::string& view_text,
    const std::vector<std::string>& replica_stores,
    std::vector<pivot::Adornment> adornments,
    std::vector<size_t> index_positions) {
  std::unique_lock lock(mu_);
  ESTOCADA_RETURN_NOT_OK(system_->DefineReplicatedFragment(
      view_text, replica_stores, std::move(adornments),
      std::move(index_positions)));
  return system_->PrepareRewriter();
}

Status QueryServer::DefinePartitionedFragment(
    const std::string& view_text, catalog::PartitionSpec::Kind kind,
    size_t key_position,
    const std::vector<std::vector<std::string>>& shard_replica_stores,
    std::vector<engine::Value> bounds, std::vector<pivot::Adornment> adornments,
    std::vector<size_t> index_positions) {
  ESTOCADA_ASSIGN_OR_RETURN(pivot::ConjunctiveQuery q,
                            pivot::ParseQuery(view_text));
  pacb::ViewDefinition view;
  view.query = std::move(q);
  view.adornments = std::move(adornments);
  std::unique_lock lock(mu_);
  ESTOCADA_RETURN_NOT_OK(system_->DefinePartitionedFragment(
      std::move(view), kind, key_position, shard_replica_stores,
      std::move(bounds), std::move(index_positions)));
  return system_->PrepareRewriter();
}

Status QueryServer::DropFragment(const std::string& name) {
  std::unique_lock lock(mu_);
  ESTOCADA_RETURN_NOT_OK(system_->DropFragment(name));
  return system_->PrepareRewriter();
}

Status QueryServer::ApplyRecommendation(const advisor::Recommendation& rec) {
  std::unique_lock lock(mu_);
  ESTOCADA_RETURN_NOT_OK(system_->ApplyRecommendation(rec));
  return system_->PrepareRewriter();
}

Status QueryServer::InsertRow(const std::string& relation, engine::Row row) {
  std::unique_lock lock(mu_);
  UpdateEvent event{UpdateEvent::Kind::kInsert, relation, row};
  ESTOCADA_RETURN_NOT_OK(system_->InsertRow(relation, std::move(row)));
  NotifyUpdate(event);
  return Status::OK();
}

Status QueryServer::DeleteRow(const std::string& relation,
                              const engine::Row& row) {
  std::unique_lock lock(mu_);
  ESTOCADA_RETURN_NOT_OK(system_->DeleteRow(relation, row));
  NotifyUpdate(UpdateEvent{UpdateEvent::Kind::kDelete, relation, row});
  return Status::OK();
}

Status QueryServer::WithAdminLock(
    const std::function<Status(Estocada*)>& fn) {
  std::unique_lock lock(mu_);
  ESTOCADA_RETURN_NOT_OK(fn(system_));
  // Cheap no-op unless fn dirtied the rewriter (e.g. a cutover).
  return system_->PrepareRewriter();
}

Status QueryServer::WithReadLock(
    const std::function<Status(const Estocada&)>& fn) {
  std::shared_lock lock(mu_);
  return fn(*system_);
}

uint64_t QueryServer::AddUpdateListener(UpdateListener listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  uint64_t token = next_listener_token_++;
  listeners_.emplace(token, std::move(listener));
  return token;
}

void QueryServer::RemoveUpdateListener(uint64_t token) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(token);
}

void QueryServer::NotifyUpdate(const UpdateEvent& event) {
  std::vector<UpdateListener> snapshot;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    snapshot.reserve(listeners_.size());
    for (const auto& [token, listener] : listeners_) {
      snapshot.push_back(listener);
    }
  }
  for (const UpdateListener& listener : snapshot) listener(event);
}

std::vector<advisor::Recommendation> QueryServer::Advise(
    const advisor::AdvisorOptions& options) {
  // Exclusive: quiesces the query threads feeding the workload log so the
  // advisor reads a consistent view.
  std::unique_lock lock(mu_);
  return system_->Advise(options);
}

std::vector<advisor::ScoredCandidate> QueryServer::AdviseCandidates(
    const advisor::AdvisorOptions& options) {
  // Shared: the log snapshot is internally synchronized, and the catalog
  // only changes under the exclusive lock — so candidate enumeration can
  // run beside the query path without stalling it.
  std::shared_lock lock(mu_);
  advisor::StorageAdvisor adv(options);
  return adv.Candidates(system_->catalog(),
                        system_->workload_log().Snapshot());
}

advisor::PatternSummary QueryServer::ClassifyWorkload(
    const advisor::AdvisorOptions& options) {
  std::shared_lock lock(mu_);
  return advisor::ClassifyWorkload(system_->workload_log().Snapshot(),
                                   options);
}

}  // namespace estocada::runtime
