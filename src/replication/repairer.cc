#include "replication/repairer.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "rewriting/store_driver.h"
#include "runtime/retry.h"

namespace estocada::replication {

using engine::Row;
using runtime::QueryServer;

const char* RepairStageName(RepairStage stage) {
  switch (stage) {
    case RepairStage::kIdle:
      return "Idle";
    case RepairStage::kBackfilling:
      return "Backfilling";
    case RepairStage::kCatchingUp:
      return "CatchingUp";
    case RepairStage::kVerifying:
      return "Verifying";
    case RepairStage::kAdmitted:
      return "Admitted";
    case RepairStage::kAborted:
      return "Aborted";
  }
  return "?";
}

std::string RepairReport::ToString() const {
  std::string out = StrCat("[", RepairStageName(stage), "] ", fragment, "#",
                           replica, ": copied ", rows_copied, " rows in ",
                           batches, " batches, ", catchup_rounds,
                           " catch-up rounds, ", store_retries, " retries, ",
                           breaker_pauses, " pauses, ", restarts, " restarts",
                           digest_checked ? ", digest-checked" : "");
  if (!error.ok()) out += StrCat(" — ", error.ToString());
  return out;
}

ReplicaRepairer::ReplicaRepairer(QueryServer* server, RepairOptions options)
    : server_(server), options_(options) {}

void ReplicaRepairer::PauseWhileBreakerOpen(const std::string& store,
                                            RepairReport* report) {
  bool counted = false;
  for (;;) {
    // ExcludedStores() also performs due open → half-open transitions,
    // which is exactly what lets a paused repair resume and probe.
    std::vector<std::string> excluded = server_->health().ExcludedStores();
    if (std::find(excluded.begin(), excluded.end(), store) ==
        excluded.end()) {
      break;
    }
    if (!counted) {
      ++report->breaker_pauses;
      counted = true;
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.pause_poll_micros));
  }
}

Status ReplicaRepairer::RetryStoreOp(const std::string& store,
                                     RepairReport* report,
                                     const std::function<Status()>& op) {
  Status last = Status::Internal("repair retry loop never ran");
  const int budget = std::max(1, options_.max_store_retries);
  for (int attempt = 1; attempt <= budget; ++attempt) {
    PauseWhileBreakerOpen(store, report);
    Status st = op();
    if (st.ok()) {
      server_->health().ReportSuccess(store);
      return st;
    }
    if (!runtime::RetryPolicy::IsRetryable(st)) return st;
    last = st;
    ++report->store_retries;
    // Feed the breaker: enough consecutive failures trip it open, and
    // the next attempt waits out the cooldown instead of hammering a
    // down store.
    server_->health().ReportFailure(store);
    uint64_t backoff = options_.retry_backoff_micros *
                       static_cast<uint64_t>(std::min(attempt, 8));
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
  }
  return last;
}

namespace {

/// Insert/delete flags fed by the server's update listener while a
/// rebuild is in flight. Held via shared_ptr so a listener that fires
/// during teardown never touches a dead frame.
struct DeltaFlags {
  std::mutex mu;
  bool inserts = false;
  bool deletes = false;
};

std::string RowKey(const Row& row) { return engine::RowToString(row); }

/// The repairer's scope: one-shard fragments with two or more replicas.
bool Repairable(const catalog::StorageDescriptor& desc) {
  return desc.shards.size() == 1 && desc.shards[0].replicas.size() > 1;
}

}  // namespace

void ReplicaRepairer::RunRebuild(RepairReport* report) {
  const std::string& fragment = report->fragment;
  const size_t replica = report->replica;

  auto enter = [&](RepairStage stage) -> Status {
    report->stage = stage;
    return options_.stage_hook ? options_.stage_hook(stage) : Status::OK();
  };

  // Pre-flight: the placement's store, its kind, the view's relations.
  std::string store_name;
  catalog::StoreKind kind = catalog::StoreKind::kRelational;
  std::set<std::string> relations;
  Status preflight = server_->WithReadLock([&](const Estocada& sys) {
    ESTOCADA_ASSIGN_OR_RETURN(const catalog::StorageDescriptor* desc,
                              sys.catalog().GetFragment(fragment));
    if (!Repairable(*desc)) {
      return Status::FailedPrecondition(
          StrCat("fragment '", fragment,
                 "' is not an unpartitioned replicated fragment"));
    }
    const std::vector<catalog::ReplicaPlacement>& replicas =
        desc->shards[0].replicas;
    if (replica >= replicas.size()) {
      return Status::OutOfRange(StrCat("fragment '", fragment, "' has ",
                                       replicas.size(),
                                       " replica(s), asked for #", replica));
    }
    store_name = replicas[replica].store_name;
    ESTOCADA_ASSIGN_OR_RETURN(const catalog::StoreHandle* handle,
                              sys.catalog().GetStore(store_name));
    kind = handle->kind;
    for (const pivot::Atom& a : desc->view.query.body) {
      relations.insert(a.relation);
    }
    return Status::OK();
  });
  if (!preflight.ok()) {
    report->error = std::move(preflight);
    report->stage = RepairStage::kAborted;
    return;
  }

  // Listener before snapshot: an update in the gap is both captured as a
  // flag and visible to the snapshot — draining it twice is benign under
  // set semantics, missing it would not be.
  auto flags = std::make_shared<DeltaFlags>();
  uint64_t token = server_->AddUpdateListener(
      [flags, relations](const QueryServer::UpdateEvent& event) {
        if (relations.find(event.relation) == relations.end()) return;
        std::lock_guard<std::mutex> lock(flags->mu);
        if (event.kind == QueryServer::UpdateEvent::Kind::kInsert) {
          flags->inserts = true;
        } else {
          flags->deletes = true;
        }
      });

  const size_t batch_rows = std::max<size_t>(1, options_.batch_rows);
  Status outcome = Status::OK();
  bool admitted = false;

  for (size_t attempt = 0; attempt <= options_.max_restarts; ++attempt) {
    report->restarts = attempt;
    bool restart = false;

    outcome = [&]() -> Status {
      // ---- Backfilling: clean container, snapshot, throttled copy. ----
      ESTOCADA_RETURN_NOT_OK(enter(RepairStage::kBackfilling));
      ESTOCADA_RETURN_NOT_OK(RetryStoreOp(store_name, report, [&] {
        return server_->WithAdminLock([&](Estocada* sys) {
          return sys->BeginReplicaRebuild(fragment, replica);
        });
      }));
      // Everything staged before the snapshot below is covered by it:
      // reset the flags so only post-snapshot updates trigger catch-up.
      {
        std::lock_guard<std::mutex> lock(flags->mu);
        flags->inserts = false;
        flags->deletes = false;
      }

      if (!rewriting::DriverFor(kind).appends()) {
        // The container takes no appends (text): the backfill is a
        // one-shot rematerialization, repeated while updates race it.
        ESTOCADA_RETURN_NOT_OK(RetryStoreOp(store_name, report, [&] {
          return server_->WithAdminLock([&](Estocada* sys) {
            return sys->RebuildReplicaFromStaging(fragment, replica);
          });
        }));
        ++report->batches;
        ESTOCADA_RETURN_NOT_OK(enter(RepairStage::kCatchingUp));
        for (size_t round = 0; round < options_.max_catchup_rounds; ++round) {
          bool dirty;
          {
            std::lock_guard<std::mutex> lock(flags->mu);
            dirty = flags->inserts || flags->deletes;
            flags->inserts = false;
            flags->deletes = false;
          }
          if (!dirty) break;
          ++report->catchup_rounds;
          ESTOCADA_RETURN_NOT_OK(RetryStoreOp(store_name, report, [&] {
            return server_->WithAdminLock([&](Estocada* sys) {
              return sys->RebuildReplicaFromStaging(fragment, replica);
            });
          }));
          ++report->batches;
        }
        ESTOCADA_RETURN_NOT_OK(enter(RepairStage::kVerifying));
        // One exclusive-lock section: residual drain, truth check,
        // admission. No update can land while it runs.
        return RetryStoreOp(store_name, report, [&] {
          return server_->WithAdminLock([&](Estocada* sys) {
            bool dirty;
            {
              std::lock_guard<std::mutex> lock(flags->mu);
              dirty = flags->inserts || flags->deletes;
              flags->inserts = false;
              flags->deletes = false;
            }
            if (dirty) {
              ESTOCADA_RETURN_NOT_OK(
                  sys->RebuildReplicaFromStaging(fragment, replica));
              ++report->batches;
            }
            if (options_.verify) {
              ESTOCADA_RETURN_NOT_OK(sys->VerifyReplica(fragment, replica));
            }
            return sys->AdmitReplica(fragment, replica);
          });
        });
      }

      // Row-store path: snapshot once, append in batches, track what was
      // appended so catch-up is a cheap set difference.
      std::vector<Row> truth;
      ESTOCADA_RETURN_NOT_OK(server_->WithReadLock([&](const Estocada& sys) {
        ESTOCADA_ASSIGN_OR_RETURN(truth, sys.EvaluateFragmentView(fragment));
        return Status::OK();
      }));
      std::set<std::string> appended;
      auto append_batched = [&](const std::vector<Row>& rows) -> Status {
        for (size_t pos = 0; pos < rows.size(); pos += batch_rows) {
          const size_t end = std::min(rows.size(), pos + batch_rows);
          std::vector<Row> batch(rows.begin() + pos, rows.begin() + end);
          ESTOCADA_RETURN_NOT_OK(RetryStoreOp(store_name, report, [&] {
            return server_->WithAdminLock([&](Estocada* sys) {
              return sys->AppendToReplicaRows(fragment, replica, batch);
            });
          }));
          for (const Row& row : batch) appended.insert(RowKey(row));
          ++report->batches;
          report->rows_copied += batch.size();
        }
        return Status::OK();
      };
      ESTOCADA_RETURN_NOT_OK(append_batched(truth));

      // ---- CatchingUp: drain post-snapshot inserts by set difference;
      // a deletion restarts (no append delta exists for it). ----
      ESTOCADA_RETURN_NOT_OK(enter(RepairStage::kCatchingUp));
      for (size_t round = 0; round < options_.max_catchup_rounds; ++round) {
        bool inserts, deletes;
        {
          std::lock_guard<std::mutex> lock(flags->mu);
          inserts = flags->inserts;
          deletes = flags->deletes;
          flags->inserts = false;
        }
        if (deletes) {
          restart = true;
          return Status::OK();
        }
        if (!inserts) break;
        ++report->catchup_rounds;
        std::vector<Row> now;
        ESTOCADA_RETURN_NOT_OK(
            server_->WithReadLock([&](const Estocada& sys) {
              ESTOCADA_ASSIGN_OR_RETURN(now,
                                        sys.EvaluateFragmentView(fragment));
              return Status::OK();
            }));
        std::vector<Row> missing;
        for (Row& row : now) {
          if (appended.find(RowKey(row)) == appended.end()) {
            missing.push_back(std::move(row));
          }
        }
        ESTOCADA_RETURN_NOT_OK(append_batched(missing));
      }

      // ---- Verifying: one exclusive-lock section — residual drain,
      // truth check, sibling digest, admission. ----
      ESTOCADA_RETURN_NOT_OK(enter(RepairStage::kVerifying));
      bool deletes_in_final = false;
      Status admission = RetryStoreOp(store_name, report, [&] {
        return server_->WithAdminLock([&](Estocada* sys) {
          {
            std::lock_guard<std::mutex> lock(flags->mu);
            deletes_in_final = flags->deletes;
          }
          if (deletes_in_final) return Status::OK();  // Restart outside.
          ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> now,
                                    sys->EvaluateFragmentView(fragment));
          std::vector<Row> missing;
          for (Row& row : now) {
            if (appended.find(RowKey(row)) == appended.end()) {
              missing.push_back(std::move(row));
            }
          }
          if (!missing.empty()) {
            ESTOCADA_RETURN_NOT_OK(
                sys->AppendToReplicaRows(fragment, replica, missing));
            for (const Row& row : missing) appended.insert(RowKey(row));
            ++report->batches;
            report->rows_copied += missing.size();
          }
          if (options_.verify) {
            ESTOCADA_RETURN_NOT_OK(sys->VerifyReplica(fragment, replica));
          }
          if (options_.digest_check) {
            ESTOCADA_ASSIGN_OR_RETURN(const catalog::StorageDescriptor* desc,
                                      sys->catalog().GetFragment(fragment));
            Result<uint64_t> mine = sys->ReplicaDigest(fragment, replica);
            if (mine.ok()) {
              const catalog::ShardState& shard = desc->shards[0];
              for (size_t i = 0; i < shard.replicas.size(); ++i) {
                if (i == replica || !shard.replica_available(i)) continue;
                const catalog::ReplicaPlacement& sib = shard.replicas[i];
                auto handle = sys->catalog().GetStore(sib.store_name);
                if (!handle.ok() || (*handle)->kind != kind) continue;
                Result<uint64_t> theirs = sys->ReplicaDigest(fragment, i);
                if (!theirs.ok()) continue;  // Sibling store down: skip.
                if (*theirs != *mine) {
                  return Status::FailedPrecondition(StrCat(
                      "rebuilt replica #", replica, " of '", fragment,
                      "' digests ", *mine, " but healthy sibling #", i,
                      " digests ", *theirs));
                }
                report->digest_checked = true;
                break;  // One healthy same-kind sibling suffices.
              }
            }
          }
          return sys->AdmitReplica(fragment, replica);
        });
      });
      if (deletes_in_final) {
        restart = true;
        return Status::OK();
      }
      return admission;
    }();

    if (outcome.ok() && !restart) {
      admitted = true;
      break;
    }
    if (!restart) {
      // A verify/digest mismatch can be a transient race losing to a
      // concurrent update burst — start over from the new truth instead
      // of giving up, as long as the restart budget holds.
      if (outcome.code() == StatusCode::kFailedPrecondition &&
          (report->stage == RepairStage::kVerifying ||
           report->stage == RepairStage::kCatchingUp)) {
        continue;
      }
      break;
    }
    // Deletion-triggered restart: loop around with a fresh container.
  }

  server_->RemoveUpdateListener(token);
  if (admitted) {
    report->stage = RepairStage::kAdmitted;
    report->error = Status::OK();
  } else {
    report->stage = RepairStage::kAborted;
    report->error = outcome.ok()
                        ? Status::Aborted(StrCat(
                              "replica rebuild of '", fragment, "'#", replica,
                              " kept restarting under updates; giving up"))
                        : std::move(outcome);
  }
}

RepairReport ReplicaRepairer::RepairReplica(const std::string& fragment,
                                            size_t replica) {
  RepairReport report;
  report.fragment = fragment;
  report.replica = replica;
  active_.fetch_add(1, std::memory_order_acq_rel);
  RunRebuild(&report);
  active_.fetch_sub(1, std::memory_order_acq_rel);
  if (report.admitted()) {
    server_->server_metrics().RecordReplicaRebuild();
  }
  {
    std::lock_guard<std::mutex> lock(history_mu_);
    history_.push_back(report);
  }
  return report;
}

Result<size_t> ReplicaRepairer::Tick() {
  struct Candidate {
    std::string fragment;
    size_t replica;
    std::string store;
  };
  std::vector<Candidate> candidates;
  ESTOCADA_RETURN_NOT_OK(server_->WithReadLock([&](const Estocada& sys) {
    for (const auto& [name, desc] : sys.catalog().fragments()) {
      // Partitioned fragments repair per shard through
      // RebuildShardReplicaFromStaging instead.
      if (desc.is_shadow() || !Repairable(desc)) continue;
      const catalog::ShardState& shard = desc.shards[0];
      for (size_t i = 0; i < shard.replicas.size(); ++i) {
        // Stale (missed writes while its store was down) or stuck
        // mid-rebuild (an earlier repair aborted): both need a rebuild.
        if (!shard.replica_available(i)) {
          candidates.push_back({name, i, shard.replicas[i].store_name});
        }
      }
    }
    return Status::OK();
  }));
  if (candidates.empty()) return static_cast<size_t>(0);
  // A store whose breaker is still open is still down: rebuilding against
  // it would only burn the retry budget. ExcludedStores() performs due
  // open → half-open transitions, so a recovered store is probed by the
  // repair itself.
  std::vector<std::string> open = server_->health().ExcludedStores();
  size_t admitted = 0;
  for (const Candidate& c : candidates) {
    if (std::find(open.begin(), open.end(), c.store) != open.end()) continue;
    RepairReport report = RepairReplica(c.fragment, c.replica);
    if (report.admitted()) ++admitted;
  }
  return admitted;
}

Result<size_t> ReplicaRepairer::Scrub() {
  struct Member {
    size_t replica;
    catalog::StoreKind kind;
    std::string store;
  };
  struct Scan {
    std::string fragment;
    std::vector<Member> live;
  };
  std::vector<Scan> scans;
  ESTOCADA_RETURN_NOT_OK(server_->WithReadLock([&](const Estocada& sys) {
    for (const auto& [name, desc] : sys.catalog().fragments()) {
      if (desc.is_shadow() || !Repairable(desc)) continue;
      Scan scan;
      scan.fragment = name;
      const catalog::ShardState& shard = desc.shards[0];
      for (size_t i = 0; i < shard.replicas.size(); ++i) {
        // Stale/rebuilding replicas are Tick()'s job, not the scrub's.
        if (!shard.replica_available(i)) continue;
        const catalog::ReplicaPlacement& p = shard.replicas[i];
        auto handle = sys.catalog().GetStore(p.store_name);
        if (!handle.ok()) continue;
        scan.live.push_back({i, (*handle)->kind, p.store_name});
      }
      if (!scan.live.empty()) scans.push_back(std::move(scan));
    }
    return Status::OK();
  }));
  std::vector<std::string> open = server_->health().ExcludedStores();
  size_t repaired = 0;
  for (const Scan& scan : scans) {
    // Digest screen: same-kind groups of two or more compare digests;
    // only a disagreeing group — or a kind's lone replica, which digests
    // cannot cover — pays for truth verification.
    std::map<int, std::vector<const Member*>> by_kind;
    for (const Member& m : scan.live) {
      if (std::find(open.begin(), open.end(), m.store) != open.end()) {
        continue;  // Store down: unreadable, and Tick owns the fallout.
      }
      by_kind[static_cast<int>(m.kind)].push_back(&m);
    }
    std::vector<size_t> suspects;
    for (const auto& [kind, members] : by_kind) {
      bool need_verify = members.size() < 2;
      if (!need_verify) {
        std::vector<uint64_t> digests;
        for (const Member* m : members) {
          Result<uint64_t> digest = Status::Unavailable("digest not read");
          Status st = server_->WithReadLock([&](const Estocada& sys) {
            digest = sys.ReplicaDigest(scan.fragment, m->replica);
            return Status::OK();
          });
          if (!st.ok() || !digest.ok()) {
            need_verify = true;
            break;
          }
          digests.push_back(*digest);
        }
        if (!need_verify) {
          need_verify = std::adjacent_find(digests.begin(), digests.end(),
                                           std::not_equal_to<uint64_t>()) !=
                        digests.end();
        }
      }
      if (need_verify) {
        for (const Member* m : members) suspects.push_back(m->replica);
      }
    }
    for (size_t replica : suspects) {
      Status verified = server_->WithReadLock([&](const Estocada& sys) {
        return sys.VerifyReplica(scan.fragment, replica);
      });
      if (verified.ok()) continue;
      RepairReport report = RepairReplica(scan.fragment, replica);
      if (report.admitted()) ++repaired;
    }
  }
  return repaired;
}

std::vector<RepairReport> ReplicaRepairer::history() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return history_;
}

}  // namespace estocada::replication
