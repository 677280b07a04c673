#include "replication/repairer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "common/strings.h"
#include "rewriting/materializer.h"

namespace estocada::replication {

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
  const migration::CopyProgress& p = progress;
  std::string out = StrCat(
      "[", RepairStageName(stage), "] ", fragment, " shard ", shard, " #",
      replica, ": copied ", p.rows_copied, " rows in ", p.batches,
      " batches, ", p.catchup_rounds, " catch-up rounds, replayed ",
      p.deltas_replayed, " deltas, ", p.rebuilds, " rebuilds, ", p.retries,
      " retries, ", p.breaker_pauses, " pauses",
      digest_checked ? ", digest-checked" : "");
  if (!error.ok()) out += StrCat(" — ", error.ToString());
  return out;
}

ReplicaRepairer::ReplicaRepairer(QueryServer* server, RepairOptions options)
    : server_(server), options_(std::move(options)) {}

namespace {

/// Calls `fn(fragment, shard index, shard)` for every shard in the
/// repairer's scope: a serving fragment's shard with a sibling replica to
/// serve its reads while one rebuilds.
template <typename Fn>
void ForEachRepairableShard(const catalog::Catalog& catalog, Fn&& fn) {
  for (const auto& [name, desc] : catalog.fragments()) {
    if (desc.is_shadow()) continue;
    for (size_t s = 0; s < desc.shards.size(); ++s) {
      if (desc.shards[s].replicas.size() > 1) fn(name, s, desc.shards[s]);
    }
  }
}

/// Admission's sibling check: the rebuilt replica must digest equal to
/// the first healthy same-kind sibling of its shard whose store answers
/// (digests are comparable within a kind only). Sets `*checked` when one
/// compared.
Status CheckSiblingDigest(const Estocada& sys, const std::string& fragment,
                          size_t shard, size_t replica, bool* checked) {
  ESTOCADA_ASSIGN_OR_RETURN(
      rewriting::ReplicaTarget own,
      rewriting::ResolveReplica(sys.catalog(), fragment, shard, replica));
  const catalog::ShardState& state = own.desc->shards[shard];
  Result<uint64_t> mine = sys.ReplicaDigest(fragment, shard, replica);
  if (!mine.ok()) return Status::OK();
  for (size_t i = 0; i < state.replicas.size(); ++i) {
    if (i == replica || !state.replica_available(i)) continue;
    auto handle = sys.catalog().GetStore(state.replicas[i].store_name);
    if (!handle.ok() || (*handle)->kind != own.store->kind) continue;
    Result<uint64_t> theirs = sys.ReplicaDigest(fragment, shard, i);
    if (!theirs.ok()) continue;  // Sibling store down: try the next.
    if (*theirs != *mine) {
      return Status::FailedPrecondition(
          StrCat("rebuilt replica #", replica, " of shard ", shard, " of '",
                 fragment, "' digests ", *mine, " but healthy sibling #", i,
                 " digests ", *theirs));
    }
    *checked = true;
    return Status::OK();
  }
  return Status::OK();
}

}  // namespace

void ReplicaRepairer::RunRebuild(RepairReport* report) {
  const std::string& fragment = report->fragment;
  const size_t shard = report->shard;
  const size_t replica = report->replica;

  // Pre-flight: the placement's store.
  std::string store_name;
  Status outcome = server_->WithReadLock([&](const Estocada& sys) {
    ESTOCADA_ASSIGN_OR_RETURN(
        rewriting::ReplicaTarget target,
        rewriting::ResolveReplica(sys.catalog(), fragment, shard, replica));
    store_name = target.placement->store_name;
    return Status::OK();
  });

  migration::OnlineCopy copy(server_, store_name, options_);
  auto enter = [&](RepairStage stage) -> Status {
    report->stage = stage;
    return options_.stage_hook ? options_.stage_hook(stage) : Status::OK();
  };
  if (outcome.ok()) {
    outcome = [&]() -> Status {
      ESTOCADA_RETURN_NOT_OK(enter(RepairStage::kBackfilling));
      ESTOCADA_RETURN_NOT_OK(copy.Retry([&] {
        return server_->WithAdminLock([&](Estocada* sys) {
          return sys->BeginReplicaRebuild(fragment, shard, replica);
        });
      }));
      ESTOCADA_RETURN_NOT_OK(copy.Start(fragment, shard, replica));
      ESTOCADA_RETURN_NOT_OK(copy.Backfill());
      ESTOCADA_RETURN_NOT_OK(enter(RepairStage::kCatchingUp));
      ESTOCADA_RETURN_NOT_OK(copy.CatchUp());
      ESTOCADA_RETURN_NOT_OK(enter(RepairStage::kVerifying));
      return copy.Finish([&](Estocada* sys) {
        ESTOCADA_RETURN_NOT_OK(CheckSiblingDigest(
            *sys, fragment, shard, replica, &report->digest_checked));
        return sys->AdmitReplica(fragment, shard, replica);
      });
    }();
  }
  copy.Detach();
  report->progress = copy.progress();
  report->stage = outcome.ok() ? RepairStage::kAdmitted : RepairStage::kAborted;
  report->error = std::move(outcome);
}

RepairReport ReplicaRepairer::RepairReplica(const std::string& fragment,
                                            size_t shard, size_t replica) {
  RepairReport report;
  report.fragment = fragment;
  report.shard = shard;
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
    size_t shard;
    size_t replica;
    std::string store;
  };
  std::vector<Candidate> candidates;
  ESTOCADA_RETURN_NOT_OK(server_->WithReadLock([&](const Estocada& sys) {
    ForEachRepairableShard(
        sys.catalog(), [&](const std::string& name, size_t s,
                           const catalog::ShardState& shard) {
          for (size_t i = 0; i < shard.replicas.size(); ++i) {
            // Stale (missed writes while its store was down) or stuck
            // mid-rebuild (an earlier repair aborted): both need a
            // rebuild.
            if (!shard.replica_available(i)) {
              candidates.push_back(
                  {name, s, i, shard.replicas[i].store_name});
            }
          }
        });
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
    RepairReport report = RepairReplica(c.fragment, c.shard, c.replica);
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
    size_t shard;
    std::vector<Member> live;
  };
  std::vector<Scan> scans;
  ESTOCADA_RETURN_NOT_OK(server_->WithReadLock([&](const Estocada& sys) {
    ForEachRepairableShard(
        sys.catalog(), [&](const std::string& name, size_t s,
                           const catalog::ShardState& shard) {
          Scan scan{name, s, {}};
          for (size_t i = 0; i < shard.replicas.size(); ++i) {
            // Stale/rebuilding replicas are Tick()'s job, not the scrub's.
            if (!shard.replica_available(i)) continue;
            const catalog::ReplicaPlacement& p = shard.replicas[i];
            auto handle = sys.catalog().GetStore(p.store_name);
            if (!handle.ok()) continue;
            scan.live.push_back({i, (*handle)->kind, p.store_name});
          }
          if (!scan.live.empty()) scans.push_back(std::move(scan));
        });
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
            digest = sys.ReplicaDigest(scan.fragment, scan.shard, m->replica);
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
        return sys.VerifyReplica(scan.fragment, scan.shard, replica);
      });
      if (verified.ok()) continue;
      RepairReport report = RepairReplica(scan.fragment, scan.shard, replica);
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
