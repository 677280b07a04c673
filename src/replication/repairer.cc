#include "replication/repairer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "common/strings.h"

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
      "[", RepairStageName(stage), "] ", fragment, "#", replica, ": copied ",
      p.rows_copied, " rows in ", p.batches, " batches, ", p.catchup_rounds,
      " catch-up rounds, replayed ", p.deltas_replayed, " deltas, ",
      p.rebuilds, " rebuilds, ", p.retries, " retries, ", p.breaker_pauses,
      " pauses", digest_checked ? ", digest-checked" : "");
  if (!error.ok()) out += StrCat(" — ", error.ToString());
  return out;
}

ReplicaRepairer::ReplicaRepairer(QueryServer* server, RepairOptions options)
    : server_(server), options_(std::move(options)) {}

namespace {

/// The repairer's scope: one-shard fragments with two or more replicas.
bool Repairable(const catalog::StorageDescriptor& desc) {
  return desc.shards.size() == 1 && desc.shards[0].replicas.size() > 1;
}

/// Admission's sibling check: the rebuilt replica must digest equal to
/// the first healthy same-kind sibling whose store answers (digests are
/// comparable within a kind only). Sets `*checked` when one compared.
Status CheckSiblingDigest(const Estocada& sys, const std::string& fragment,
                          size_t replica, bool* checked) {
  ESTOCADA_ASSIGN_OR_RETURN(const catalog::StorageDescriptor* desc,
                            sys.catalog().GetFragment(fragment));
  const catalog::ShardState& shard = desc->shards[0];
  ESTOCADA_ASSIGN_OR_RETURN(
      const catalog::StoreHandle* own,
      sys.catalog().GetStore(shard.replicas[replica].store_name));
  Result<uint64_t> mine = sys.ReplicaDigest(fragment, replica);
  if (!mine.ok()) return Status::OK();
  for (size_t i = 0; i < shard.replicas.size(); ++i) {
    if (i == replica || !shard.replica_available(i)) continue;
    auto handle = sys.catalog().GetStore(shard.replicas[i].store_name);
    if (!handle.ok() || (*handle)->kind != own->kind) continue;
    Result<uint64_t> theirs = sys.ReplicaDigest(fragment, i);
    if (!theirs.ok()) continue;  // Sibling store down: try the next.
    if (*theirs != *mine) {
      return Status::FailedPrecondition(
          StrCat("rebuilt replica #", replica, " of '", fragment,
                 "' digests ", *mine, " but healthy sibling #", i,
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
  const size_t replica = report->replica;

  // Pre-flight: the placement's store.
  std::string store_name;
  Status outcome = server_->WithReadLock([&](const Estocada& sys) {
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
          return sys->BeginReplicaRebuild(fragment, replica);
        });
      }));
      ESTOCADA_RETURN_NOT_OK(copy.Start(fragment, replica));
      ESTOCADA_RETURN_NOT_OK(copy.Backfill());
      ESTOCADA_RETURN_NOT_OK(enter(RepairStage::kCatchingUp));
      ESTOCADA_RETURN_NOT_OK(copy.CatchUp());
      ESTOCADA_RETURN_NOT_OK(enter(RepairStage::kVerifying));
      return copy.Finish([&](Estocada* sys) {
        ESTOCADA_RETURN_NOT_OK(CheckSiblingDigest(*sys, fragment, replica,
                                                  &report->digest_checked));
        return sys->AdmitReplica(fragment, replica);
      });
    }();
  }
  copy.Detach();
  report->progress = copy.progress();
  report->stage = outcome.ok() ? RepairStage::kAdmitted : RepairStage::kAborted;
  report->error = std::move(outcome);
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
