/// Tests of sharded fragments + scatter-gather execution (catalog
/// PartitionSpec / ShardState, the translator's shard routing and
/// key-bound pruning, partition-aware write routing, catalog round-trips
/// of partitioned layouts, shard-kill failover through shard replicas,
/// per-shard self-healing, and a concurrency probe run under TSan in CI).

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pivot/parser.h"
#include "replication/repairer.h"
#include "runtime/query_server.h"
#include "stores/fault.h"
#include "workload/marketplace.h"

namespace estocada {
namespace {

using engine::Row;
using engine::Value;
using catalog::PartitionSpec;
using runtime::QueryServer;
using runtime::ServerOptions;

constexpr char kUsersQuery[] = "q(u, n, c) :- mk.users(u, n, c)";
constexpr char kUsersByKey[] = "q(n, c) :- mk.users($u, n, c)";

/// Marketplace deployment with eight relational instances ("s0".."s7"):
/// enough for 4 shards x 2 replicas, or 8 unreplicated shards.
class ScaleoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::MarketplaceConfig cfg;
    cfg.seed = 23;
    cfg.num_users = 40;
    cfg.num_products = 20;
    cfg.num_orders = 100;
    cfg.num_visits = 120;
    auto data = workload::GenerateMarketplace(cfg);
    ASSERT_TRUE(data.ok()) << data.status();
    data_ = std::move(*data);

    ASSERT_TRUE(sys_.RegisterSchema(data_.schema).ok());
    for (int i = 0; i < 8; ++i) {
      std::string name = "s" + std::to_string(i);
      s_[i].AttachFaultInjector(&injector_, name);
      ASSERT_TRUE(sys_.RegisterStore({name, catalog::StoreKind::kRelational,
                                      &s_[i], nullptr, nullptr, nullptr,
                                      nullptr})
                      .ok());
    }
    ASSERT_TRUE(sys_.LoadStaging(data_.staging).ok());
  }

  /// F_users hash-partitioned on u across `shards` single-store shards
  /// (stores s0..s{shards-1}).
  void DefineUsersHash(size_t shards) {
    std::vector<std::string> stores;
    for (size_t i = 0; i < shards; ++i) stores.push_back("s" + std::to_string(i));
    ASSERT_TRUE(sys_.DefinePartitionedFragment(
                        "F_users(u, n, c) :- mk.users(u, n, c)",
                        PartitionSpec::Kind::kHash, 0, stores)
                    .ok());
  }

  /// F_users hash-partitioned on u across 4 shards, each replicated on two
  /// stores: shard i lives on s{2i} (primary) and s{2i+1} (sibling).
  void DefineUsersHashReplicated() {
    std::vector<std::vector<std::string>> stores;
    for (int i = 0; i < 4; ++i) {
      stores.push_back({"s" + std::to_string(2 * i),
                        "s" + std::to_string(2 * i + 1)});
    }
    auto view = pivot::ParseQuery("F_users(u, n, c) :- mk.users(u, n, c)");
    ASSERT_TRUE(view.ok()) << view.status();
    pacb::ViewDefinition def;
    def.query = std::move(*view);
    ASSERT_TRUE(sys_.DefinePartitionedFragment(std::move(def),
                                               PartitionSpec::Kind::kHash, 0,
                                               stores)
                    .ok());
  }

  static ServerOptions FastOptions() {
    ServerOptions so;
    so.retry.max_attempts = 6;
    so.retry.initial_backoff_micros = 1;
    so.retry.max_backoff_micros = 16;
    so.health.failure_threshold = 2;
    so.health.open_cooldown_micros = 100'000;
    return so;
  }

  static std::set<std::string> Canon(const std::vector<Row>& rows) {
    std::set<std::string> out;
    for (const Row& r : rows) out.insert(engine::RowToString(r));
    return out;
  }

  const catalog::StorageDescriptor* Users() {
    auto d = sys_.catalog().GetFragment("F_users");
    EXPECT_TRUE(d.ok()) << d.status();
    return d.ok() ? *d : nullptr;
  }

  /// Checks `query_text` against the staging ground truth, directly on the
  /// system facade.
  void ExpectAnswersTruth(const std::string& query_text,
                          const std::map<std::string, Value>& params = {}) {
    auto truth = sys_.EvaluateOverStaging(query_text, params);
    ASSERT_TRUE(truth.ok()) << truth.status();
    auto got = sys_.Query(query_text, params);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(Canon(got->rows), Canon(*truth));
  }

  /// A user id (not present in the data) that the fragment's spec routes
  /// to `shard`.
  int64_t FreshUidOwnedBy(size_t shard) {
    const catalog::StorageDescriptor* desc = Users();
    EXPECT_NE(desc, nullptr);
    for (int64_t uid = 1000; uid < 1400; ++uid) {
      if (desc->partition.ShardOf(Value::Int(uid)) == shard) return uid;
    }
    ADD_FAILURE() << "no candidate uid routed to shard " << shard;
    return -1;
  }

  workload::MarketplaceData data_;
  stores::FaultInjector injector_{/*seed=*/37};
  stores::RelationalStore s_[8];
  Estocada sys_;
};

// ------------------------------------------------------- Catalog shape --

TEST_F(ScaleoutTest, DefinePartitionedCreatesShardContainers) {
  DefineUsersHash(4);
  const catalog::StorageDescriptor* desc = Users();
  ASSERT_NE(desc, nullptr);
  EXPECT_TRUE(desc->partitioned());
  EXPECT_EQ(desc->shard_count(), 4u);
  ASSERT_EQ(desc->shards.size(), 4u);
  size_t total = 0;
  for (size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(desc->shards[i].replicas.size(), 1u);
    std::string container = "F_users#p" + std::to_string(i);
    EXPECT_EQ(desc->shards[i].replicas[0].container, container);
    EXPECT_TRUE(s_[i].HasTable(container));
    // Every physical row sits in the shard the spec routes its key to.
    auto rows = s_[i].Scan(container);
    ASSERT_TRUE(rows.ok()) << rows.status();
    for (const Row& r : *rows) {
      EXPECT_EQ(desc->partition.ShardOf(r[0]), i) << engine::RowToString(r);
    }
    total += rows->size();
  }
  // No row lost, none duplicated: shard sizes sum to the extent.
  auto truth = sys_.EvaluateOverStaging(kUsersQuery);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(total, truth->size());
}

TEST_F(ScaleoutTest, RejectsInvalidPartitionSpecs) {
  const char* view = "F_users(u, n, c) :- mk.users(u, n, c)";
  // Fewer than 2 shards is not a partitioning.
  EXPECT_EQ(sys_.DefinePartitionedFragment(view, PartitionSpec::Kind::kHash,
                                           0, {"s0"})
                .code(),
            StatusCode::kInvalidArgument);
  // Partition key beyond the view arity.
  EXPECT_EQ(sys_.DefinePartitionedFragment(view, PartitionSpec::Kind::kHash,
                                           7, {"s0", "s1"})
                .code(),
            StatusCode::kInvalidArgument);
  // Hash partitioning takes no split points.
  EXPECT_EQ(sys_.DefinePartitionedFragment(view, PartitionSpec::Kind::kHash,
                                           0, {"s0", "s1"},
                                           {Value::Int(10)})
                .code(),
            StatusCode::kInvalidArgument);
  // Range partitioning over N shards needs exactly N-1 split points...
  EXPECT_EQ(sys_.DefinePartitionedFragment(view, PartitionSpec::Kind::kRange,
                                           0, {"s0", "s1", "s2"},
                                           {Value::Int(10)})
                .code(),
            StatusCode::kInvalidArgument);
  // ...strictly ascending.
  EXPECT_EQ(sys_.DefinePartitionedFragment(view, PartitionSpec::Kind::kRange,
                                           0, {"s0", "s1", "s2"},
                                           {Value::Int(20), Value::Int(10)})
                .code(),
            StatusCode::kInvalidArgument);
  // A failed definition must leave no descriptor behind.
  EXPECT_FALSE(sys_.catalog().GetFragment("F_users").ok());
}

// ------------------------------------------------- Reads: scatter/prune --

TEST_F(ScaleoutTest, ScatterGatherAnswersMatchOracle) {
  DefineUsersHash(4);
  auto truth = sys_.EvaluateOverStaging(kUsersQuery);
  ASSERT_TRUE(truth.ok());
  auto got = sys_.Query(kUsersQuery);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(Canon(got->rows), Canon(*truth));
  // The plan went through the fan-out, not a single-shard scan.
  EXPECT_NE(got->plan_text.find("scatter"), std::string::npos)
      << got->plan_text;
}

TEST_F(ScaleoutTest, BoundPartitionKeyPrunesToOwningShard) {
  DefineUsersHash(4);
  const catalog::StorageDescriptor* desc = Users();
  ASSERT_NE(desc, nullptr);
  const int64_t uid = 7;
  const size_t owner = desc->partition.ShardOf(Value::Int(uid));
  auto got = sys_.Query(kUsersByKey, {{"$u", Value::Int(uid)}});
  ASSERT_TRUE(got.ok()) << got.status();
  auto truth = sys_.EvaluateOverStaging(kUsersByKey, {{"$u", Value::Int(uid)}});
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(Canon(got->rows), Canon(*truth));
  EXPECT_FALSE(got->rows.empty());
  // Only the owning shard's store did any work.
  for (size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    auto it = got->runtime_stats.per_store.find("s" + std::to_string(i));
    if (i == owner) {
      ASSERT_NE(it, got->runtime_stats.per_store.end());
      EXPECT_GT(it->second.operations, 0u);
    } else if (it != got->runtime_stats.per_store.end()) {
      EXPECT_EQ(it->second.operations, 0u);
    }
  }
}

TEST_F(ScaleoutTest, RangeBoundariesAreUpperExclusive) {
  // Shard 0: u < 10, shard 1: 10 <= u < 20, shard 2: 20 <= u < 30,
  // shard 3: u >= 30.
  ASSERT_TRUE(sys_.DefinePartitionedFragment(
                      "F_users(u, n, c) :- mk.users(u, n, c)",
                      PartitionSpec::Kind::kRange, 0,
                      {"s0", "s1", "s2", "s3"},
                      {Value::Int(10), Value::Int(20), Value::Int(30)})
                  .ok());
  const catalog::StorageDescriptor* desc = Users();
  ASSERT_NE(desc, nullptr);
  // A split value belongs to the shard it opens, one below to the shard
  // it closes.
  struct Probe { int64_t uid; size_t shard; };
  for (Probe p : {Probe{9, 0}, Probe{10, 1}, Probe{19, 1}, Probe{20, 2},
                  Probe{29, 2}, Probe{30, 3}, Probe{39, 3}}) {
    SCOPED_TRACE(p.uid);
    EXPECT_EQ(desc->partition.ShardOf(Value::Int(p.uid)), p.shard);
    // The physical row sits exactly there (uids 0..39 all exist).
    std::string container = "F_users#p" + std::to_string(p.shard);
    auto rows = s_[p.shard].Scan(container);
    ASSERT_TRUE(rows.ok());
    bool found = false;
    for (const Row& r : *rows) found |= r[0] == Value::Int(p.uid);
    EXPECT_TRUE(found);
    // And the key-bound read over the boundary value answers the truth.
    ExpectAnswersTruth(kUsersByKey, {{"$u", Value::Int(p.uid)}});
  }
  ExpectAnswersTruth(kUsersQuery);
}

TEST_F(ScaleoutTest, SkewedAndEmptyShardsStillAnswer) {
  // Every uid (0..39) falls below the first split: shard 0 takes the whole
  // extent, shards 1..3 are empty.
  ASSERT_TRUE(sys_.DefinePartitionedFragment(
                      "F_users(u, n, c) :- mk.users(u, n, c)",
                      PartitionSpec::Kind::kRange, 0,
                      {"s0", "s1", "s2", "s3"},
                      {Value::Int(1000), Value::Int(2000), Value::Int(3000)})
                  .ok());
  auto truth = sys_.EvaluateOverStaging(kUsersQuery);
  ASSERT_TRUE(truth.ok());
  auto all = s_[0].Scan("F_users#p0");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), truth->size());
  for (size_t i = 1; i < 4; ++i) {
    auto rows = s_[i].Scan("F_users#p" + std::to_string(i));
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty()) << "shard " << i;
  }
  // Scatter over the skew answers the truth; a key bound into an empty
  // shard answers the (empty) truth instead of erroring.
  ExpectAnswersTruth(kUsersQuery);
  auto got = sys_.Query(kUsersByKey, {{"$u", Value::Int(2500)}});
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->rows.empty());
}

// ------------------------------------------------------ Catalog export --

TEST_F(ScaleoutTest, CatalogRoundTripPreservesPartitionLayout) {
  DefineUsersHashReplicated();
  ASSERT_TRUE(sys_.DefinePartitionedFragment(
                      "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)",
                      PartitionSpec::Kind::kRange, 0,
                      {"s4", "s5"}, {Value::Int(50)})
                  .ok());
  std::string text = sys_.ExportCatalogJson();

  // A fresh system (same schema + staging, new store instances) imports
  // the layout: spec, shard placements, and answers all survive.
  stores::RelationalStore fresh[8];
  Estocada sys2;
  ASSERT_TRUE(sys2.RegisterSchema(data_.schema).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sys2.RegisterStore({"s" + std::to_string(i),
                                    catalog::StoreKind::kRelational,
                                    &fresh[i], nullptr, nullptr, nullptr,
                                    nullptr})
                    .ok());
  }
  ASSERT_TRUE(sys2.LoadStaging(data_.staging).ok());
  ASSERT_TRUE(sys2.ImportCatalogJson(text).ok());

  auto imported = sys2.catalog().GetFragment("F_users");
  ASSERT_TRUE(imported.ok()) << imported.status();
  const catalog::StorageDescriptor* d = *imported;
  EXPECT_EQ(d->partition.kind, PartitionSpec::Kind::kHash);
  EXPECT_EQ(d->partition.key_position, 0u);
  EXPECT_EQ(d->partition.shards, 4u);
  ASSERT_EQ(d->shards.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(d->shards[i].replicas.size(), 2u);
    EXPECT_EQ(d->shards[i].replicas[0].store_name,
              "s" + std::to_string(2 * i));
    EXPECT_EQ(d->shards[i].replicas[1].store_name,
              "s" + std::to_string(2 * i + 1));
    EXPECT_EQ(d->shards[i].replicas[1].container,
              "F_users#p" + std::to_string(i) + "#r1");
    EXPECT_TRUE(d->shards[i].replica_available(0));
    EXPECT_TRUE(d->shards[i].replica_available(1));
  }
  auto orders = sys2.catalog().GetFragment("F_orders");
  ASSERT_TRUE(orders.ok());
  EXPECT_EQ((*orders)->partition.kind, PartitionSpec::Kind::kRange);
  ASSERT_EQ((*orders)->partition.bounds.size(), 1u);
  EXPECT_TRUE((*orders)->partition.bounds[0] == Value::Int(50));

  auto r1 = sys_.Query(kUsersQuery);
  auto r2 = sys2.Query(kUsersQuery);
  ASSERT_TRUE(r1.ok() && r2.ok()) << r1.status() << r2.status();
  EXPECT_EQ(Canon(r1->rows), Canon(r2->rows));
  EXPECT_EQ(r1->rewriting_text, r2->rewriting_text);
}

// -------------------------------------------------------------- Writes --

TEST_F(ScaleoutTest, WritesRouteToOwningShardOnly) {
  DefineUsersHash(4);
  const catalog::StorageDescriptor* desc = Users();
  ASSERT_NE(desc, nullptr);
  const size_t owner = 2;
  const int64_t uid = FreshUidOwnedBy(owner);
  ASSERT_GE(uid, 0);
  std::vector<size_t> before;
  for (size_t i = 0; i < 4; ++i) {
    auto rows = s_[i].Scan("F_users#p" + std::to_string(i));
    ASSERT_TRUE(rows.ok());
    before.push_back(rows->size());
  }

  ASSERT_TRUE(sys_.InsertRow("mk.users", {Value::Int(uid), Value::Str("nu"),
                                          Value::Str("nc")})
                  .ok());

  for (size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    auto rows = s_[i].Scan("F_users#p" + std::to_string(i));
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), before[i] + (i == owner ? 1 : 0));
    // Only the owning shard's epoch moved: untouched shards must not see
    // their replicas go stale over a write they never took.
    EXPECT_EQ(desc->shards[i].write_epoch, i == owner ? 1u : 0u);
  }
  ExpectAnswersTruth(kUsersByKey, {{"$u", Value::Int(uid)}});
  ExpectAnswersTruth(kUsersQuery);
}

// ------------------------------------------------- Failover + healing --

TEST_F(ScaleoutTest, ShardKillFailsOverToSiblingReplica) {
  DefineUsersHashReplicated();
  QueryServer server(&sys_, FastOptions());
  // Kill shard 1's primary: the sibling replica serves, nothing degrades.
  injector_.SetOutage("s2", true);
  auto truth = sys_.EvaluateOverStaging(kUsersQuery);
  ASSERT_TRUE(truth.ok());
  for (int i = 0; i < 3; ++i) {
    auto r = server.Query(kUsersQuery);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r->degraded_to_staging);
    EXPECT_EQ(Canon(r->rows), Canon(*truth));
  }
}

TEST_F(ScaleoutTest, UnreplicatedShardKillDegradesToStaging) {
  DefineUsersHash(4);
  QueryServer server(&sys_, FastOptions());
  injector_.SetOutage("s2", true);
  // One shard of the only fragment is gone and has no sibling: the ladder
  // bottoms out in the staging area — degraded but still correct.
  auto truth = sys_.EvaluateOverStaging(kUsersQuery);
  ASSERT_TRUE(truth.ok());
  auto r = server.Query(kUsersQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->degraded_to_staging);
  EXPECT_EQ(Canon(r->rows), Canon(*truth));
}

// ------------------------------------------------- Shard replica repair --
// A shard replica heals through the same online copy as an unpartitioned
// replica: addressed as (fragment, shard, replica), filled with the rows
// its shard owns only.

TEST_F(ScaleoutTest, TickHealsStaleShardReplicaWhileAnotherShardTakesWrites) {
  DefineUsersHashReplicated();
  const catalog::StorageDescriptor* desc = Users();
  ASSERT_NE(desc, nullptr);
  QueryServer server(&sys_, FastOptions());
  const size_t shard = 0;  // Replicas on s0 (primary) and s1 (sibling).
  const int64_t uid = FreshUidOwnedBy(shard);
  const int64_t elsewhere = FreshUidOwnedBy(1);
  ASSERT_GE(uid, 0);
  ASSERT_GE(elsewhere, 0);

  // The sibling is down across a write: the primary takes it, the sibling
  // misses it and goes stale.
  injector_.SetOutage("s1", true);
  ASSERT_TRUE(server
                  .InsertRow("mk.users", {Value::Int(uid), Value::Str("nu"),
                                          Value::Str("nc")})
                  .ok());
  EXPECT_FALSE(desc->shards[shard].replica_available(1));
  injector_.SetOutage("s1", false);

  // Mid-copy, an insert routed to shard 1 lands: the online copy captures
  // it, and its catch-up must keep it out of shard 0's replica.
  bool fired = false;
  replication::RepairOptions opts;
  opts.stage_hook = [&](replication::RepairStage at) -> Status {
    if (at != replication::RepairStage::kCatchingUp || fired) {
      return Status::OK();
    }
    fired = true;
    return server.InsertRow("mk.users", {Value::Int(elsewhere),
                                         Value::Str("ne"), Value::Str("ce")});
  };
  replication::ReplicaRepairer repairer(&server, opts);
  auto healed = repairer.Tick();
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(*healed, 1u);
  ASSERT_TRUE(fired);
  const std::vector<replication::RepairReport> history = repairer.history();
  ASSERT_EQ(history.size(), 1u);
  const replication::RepairReport& report = history[0];
  EXPECT_TRUE(report.admitted()) << report.ToString();
  EXPECT_EQ(report.shard, shard);
  EXPECT_EQ(report.replica, 1u);
  EXPECT_EQ(report.progress.deltas_captured, 1u);
  EXPECT_TRUE(report.digest_checked);
  EXPECT_TRUE(desc->shards[shard].replica_available(1));
  EXPECT_TRUE(sys_.VerifyReplica("F_users", shard, 1).ok());

  // The healed replica serves the post-write truth alone.
  injector_.SetOutage("s0", true);
  auto truth = sys_.EvaluateOverStaging(kUsersQuery);
  ASSERT_TRUE(truth.ok());
  auto r = server.Query(kUsersQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->degraded_to_staging);
  EXPECT_EQ(Canon(r->rows), Canon(*truth));
}

TEST_F(ScaleoutTest, ScrubRebuildsCorruptShardReplica) {
  DefineUsersHashReplicated();
  QueryServer server(&sys_, FastOptions());
  const size_t shard = 2;  // Replicas on s4 (primary) and s5 (sibling).

  // Corrupt the sibling behind the server's back: a phantom row its
  // shard would own. Epoch and rebuilding still say "healthy".
  const int64_t phantom = FreshUidOwnedBy(shard);
  ASSERT_GE(phantom, 0);
  ASSERT_TRUE(s_[5].Insert("F_users#p2#r1", {Value::Int(phantom),
                                             Value::Str("bogus"),
                                             Value::Str("nowhere")})
                  .ok());
  EXPECT_FALSE(sys_.VerifyReplica("F_users", shard, 1).ok());

  replication::ReplicaRepairer repairer(&server);
  auto repaired = repairer.Scrub();
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_EQ(*repaired, 1u);
  EXPECT_TRUE(sys_.VerifyReplica("F_users", shard, 1).ok());
  auto primary = sys_.ReplicaDigest("F_users", shard, 0);
  auto sibling = sys_.ReplicaDigest("F_users", shard, 1);
  ASSERT_TRUE(primary.ok() && sibling.ok());
  EXPECT_EQ(*primary, *sibling);

  // The rebuilt sibling serves its shard alone.
  injector_.SetOutage("s4", true);
  auto truth = sys_.EvaluateOverStaging(kUsersQuery);
  ASSERT_TRUE(truth.ok());
  auto r = server.Query(kUsersQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->degraded_to_staging);
  EXPECT_EQ(Canon(r->rows), Canon(*truth));
}

TEST_F(ScaleoutTest, ShardReplicaRepairRejectsBadAddressAndOnlyReplica) {
  DefineUsersHashReplicated();
  ASSERT_TRUE(sys_.DefinePartitionedFragment(
                      "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)",
                      PartitionSpec::Kind::kHash, 0, {"s4", "s5"})
                  .ok());
  QueryServer server(&sys_, FastOptions());
  replication::ReplicaRepairer repairer(&server);

  // No shard 9, no replica 9: the address itself is out of range.
  EXPECT_EQ(repairer.RepairReplica("F_users", 9, 1).error.code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(repairer.RepairReplica("F_users", 0, 9).error.code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(sys_.VerifyReplica("F_users", 4, 0).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(sys_.AdmitReplica("F_users", 0, 2).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(sys_.AppendToPlacement("F_users", 4, 0, {}).code(),
            StatusCode::kOutOfRange);

  // A shard's only replica cannot rebuild: nothing would serve its reads.
  EXPECT_EQ(repairer.RepairReplica("F_orders", 1, 0).error.code(),
            StatusCode::kFailedPrecondition);
  auto orders = sys_.catalog().GetFragment("F_orders");
  ASSERT_TRUE(orders.ok()) << orders.status();
  EXPECT_TRUE((*orders)->shards[1].replica_available(0));
  EXPECT_TRUE(sys_.VerifyReplica("F_orders", 1, 0).ok());
}

// --------------------------------------------------------- Concurrency --
// Four client threads hammer scatter and key-bound reads while the main
// thread kills and revives shard primaries. Run under TSan in CI
// (scripts/check.sh): the scatter fan-out, the breaker registry, and the
// per-store statistics sinks must stay race-free, and every answer a
// client accepts must be the ground truth.

TEST_F(ScaleoutTest, ConcurrentScatterUnderChaosConverges) {
  DefineUsersHashReplicated();
  QueryServer server(&sys_, FastOptions());
  auto truth = sys_.EvaluateOverStaging(kUsersQuery);
  ASSERT_TRUE(truth.ok());
  const std::set<std::string> want = Canon(*truth);
  auto key_truth = sys_.EvaluateOverStaging(kUsersByKey,
                                            {{"$u", Value::Int(7)}});
  ASSERT_TRUE(key_truth.ok());
  const std::set<std::string> want_key = Canon(*key_truth);

  std::atomic<int> wrong{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        if ((t + i) % 2 == 0) {
          auto r = server.Query(kUsersQuery);
          if (!r.ok()) continue;  // Chaos may exhaust the ladder; fine.
          ++served;
          if (Canon(r->rows) != want) ++wrong;
        } else {
          auto r = server.Query(kUsersByKey, {{"$u", Value::Int(7)}});
          if (!r.ok()) continue;
          ++served;
          if (Canon(r->rows) != want_key) ++wrong;
        }
      }
    });
  }
  // Rolling shard-primary kills while the clients run.
  for (int round = 0; round < 6; ++round) {
    std::string victim = "s" + std::to_string(2 * (round % 4));
    injector_.SetOutage(victim, true);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    injector_.SetOutage(victim, false);
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(served.load(), 0);

  // Chaos over: the converged system serves undegraded truth again.
  server.health().Reset();
  auto r = server.Query(kUsersQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->degraded_to_staging);
  EXPECT_EQ(Canon(r->rows), want);
}

}  // namespace
}  // namespace estocada
