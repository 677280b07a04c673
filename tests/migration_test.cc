/// Tests of the online migration engine (src/migration): the staged state
/// machine, delta capture/replay, throttling, fault-injection retries,
/// breaker pause/resume, and — the core guarantee — that an abort from
/// *every* pre-Retired stage leaves the old layout serving correctly.

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "migration/migration.h"
#include "pivot/parser.h"
#include "stores/fault.h"
#include "workload/marketplace.h"

namespace estocada::migration {
namespace {

using engine::Row;
using engine::Value;
using pivot::Adornment;
using runtime::QueryServer;
using runtime::ServerOptions;

/// Marketplace deployment with the five stores, the standard fragment
/// layout, and a fault injector attached to every store.
class MigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::MarketplaceConfig cfg;
    cfg.seed = 11;
    cfg.num_users = 60;
    cfg.num_products = 25;
    cfg.num_orders = 250;
    cfg.num_visits = 400;
    auto data = workload::GenerateMarketplace(cfg);
    ASSERT_TRUE(data.ok()) << data.status();
    data_ = std::move(*data);

    relational_.AttachFaultInjector(&injector_, "postgres");
    kv_.AttachFaultInjector(&injector_, "redis");
    doc_.AttachFaultInjector(&injector_, "mongo");
    parallel_.AttachFaultInjector(&injector_, "spark");
    text_.AttachFaultInjector(&injector_, "solr");

    ASSERT_TRUE(sys_.RegisterSchema(data_.schema).ok());
    ASSERT_TRUE(sys_.RegisterStore({"postgres", catalog::StoreKind::kRelational,
                                    &relational_, nullptr, nullptr, nullptr,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"postgres2",
                                    catalog::StoreKind::kRelational,
                                    &relational2_, nullptr, nullptr, nullptr,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"redis", catalog::StoreKind::kKeyValue,
                                    nullptr, &kv_, nullptr, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"mongo", catalog::StoreKind::kDocument,
                                    nullptr, nullptr, &doc_, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"spark", catalog::StoreKind::kParallel,
                                    nullptr, nullptr, nullptr, &parallel_,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"solr", catalog::StoreKind::kText, nullptr,
                                    nullptr, nullptr, nullptr, &text_})
                    .ok());
    ASSERT_TRUE(sys_.LoadStaging(data_.staging).ok());

    ASSERT_TRUE(sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                    "postgres", {}, {0})
                    .ok());
    ASSERT_TRUE(sys_.DefineFragment(
                        "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)",
                        "postgres", {}, {1, 2})
                    .ok());
    ASSERT_TRUE(sys_.DefineFragment("F_carts(u, c) :- mk.carts(u, c)", "redis",
                                    {Adornment::kInput, Adornment::kFree})
                    .ok());
    ASSERT_TRUE(sys_.DefineFragment("F_visits(u, p, d) :- mk.visits(u, p, d)",
                                    "spark", {}, {0, 1})
                    .ok());
  }

  static MigrationSpec SpecFor(const std::string& view_text,
                               const std::string& store,
                               std::vector<Adornment> adornments = {},
                               std::vector<std::string> retire = {}) {
    auto q = pivot::ParseQuery(view_text);
    EXPECT_TRUE(q.ok()) << q.status();
    MigrationSpec spec;
    spec.view.query = *q;
    spec.view.adornments = std::move(adornments);
    spec.store_name = store;
    spec.retire = std::move(retire);
    return spec;
  }

  static std::set<std::string> Canon(const std::vector<Row>& rows) {
    std::set<std::string> out;
    for (const Row& r : rows) out.insert(engine::RowToString(r));
    return out;
  }

  /// Asserts that `server` answers `query_text` exactly like the staging
  /// ground truth — the "old layout still serves correctly" check.
  void ExpectServesTruth(QueryServer* server, const std::string& query_text) {
    auto truth = sys_.EvaluateOverStaging(query_text);
    ASSERT_TRUE(truth.ok()) << truth.status();
    auto served = server->Query(query_text);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(Canon(served->rows), Canon(*truth));
  }

  workload::MarketplaceData data_;
  stores::FaultInjector injector_{/*seed=*/42};
  stores::RelationalStore relational_;
  stores::RelationalStore relational2_;
  stores::KeyValueStore kv_;
  stores::DocumentStore doc_;
  stores::ParallelStore parallel_{2};
  stores::TextStore text_;
  Estocada sys_;
};

constexpr char kOrdersQuery[] = "q(o, u, p, t) :- mk.orders(o, u, p, t)";
constexpr char kOrdersView[] = "F_mig(o, u, p, t) :- mk.orders(o, u, p, t)";

// ----------------------------------------------------------- Happy path --

TEST_F(MigrationTest, HappyPathMigratesCutsOverAndRetires) {
  QueryServer server(&sys_);
  // Warm the plan cache against the old layout; the cutover must
  // invalidate it.
  ExpectServesTruth(&server, kOrdersQuery);

  const uint64_t epoch_before = sys_.catalog_epoch();
  MigrationSpec spec = SpecFor(kOrdersView, "spark", {}, {"F_orders"});
  spec.index_positions = {1, 2};
  MigrationEngine engine(&server, spec);
  Status st = engine.Run();
  ASSERT_TRUE(st.ok()) << st;

  MigrationStatus status = engine.status();
  EXPECT_EQ(status.stage, MigrationStage::kRetired);
  EXPECT_TRUE(status.error.ok());
  auto truth = sys_.EvaluateOverStaging(kOrdersQuery);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(status.metrics.rows_copied, Canon(*truth).size());
  EXPECT_GT(status.metrics.batches, 0u);
  EXPECT_GT(status.metrics.cutover_epoch, epoch_before);

  // Old fragment gone, target live and physically correct.
  EXPECT_FALSE(sys_.catalog().GetFragment("F_orders").ok());
  auto target = sys_.catalog().GetFragment("F_mig");
  ASSERT_TRUE(target.ok());
  EXPECT_FALSE((*target)->is_shadow());
  EXPECT_TRUE(sys_.VerifyFragment("F_mig").ok());

  // The (cached) query now answers from the new layout, still correctly.
  ExpectServesTruth(&server, kOrdersQuery);
}

TEST_F(MigrationTest, ShadowStaysInvisibleUntilCutover) {
  QueryServer server(&sys_);
  MigrationEngine engine(&server, SpecFor(kOrdersView, "spark"));
  ASSERT_TRUE(engine.RunUntil(MigrationStage::kVerifying).ok());
  // Mid-migration: the target exists as a shadow, the planner ignores it,
  // no epoch bump happened, and queries serve from the old layout.
  auto desc = sys_.catalog().GetFragment("F_mig");
  ASSERT_TRUE(desc.ok());
  EXPECT_TRUE((*desc)->is_shadow());
  for (const pacb::ViewDefinition& v : sys_.catalog().AllViews()) {
    EXPECT_NE(v.name(), "F_mig");
  }
  ExpectServesTruth(&server, kOrdersQuery);
  ASSERT_TRUE(engine.RunUntil(MigrationStage::kRetired).ok());
  EXPECT_FALSE((*sys_.catalog().GetFragment("F_mig"))->is_shadow());
}

// --------------------------------------------- Abort paths (every stage) --

TEST_F(MigrationTest, AbortFromEveryStageLeavesOldLayoutServing) {
  QueryServer server(&sys_);
  const uint64_t epoch_before = sys_.catalog_epoch();
  const std::vector<MigrationStage> stops = {
      MigrationStage::kPlanned, MigrationStage::kBackfilling,
      MigrationStage::kCatchingUp, MigrationStage::kVerifying,
      MigrationStage::kCutOver};
  for (MigrationStage stop : stops) {
    SCOPED_TRACE(StageName(stop));
    MigrationEngine engine(&server,
                           SpecFor(kOrdersView, "spark", {}, {"F_orders"}));
    ASSERT_TRUE(engine.RunUntil(stop).ok());
    ASSERT_TRUE(engine.Abort().ok());
    EXPECT_EQ(engine.status().stage, MigrationStage::kAborted);
    EXPECT_EQ(engine.status().error.code(), StatusCode::kAborted);

    // Rollback: no trace of the target, sources intact...
    EXPECT_FALSE(sys_.catalog().GetFragment("F_mig").ok());
    ASSERT_TRUE(sys_.catalog().GetFragment("F_orders").ok());
    // ... the old layout answers queries correctly (validated against the
    // staging truth) and its container still matches its view.
    ExpectServesTruth(&server, kOrdersQuery);
    EXPECT_TRUE(sys_.VerifyFragment("F_orders").ok());
    if (stop != MigrationStage::kCutOver) {
      // Pre-cutover the planner never saw the shadow: rolling back must
      // not have invalidated any cached plan.
      EXPECT_EQ(sys_.catalog_epoch(), epoch_before);
    } else {
      // Post-activation rollback bumps the epoch back to the old layout.
      EXPECT_GT(sys_.catalog_epoch(), epoch_before);
    }
  }
}

TEST_F(MigrationTest, AbortAfterRetireIsRejected) {
  QueryServer server(&sys_);
  MigrationEngine engine(&server, SpecFor(kOrdersView, "spark"));
  ASSERT_TRUE(engine.Run().ok());
  Status st = engine.Abort();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.status().stage, MigrationStage::kRetired);
}

TEST_F(MigrationTest, VerificationFailureAbortsAndRollsBack) {
  QueryServer server(&sys_);
  MigrationEngine engine(&server,
                         SpecFor(kOrdersView, "postgres", {}, {"F_orders"}));
  ASSERT_TRUE(engine.RunUntil(MigrationStage::kVerifying).ok());
  // Corrupt the shadow container: a type-correct row the view over
  // staging does not contain.
  auto truth = sys_.EvaluateOverStaging(kOrdersQuery);
  ASSERT_TRUE(truth.ok() && !truth->empty());
  Row bogus = (*truth)[0];
  bogus[0] = Value::Int(99999999);
  ASSERT_TRUE(server
                  .WithAdminLock([&](Estocada* sys) {
                    return sys->AppendToPlacement("F_mig", 0, 0, {bogus});
                  })
                  .ok());
  Status st = engine.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
  EXPECT_EQ(engine.status().stage, MigrationStage::kAborted);
  EXPECT_FALSE(sys_.catalog().GetFragment("F_mig").ok());
  ASSERT_TRUE(sys_.catalog().GetFragment("F_orders").ok());
  ExpectServesTruth(&server, kOrdersQuery);
}

// --------------------------------------------------- Delta catch-up path --

TEST_F(MigrationTest, InsertDuringMigrationIsReplayedIntoTarget) {
  QueryServer server(&sys_);
  MigrationEngine engine(&server, SpecFor(kOrdersView, "spark"));
  ASSERT_TRUE(engine.RunUntil(MigrationStage::kCatchingUp).ok());
  // Backfill done; this insert lands only through the delta log.
  ASSERT_TRUE(server
                  .InsertRow("mk.orders", {Value::Int(900001), Value::Int(1),
                                           Value::Int(2), Value::Int(5)})
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  MigrationStatus status = engine.status();
  EXPECT_GE(status.metrics.deltas_captured, 1u);
  EXPECT_GE(status.metrics.deltas_replayed, 1u);
  EXPECT_GE(status.metrics.catchup_rounds, 1u);
  EXPECT_TRUE(sys_.VerifyFragment("F_mig").ok());
  ExpectServesTruth(&server, kOrdersQuery);
}

TEST_F(MigrationTest, DeleteDuringMigrationForcesRebuild) {
  QueryServer server(&sys_);
  MigrationEngine engine(&server, SpecFor(kOrdersView, "spark"));
  ASSERT_TRUE(engine.RunUntil(MigrationStage::kCatchingUp).ok());
  auto truth = sys_.EvaluateOverStaging(kOrdersQuery);
  ASSERT_TRUE(truth.ok() && !truth->empty());
  ASSERT_TRUE(server.DeleteRow("mk.orders", (*truth)[0]).ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_GE(engine.status().metrics.rebuilds, 1u);
  EXPECT_TRUE(sys_.VerifyFragment("F_mig").ok());
  ExpectServesTruth(&server, kOrdersQuery);
}

TEST_F(MigrationTest, TextTargetMigratesViaRebuild) {
  QueryServer server(&sys_);
  MigrationEngine engine(
      &server, SpecFor("F_terms2(p, w) :- mk.prodterms(p, w)", "solr",
                       {Adornment::kFree, Adornment::kInput}));
  ASSERT_TRUE(engine.Run().ok());
  MigrationStatus status = engine.status();
  EXPECT_EQ(status.stage, MigrationStage::kRetired);
  EXPECT_EQ(status.metrics.rows_copied, 0u);  // No append path to text.
  EXPECT_GE(status.metrics.rebuilds, 1u);
  EXPECT_TRUE(sys_.VerifyFragment("F_terms2").ok());
}

// ------------------------------------------------- Throttle & drop-only --

TEST_F(MigrationTest, ThrottleBoundsTheCopyRate) {
  QueryServer server(&sys_);
  MigrationOptions options;
  options.batch_rows = 16;
  options.max_rows_per_sec = 2000;
  MigrationEngine engine(&server, SpecFor(kOrdersView, "spark"), options);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(engine.Run().ok());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  MigrationStatus status = engine.status();
  EXPECT_GE(status.metrics.throttle_stalls, 1u);
  // 250 rows at <= 2000 rows/sec cannot finish faster than the budget.
  EXPECT_GE(elapsed,
            static_cast<double>(status.metrics.rows_copied) / 2000.0 * 0.9);
}

TEST_F(MigrationTest, DropOnlyMigrationRetiresWithoutBuilding) {
  QueryServer server(&sys_);
  MigrationSpec spec;
  spec.retire = {"F_visits"};
  ASSERT_TRUE(spec.drop_only());
  const uint64_t epoch_before = sys_.catalog_epoch();
  MigrationEngine engine(&server, spec);
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.status().stage, MigrationStage::kRetired);
  EXPECT_EQ(engine.status().metrics.rows_copied, 0u);
  EXPECT_FALSE(sys_.catalog().GetFragment("F_visits").ok());
  EXPECT_GT(sys_.catalog_epoch(), epoch_before);
  ExpectServesTruth(&server, kOrdersQuery);
}

TEST_F(MigrationTest, PlanFailsOnUnknownRetireFragment) {
  QueryServer server(&sys_);
  MigrationSpec spec;
  spec.retire = {"F_nonexistent"};
  MigrationEngine engine(&server, spec);
  Status st = engine.Run();
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.status().stage, MigrationStage::kAborted);
}

TEST(MigrationSpecTest, FromRecommendationLiftsBothActions) {
  advisor::Recommendation add;
  add.action = advisor::Recommendation::Action::kAddFragment;
  add.view.query = *pivot::ParseQuery("F_r(u, c) :- mk.carts(u, c)");
  add.store_name = "redis";
  MigrationSpec add_spec = MigrationSpec::FromRecommendation(add);
  EXPECT_FALSE(add_spec.drop_only());
  EXPECT_EQ(add_spec.store_name, "redis");
  EXPECT_TRUE(add_spec.retire.empty());

  advisor::Recommendation drop;
  drop.action = advisor::Recommendation::Action::kDropFragment;
  drop.fragment_name = "F_old";
  MigrationSpec drop_spec = MigrationSpec::FromRecommendation(drop);
  EXPECT_TRUE(drop_spec.drop_only());
  ASSERT_EQ(drop_spec.retire.size(), 1u);
  EXPECT_EQ(drop_spec.retire[0], "F_old");
}

// ------------------------------------------- Faults, retries, breakers --

TEST_F(MigrationTest, TransientTargetFaultsAreRetriedToCompletion) {
  QueryServer server(&sys_);
  // The KV append path reads (Get-merge-Put), so forced read failures hit
  // the backfill; the retry envelope must absorb them.
  injector_.FailNextReads("redis", 3);
  MigrationEngine engine(
      &server, SpecFor("F_carts2(u, c) :- mk.carts(u, c)", "redis",
                       {Adornment::kInput, Adornment::kFree}));
  Status st = engine.Run();
  ASSERT_TRUE(st.ok()) << st;
  MigrationStatus status = engine.status();
  EXPECT_EQ(status.stage, MigrationStage::kRetired);
  EXPECT_GE(status.metrics.target_retries, 1u);
  EXPECT_TRUE(sys_.VerifyFragment("F_carts2").ok());
}

TEST_F(MigrationTest, NonRetryableFaultAbortsWithRollback) {
  QueryServer server(&sys_);
  MigrationOptions options;
  options.max_retries = 2;
  options.retry_backoff_micros = 10;
  // A hard outage outlasting the retry budget: the migration must give up
  // and roll back, not wedge.
  injector_.SetOutage("spark", true);
  ServerOptions so;
  so.health.failure_threshold = 1000000;  // Keep the breaker out of this.
  QueryServer faulty_server(&sys_, so);
  MigrationEngine engine(&faulty_server,
                         SpecFor(kOrdersView, "spark", {}, {"F_orders"}),
                         options);
  Status st = engine.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.status().stage, MigrationStage::kAborted);
  injector_.SetOutage("spark", false);
  EXPECT_FALSE(sys_.catalog().GetFragment("F_mig").ok());
  ASSERT_TRUE(sys_.catalog().GetFragment("F_orders").ok());
  ExpectServesTruth(&server, kOrdersQuery);
}

TEST_F(MigrationTest, OpenBreakerPausesThenResumes) {
  ServerOptions so;
  so.health.failure_threshold = 2;
  so.health.open_cooldown_micros = 2000;
  QueryServer server(&sys_, so);
  MigrationOptions options;
  options.max_retries = 1000000;  // Outlast the induced outage.
  options.retry_backoff_micros = 100;
  injector_.SetOutage("redis", true);
  MigrationManager manager(&server);
  auto id = manager.Start(
      SpecFor("F_carts2(u, c) :- mk.carts(u, c)", "redis",
              {Adornment::kInput, Adornment::kFree}),
      options);
  ASSERT_TRUE(id.ok()) << id.status();
  // The failing appends trip the redis breaker; the migration must pause
  // on it instead of wedging or aborting.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto status = manager.GetStatus(*id);
    ASSERT_TRUE(status.ok());
    if (status->metrics.breaker_pauses >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(manager.GetStatus(*id)->metrics.breaker_pauses, 1u);
  // Store recovers: the half-open probe succeeds and the migration
  // resumes to completion.
  injector_.SetOutage("redis", false);
  auto final_status = manager.Wait(*id);
  ASSERT_TRUE(final_status.ok());
  EXPECT_EQ(final_status->stage, MigrationStage::kRetired)
      << final_status->ToString();
  EXPECT_TRUE(sys_.VerifyFragment("F_carts2").ok());
}

// -------------------------------------------------------------- Manager --

TEST_F(MigrationTest, ManagerRunsStatusAndList) {
  QueryServer server(&sys_);
  MigrationManager manager(&server);
  auto id = manager.Start(SpecFor(kOrdersView, "spark", {}, {"F_orders"}));
  ASSERT_TRUE(id.ok());
  auto final_status = manager.Wait(*id);
  ASSERT_TRUE(final_status.ok());
  EXPECT_EQ(final_status->stage, MigrationStage::kRetired);
  EXPECT_EQ(manager.List().size(), 1u);
  EXPECT_EQ(manager.GetStatus(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Abort(999).code(), StatusCode::kNotFound);
}

TEST_F(MigrationTest, ManagerAbortInterruptsThrottledBackfill) {
  QueryServer server(&sys_);
  MigrationOptions options;
  options.batch_rows = 8;
  options.max_rows_per_sec = 300;  // ~0.8s of backfill runway.
  MigrationManager manager(&server);
  auto id = manager.Start(SpecFor(kOrdersView, "spark", {}, {"F_orders"}),
                          options);
  ASSERT_TRUE(id.ok());
  // Let the backfill make some progress, with queries in flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    ExpectServesTruth(&server, kOrdersQuery);
    auto status = manager.GetStatus(*id);
    ASSERT_TRUE(status.ok());
    if (status->metrics.rows_copied > 0) break;
  }
  ASSERT_TRUE(manager.Abort(*id).ok());
  auto final_status = manager.Wait(*id);
  ASSERT_TRUE(final_status.ok());
  EXPECT_EQ(final_status->stage, MigrationStage::kAborted);
  EXPECT_FALSE(sys_.catalog().GetFragment("F_mig").ok());
  ASSERT_TRUE(sys_.catalog().GetFragment("F_orders").ok());
  ExpectServesTruth(&server, kOrdersQuery);
}

TEST_F(MigrationTest, WaitForTimesOutWithoutDisturbingTheMigration) {
  QueryServer server(&sys_);
  MigrationOptions options;
  options.batch_rows = 8;
  options.max_rows_per_sec = 300;  // ~0.8s of backfill runway.
  MigrationManager manager(&server);
  auto id = manager.Start(SpecFor(kOrdersView, "spark", {}, {"F_orders"}),
                          options);
  ASSERT_TRUE(id.ok());
  // Far shorter than the throttled backfill: the deadline must expire.
  auto timed_out = manager.WaitFor(*id, /*timeout_micros=*/1000);
  EXPECT_EQ(timed_out.status().code(), StatusCode::kUnavailable);
  // The timeout left the migration running; a full Wait still retires it.
  auto final_status = manager.Wait(*id);
  ASSERT_TRUE(final_status.ok());
  EXPECT_EQ(final_status->stage, MigrationStage::kRetired)
      << final_status->ToString();
  // Terminated migrations resolve within any bound.
  auto again = manager.WaitFor(*id, /*timeout_micros=*/1000);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stage, MigrationStage::kRetired);
  EXPECT_EQ(manager.WaitFor(999, 1000).status().code(), StatusCode::kNotFound);
}

TEST_F(MigrationTest, CompletionCallbackFiresOnAbortBeforeWaitReturns) {
  QueryServer server(&sys_);
  MigrationOptions options;
  options.batch_rows = 8;
  options.max_rows_per_sec = 300;
  MigrationManager manager(&server);
  std::atomic<int> calls{0};
  uint64_t seen_id = 0;
  MigrationStatus seen_status;
  auto id = manager.Start(
      SpecFor(kOrdersView, "spark", {}, {"F_orders"}), options,
      [&](uint64_t done_id, const MigrationStatus& status) {
        seen_id = done_id;
        seen_status = status;
        calls.fetch_add(1, std::memory_order_release);
      });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(manager.Abort(*id).ok());
  auto final_status = manager.Wait(*id);
  ASSERT_TRUE(final_status.ok());
  EXPECT_EQ(final_status->stage, MigrationStage::kAborted);
  // Wait returned, so the callback must already have run, exactly once,
  // with the terminal (aborted) status.
  EXPECT_EQ(calls.load(std::memory_order_acquire), 1);
  EXPECT_EQ(seen_id, *id);
  EXPECT_EQ(seen_status.stage, MigrationStage::kAborted);
}

TEST_F(MigrationTest, CompletionCallbackFiresOnSuccess) {
  QueryServer server(&sys_);
  MigrationManager manager(&server);
  std::atomic<int> calls{0};
  MigrationStatus seen_status;
  auto id = manager.Start(
      SpecFor(kOrdersView, "spark", {}, {"F_orders"}), {},
      [&](uint64_t, const MigrationStatus& status) {
        seen_status = status;
        calls.fetch_add(1, std::memory_order_release);
      });
  ASSERT_TRUE(id.ok());
  auto final_status = manager.Wait(*id);
  ASSERT_TRUE(final_status.ok());
  EXPECT_EQ(final_status->stage, MigrationStage::kRetired);
  EXPECT_EQ(calls.load(std::memory_order_acquire), 1);
  EXPECT_EQ(seen_status.stage, MigrationStage::kRetired);
}

TEST_F(MigrationTest, QueriesKeepAnsweringCorrectlyThroughoutMigration) {
  QueryServer server(&sys_);
  MigrationOptions options;
  options.batch_rows = 16;
  options.max_rows_per_sec = 2500;  // Stretch to ~100ms of runway.
  MigrationManager manager(&server);
  auto truth = sys_.EvaluateOverStaging(kOrdersQuery);
  ASSERT_TRUE(truth.ok());
  const std::set<std::string> expected = Canon(*truth);
  auto id = manager.Start(SpecFor(kOrdersView, "spark", {}, {"F_orders"}),
                          options);
  ASSERT_TRUE(id.ok());
  // Hammer the query path while the layout changes under it: every answer
  // before, during, and after the cutover must equal the staging truth.
  size_t checks = 0;
  while (true) {
    auto served = server.Query(kOrdersQuery);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(Canon(served->rows), expected);
    ++checks;
    auto status = manager.GetStatus(*id);
    ASSERT_TRUE(status.ok());
    if (status->stage == MigrationStage::kRetired ||
        status->stage == MigrationStage::kAborted) {
      break;
    }
  }
  EXPECT_GT(checks, 1u);
  auto final_status = manager.Wait(*id);
  ASSERT_TRUE(final_status.ok());
  EXPECT_EQ(final_status->stage, MigrationStage::kRetired)
      << final_status->ToString();
}

// ------------------------------------------- Partitioned source layouts --

TEST_F(MigrationTest, RefragmentsPartitionedFragmentUnderTraffic) {
  // Re-home F_users onto a hash-partitioned two-shard layout, then migrate
  // it back into a single document-store fragment while reads hammer the
  // scatter path: every answer before, during, and after the cutover must
  // equal the staging truth, and retirement must tear down every shard
  // container.
  ASSERT_TRUE(sys_.DropFragment("F_users").ok());
  ASSERT_TRUE(sys_.DefinePartitionedFragment(
                      "F_users(u, n, c) :- mk.users(u, n, c)",
                      catalog::PartitionSpec::Kind::kHash, 0,
                      {"postgres", "postgres2"})
                  .ok());
  QueryServer server(&sys_);
  constexpr char kUsersQuery[] = "q(u, n, c) :- mk.users(u, n, c)";
  auto truth = sys_.EvaluateOverStaging(kUsersQuery);
  ASSERT_TRUE(truth.ok());
  const std::set<std::string> expected = Canon(*truth);
  {
    auto served = server.Query(kUsersQuery);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_NE(served->plan_text.find("scatter"), std::string::npos)
        << served->plan_text;
  }

  MigrationOptions options;
  options.batch_rows = 8;
  options.max_rows_per_sec = 1500;
  MigrationManager manager(&server);
  auto id = manager.Start(
      SpecFor("F_mig(u, n, c) :- mk.users(u, n, c)", "mongo", {},
              {"F_users"}),
      options);
  ASSERT_TRUE(id.ok()) << id.status();
  size_t checks = 0;
  while (true) {
    auto served = server.Query(kUsersQuery);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(Canon(served->rows), expected);
    ++checks;
    auto status = manager.GetStatus(*id);
    ASSERT_TRUE(status.ok());
    if (status->stage == MigrationStage::kRetired ||
        status->stage == MigrationStage::kAborted) {
      break;
    }
  }
  EXPECT_GT(checks, 1u);
  auto final_status = manager.Wait(*id);
  ASSERT_TRUE(final_status.ok());
  EXPECT_EQ(final_status->stage, MigrationStage::kRetired)
      << final_status->ToString();

  // The partitioned layout is fully gone — descriptor and both shard
  // containers — and the new fragment serves without scattering.
  EXPECT_FALSE(sys_.catalog().GetFragment("F_users").ok());
  EXPECT_FALSE(relational_.HasTable("F_users#p0"));
  EXPECT_FALSE(relational2_.HasTable("F_users#p1"));
  auto served = server.Query(kUsersQuery);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(Canon(served->rows), expected);
  EXPECT_EQ(served->plan_text.find("scatter"), std::string::npos)
      << served->plan_text;

  // Post-cutover writes maintain the migrated fragment, not ghosts of the
  // retired shards.
  ASSERT_TRUE(sys_.InsertRow("mk.users", {Value::Int(100000),
                                          Value::Str("nu"),
                                          Value::Str("nc")})
                  .ok());
  auto after = server.Query(kUsersQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  auto new_truth = sys_.EvaluateOverStaging(kUsersQuery);
  ASSERT_TRUE(new_truth.ok());
  EXPECT_EQ(Canon(after->rows), Canon(*new_truth));
}

}  // namespace
}  // namespace estocada::migration
