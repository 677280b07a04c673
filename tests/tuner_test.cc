/// Tests of the Autopilot (src/tuner): autonomous convergence on a
/// lookup-heavy workload, refusal to act on an ambiguous mix, the
/// post-cutover regression check (revert + blacklist when the cost model
/// lies), guardrail bookkeeping, and daemon start/stop safety.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tuner/tuner.h"
#include "workload/marketplace.h"

namespace estocada::tuner {
namespace {

using engine::Value;
using migration::MigrationManager;
using runtime::QueryServer;

/// Marketplace deployment the Autopilot tunes. `Init` is explicit so a
/// test can deploy a key-value store whose real cost profile deviates
/// from the advisor's blueprint (the "cost model lies" scenario).
class TunerTest : public ::testing::Test {
 protected:
  void Init(stores::CostProfile kv_profile =
                advisor::CostModel::BlueprintProfile(
                    catalog::StoreKind::kKeyValue)) {
    kv_ = std::make_unique<stores::KeyValueStore>(kv_profile);
    workload::MarketplaceConfig cfg;
    cfg.seed = 13;
    cfg.num_users = 50;
    cfg.num_products = 20;
    cfg.num_orders = 200;
    cfg.num_visits = 300;
    auto data = workload::GenerateMarketplace(cfg);
    ASSERT_TRUE(data.ok()) << data.status();
    data_ = std::move(*data);

    ASSERT_TRUE(sys_.RegisterSchema(data_.schema).ok());
    ASSERT_TRUE(sys_.RegisterStore({"postgres", catalog::StoreKind::kRelational,
                                    &relational_, nullptr, nullptr, nullptr,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"redis", catalog::StoreKind::kKeyValue,
                                    nullptr, kv_.get(), nullptr, nullptr,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"mongo", catalog::StoreKind::kDocument,
                                    nullptr, nullptr, &doc_, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"spark", catalog::StoreKind::kParallel,
                                    nullptr, nullptr, nullptr, &parallel_,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.LoadStaging(data_.staging).ok());

    ASSERT_TRUE(sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                    "postgres", {}, {0})
                    .ok());
    ASSERT_TRUE(sys_.DefineFragment(
                        "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)",
                        "postgres", {}, {1, 2})
                    .ok());
    // Carts live in the document store: correct, but slower than the KV
    // placement the advisor will recommend under lookup-heavy traffic.
    ASSERT_TRUE(sys_.DefineFragment("F_carts(u, c) :- mk.carts(u, c)",
                                    "mongo", {}, {0})
                    .ok());
    ASSERT_TRUE(sys_.DefineFragment("F_visits(u, p, d) :- mk.visits(u, p, d)",
                                    "spark", {}, {0, 1})
                    .ok());
    server_ = std::make_unique<QueryServer>(&sys_);
    manager_ = std::make_unique<MigrationManager>(server_.get());
  }

  /// Autopilot options sized for the small test deployment (document
  /// lookups cost ~12, below the advisor's default 30 threshold).
  static AutopilotOptions Options() {
    AutopilotOptions opt;
    opt.advisor.min_count = 4;
    opt.advisor.min_mean_cost = 5.0;
    opt.cooldown_ticks = 2;
    return opt;
  }

  double DriveCartLookups(int n) {
    double cost = 0;
    for (int i = 0; i < n; ++i) {
      auto r = server_->Query(workload::MarketplaceQueries::CartByUser(),
                              {{"$uid", Value::Int(i % 50)}});
      EXPECT_TRUE(r.ok()) << r.status();
      cost += r->simulated_cost();
    }
    return cost;
  }

  double DriveOrderVisitJoins(int n) {
    double cost = 0;
    for (int i = 0; i < n; ++i) {
      auto r = server_->Query(
          "q(o, p) :- mk.orders(o, $uid, p, t), mk.visits($uid, p, d)",
          {{"$uid", Value::Int(i % 50)}});
      EXPECT_TRUE(r.ok()) << r.status();
      cost += r->simulated_cost();
    }
    return cost;
  }

  /// Ticks until the Autopilot has harvested every launched migration.
  void DrainInFlight(Autopilot* pilot) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (pilot->in_flight() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ASSERT_TRUE(pilot->TickOnce().ok());
    }
    ASSERT_EQ(pilot->in_flight(), 0u) << "migration never harvested";
  }

  workload::MarketplaceData data_;
  stores::RelationalStore relational_;
  std::unique_ptr<stores::KeyValueStore> kv_;
  stores::DocumentStore doc_;
  stores::ParallelStore parallel_{2};
  Estocada sys_;
  std::unique_ptr<QueryServer> server_;
  std::unique_ptr<MigrationManager> manager_;
};

TEST_F(TunerTest, ConvergesOnLookupHeavyWorkloadWithoutOperatorInput) {
  Init();
  Autopilot pilot(server_.get(), manager_.get(), Options());

  double before = DriveCartLookups(12) / 12.0;
  ASSERT_TRUE(pilot.TickOnce().ok());
  auto m = pilot.metrics();
  EXPECT_EQ(m.launches, 1u) << m.ToString();
  DrainInFlight(&pilot);

  m = pilot.metrics();
  EXPECT_EQ(m.completions, 1u) << m.ToString();
  EXPECT_EQ(m.regressions, 0u);
  EXPECT_EQ(m.blacklist_size, 0u);
  // The tuner-built fragment is live in the KV store...
  auto frag = sys_.catalog().GetFragment("F_auto_0");
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ((*frag)->primary().store_name, "redis");
  // ... and serving got cheaper while staying correct.
  auto truth = sys_.EvaluateOverStaging(
      workload::MarketplaceQueries::CartByUser(), {{"$uid", Value::Int(3)}});
  ASSERT_TRUE(truth.ok());
  auto served = server_->Query(workload::MarketplaceQueries::CartByUser(),
                               {{"$uid", Value::Int(3)}});
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->rows.size(), truth->size());
  double after = DriveCartLookups(12) / 12.0;
  EXPECT_LT(after, before);

  // Converged: the equivalent fragment now exists, so later ticks launch
  // nothing more.
  ASSERT_TRUE(pilot.TickOnce().ok());
  EXPECT_EQ(pilot.metrics().launches, 1u);

  // The decision log narrates the loop: a launch, then a completion.
  std::vector<std::string> actions;
  for (const Decision& d : pilot.decision_log()) actions.push_back(d.action);
  EXPECT_NE(std::find(actions.begin(), actions.end(), "launch"),
            actions.end());
  EXPECT_NE(std::find(actions.begin(), actions.end(), "complete"),
            actions.end());
}

TEST_F(TunerTest, AmbiguousMixedWorkloadLaunchesNothing) {
  Init();
  Autopilot pilot(server_.get(), manager_.get(), Options());

  // Balance the *cost shares*: measure one of each shape, then issue
  // counts that put both families near 50% — below the 60% dominance
  // threshold.
  double lookup_unit = DriveCartLookups(1);
  double join_unit = DriveOrderVisitJoins(1);
  int joins = 8;
  int lookups = std::max(
      4, static_cast<int>(joins * join_unit / lookup_unit + 0.5));
  DriveCartLookups(lookups);
  DriveOrderVisitJoins(joins - 1);

  auto pattern = server_->ClassifyWorkload(Options().advisor);
  ASSERT_EQ(pattern.pattern, advisor::WorkloadPattern::kMixed)
      << pattern.ToString();
  ASSERT_TRUE(pilot.TickOnce().ok());
  auto m = pilot.metrics();
  EXPECT_EQ(m.launches, 0u) << m.ToString();
  EXPECT_GE(m.skipped_ambiguous, 1u);
  EXPECT_EQ(pilot.in_flight(), 0u);
}

TEST_F(TunerTest, LyingCostModelTriggersRevertAndBlacklist) {
  // The deployed KV store is ~40x more expensive than the blueprint the
  // predictions price against: the launch looks great on paper and
  // regresses in reality.
  Init(stores::CostProfile{/*per_operation=*/500.0, /*per_row_scanned=*/0.02,
                           /*per_index_lookup=*/0.3,
                           /*per_row_returned=*/0.05});
  Autopilot pilot(server_.get(), manager_.get(), Options());

  DriveCartLookups(12);
  ASSERT_TRUE(pilot.TickOnce().ok());
  ASSERT_EQ(pilot.metrics().launches, 1u);
  DrainInFlight(&pilot);

  auto m = pilot.metrics();
  EXPECT_EQ(m.regressions, 1u) << m.ToString();
  EXPECT_EQ(m.reverts, 1u);
  EXPECT_EQ(m.completions, 0u);
  EXPECT_EQ(m.blacklist_size, 1u);
  ASSERT_EQ(pilot.blacklist().size(), 1u);
  // The regressed fragment was dropped again; the original placement
  // still serves, correctly.
  EXPECT_FALSE(sys_.catalog().GetFragment("F_auto_0").ok());
  ASSERT_TRUE(sys_.catalog().GetFragment("F_carts").ok());
  auto truth = sys_.EvaluateOverStaging(
      workload::MarketplaceQueries::CartByUser(), {{"$uid", Value::Int(5)}});
  ASSERT_TRUE(truth.ok());
  auto served = server_->Query(workload::MarketplaceQueries::CartByUser(),
                               {{"$uid", Value::Int(5)}});
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->rows.size(), truth->size());

  // Blacklisted: the same shape can never relaunch.
  DriveCartLookups(8);
  ASSERT_TRUE(pilot.TickOnce().ok());
  m = pilot.metrics();
  EXPECT_EQ(m.launches, 1u);
  EXPECT_GE(m.skipped_blacklist, 1u);
}

TEST_F(TunerTest, InsufficientEvidenceIsAQuietNoOp) {
  Init();
  Autopilot pilot(server_.get(), manager_.get(), Options());
  ASSERT_TRUE(pilot.TickOnce().ok());
  auto m = pilot.metrics();
  EXPECT_EQ(m.ticks, 1u);
  EXPECT_EQ(m.evaluations, 0u);
  EXPECT_EQ(m.launches, 0u);
  EXPECT_TRUE(pilot.decision_log().empty());
}

TEST_F(TunerTest, DaemonStartStopIsSafeAndTicks) {
  Init();
  AutopilotOptions opt = Options();
  opt.tick_period_micros = 2000;
  Autopilot pilot(server_.get(), manager_.get(), opt);
  pilot.Start();
  pilot.Start();  // Idempotent.
  EXPECT_TRUE(pilot.running());
  DriveCartLookups(12);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pilot.metrics().completions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pilot.Stop();
  EXPECT_FALSE(pilot.running());
  auto m = pilot.metrics();
  EXPECT_GE(m.ticks, 1u);
  // The daemon found and executed the same convergence the manual-tick
  // test drives explicitly.
  EXPECT_EQ(m.launches, 1u) << m.ToString();
  EXPECT_EQ(m.completions, 1u) << m.ToString();
  pilot.Stop();  // Idempotent.
}

}  // namespace
}  // namespace estocada::tuner
