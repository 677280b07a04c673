/// End-to-end tests of the Estocada facade: the full §II marketplace
/// scenario — heterogeneous stores, LAV fragments, PACB rewriting,
/// delegation, BindJoin, cost-based choice, advisor.

#include "estocada/estocada.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"
#include "pivot/parser.h"
#include "testing/differential.h"
#include "workload/bigdata.h"
#include "workload/marketplace.h"

namespace estocada {
namespace {

using engine::Row;
using engine::Value;
using pivot::Adornment;

/// Sorted string form of a result set, for order-insensitive comparison.
std::multiset<std::string> Canon(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& r : rows) out.insert(engine::RowToString(r));
  return out;
}

/// Shared scenario fixture: small marketplace + all five stores.
class MarketplaceSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::MarketplaceConfig cfg;
    cfg.seed = 11;
    cfg.num_users = 120;
    cfg.num_products = 40;
    cfg.num_orders = 400;
    cfg.num_visits = 900;
    auto data = workload::GenerateMarketplace(cfg);
    ASSERT_TRUE(data.ok()) << data.status();
    data_ = std::move(*data);

    ASSERT_TRUE(sys_.RegisterSchema(data_.schema).ok());
    ASSERT_TRUE(sys_.RegisterStore({"postgres1",
                                    catalog::StoreKind::kRelational,
                                    &relational_, nullptr, nullptr, nullptr,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"redis1", catalog::StoreKind::kKeyValue,
                                    nullptr, &kv_, nullptr, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"mongo1", catalog::StoreKind::kDocument,
                                    nullptr, nullptr, &doc_, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"spark1", catalog::StoreKind::kParallel,
                                    nullptr, nullptr, nullptr, &parallel_,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"solr1", catalog::StoreKind::kText,
                                    nullptr, nullptr, nullptr, nullptr,
                                    &text_})
                    .ok());
    ASSERT_TRUE(sys_.LoadStaging(data_.staging).ok());
  }

  workload::MarketplaceData data_;
  stores::RelationalStore relational_;
  stores::KeyValueStore kv_;
  stores::DocumentStore doc_;
  stores::ParallelStore parallel_{2};
  stores::TextStore text_;
  Estocada sys_;
};

TEST_F(MarketplaceSystemTest, FragmentMaterializationPopulatesStores) {
  ASSERT_TRUE(sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                  "postgres1")
                  .ok());
  ASSERT_TRUE(sys_.DefineFragment("F_cart(u, c) :- mk.carts(u, c)", "redis1",
                                  {Adornment::kInput, Adornment::kFree})
                  .ok());
  EXPECT_EQ(*relational_.RowCount("F_users"), 120u);
  EXPECT_EQ(*kv_.Size("F_cart"), 120u);
  auto frag = sys_.catalog().GetFragment("F_users");
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ((*frag)->stats.row_count, 120u);
  EXPECT_EQ((*frag)->stats.distinct[0], 120u);
}

TEST_F(MarketplaceSystemTest, RelationalFragmentAnswersQuery) {
  ASSERT_TRUE(sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                  "postgres1")
                  .ok());
  auto result = sys_.Query("ucity(city) :- mk.users($uid, n, city)",
                           {{"$uid", Value::Int(7)}});
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = sys_.EvaluateOverStaging(
      "ucity(city) :- mk.users($uid, n, city)", {{"$uid", Value::Int(7)}});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Canon(result->rows), Canon(*expected));
  EXPECT_EQ(result->rows.size(), 1u);
  // Work was delegated to the relational store.
  EXPECT_TRUE(result->runtime_stats.per_store.count("postgres1"));
}

TEST_F(MarketplaceSystemTest, KvFragmentAnswersKeyLookup) {
  ASSERT_TRUE(sys_.DefineFragment("F_cart(u, c) :- mk.carts(u, c)", "redis1",
                                  {Adornment::kInput, Adornment::kFree})
                  .ok());
  auto result = sys_.Query("cart(c) :- mk.carts($uid, c)",
                           {{"$uid", Value::Int(3)}});
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = sys_.EvaluateOverStaging("cart(c) :- mk.carts($uid, c)",
                                           {{"$uid", Value::Int(3)}});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Canon(result->rows), Canon(*expected));
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_TRUE(result->rows[0][0].is_list());  // The nested cart value.
  EXPECT_TRUE(result->runtime_stats.per_store.count("redis1"));
  // A key lookup does exactly one KV operation.
  EXPECT_EQ(result->runtime_stats.per_store.at("redis1").operations, 1u);
}

TEST_F(MarketplaceSystemTest, ScanQueryOverKvFragmentIsInfeasible) {
  ASSERT_TRUE(sys_.DefineFragment("F_cart(u, c) :- mk.carts(u, c)", "redis1",
                                  {Adornment::kInput, Adornment::kFree})
                  .ok());
  // Full enumeration needs the key position free: infeasible here.
  auto result = sys_.Query("allcarts(u, c) :- mk.carts(u, c)");
  EXPECT_EQ(result.status().code(), StatusCode::kNoRewriting);
}

TEST_F(MarketplaceSystemTest, DocumentFragmentWithFilterDelegation) {
  ASSERT_TRUE(sys_.DefineFragment(
                     "F_prod(p, n, cat, pr) :- mk.products(p, n, cat, pr)",
                     "mongo1")
                  .ok());
  auto result = sys_.Query(
      "pcat(p, n, pr) :- mk.products(p, n, $cat, pr)",
      {{"$cat", Value::Str("cat3")}});
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = sys_.EvaluateOverStaging(
      "pcat(p, n, pr) :- mk.products(p, n, $cat, pr)",
      {{"$cat", Value::Str("cat3")}});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Canon(result->rows), Canon(*expected));
  EXPECT_FALSE(result->rows.empty());
  EXPECT_TRUE(result->runtime_stats.per_store.count("mongo1"));
}

TEST_F(MarketplaceSystemTest, CrossStoreJoinWithBindJoin) {
  // users in postgres, carts in redis: the join binds the KV key from the
  // relational side (the paper's BindJoin for access-restricted sources).
  ASSERT_TRUE(sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                  "postgres1")
                  .ok());
  ASSERT_TRUE(sys_.DefineFragment("F_cart(u, c) :- mk.carts(u, c)", "redis1",
                                  {Adornment::kInput, Adornment::kFree})
                  .ok());
  const char* q = "namecart(n, c) :- mk.users(u, n, 'city3'), mk.carts(u, c)";
  auto result = sys_.Query(q);
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = sys_.EvaluateOverStaging(q);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Canon(result->rows), Canon(*expected));
  EXPECT_FALSE(result->rows.empty());
  EXPECT_NE(result->plan_text.find("BindJoin"), std::string::npos)
      << result->plan_text;
}

TEST_F(MarketplaceSystemTest, LargestSubqueryDelegatedToOneRelationalStore) {
  ASSERT_TRUE(sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                  "postgres1")
                  .ok());
  ASSERT_TRUE(sys_.DefineFragment(
                     "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)",
                     "postgres1")
                  .ok());
  const char* q =
      "ord(n, p) :- mk.users(u, n, c), mk.orders(o, u, p, t)";
  auto explained = sys_.Explain(q);
  ASSERT_TRUE(explained.ok()) << explained.status();
  const auto& plan = explained->best_plan();
  // Both atoms land in ONE delegated SQL query (wrapper-mediator style).
  ASSERT_EQ(plan.delegated.size(), 1u);
  EXPECT_NE(plan.delegated[0].find("SELECT"), std::string::npos);
  EXPECT_NE(plan.delegated[0].find("F_users"), std::string::npos);
  EXPECT_NE(plan.delegated[0].find("F_orders"), std::string::npos);
  // And it computes the right answer.
  auto result = sys_.Query(q);
  ASSERT_TRUE(result.ok());
  auto expected = sys_.EvaluateOverStaging(q);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Canon(result->rows), Canon(*expected));
}

TEST_F(MarketplaceSystemTest, MaterializedJoinFragmentInParallelStore) {
  // §II: materialize purchases ⋈ browsing history ⋈ catalog, keyed by
  // (uid, category), in the Spark stand-in.
  ASSERT_TRUE(
      sys_.DefineFragment(
              "F_pjoin(u, cat, p, n) :- mk.orders(o, u, p, t), "
              "mk.visits(u, p, d), mk.products(p, n, cat, pr)",
              "spark1",
              {Adornment::kInput, Adornment::kInput, Adornment::kFree,
               Adornment::kFree})
          .ok());
  auto result = sys_.Query(workload::MarketplaceQueries::PersonalizedSearch(),
                           {{"$uid", Value::Int(1)},
                            {"$cat", Value::Str("cat0")}});
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = sys_.EvaluateOverStaging(
      workload::MarketplaceQueries::PersonalizedSearch(),
      {{"$uid", Value::Int(1)}, {"$cat", Value::Str("cat0")}});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Canon(result->rows), Canon(*expected));
  // Served by a single index lookup in the parallel store.
  EXPECT_TRUE(result->runtime_stats.per_store.count("spark1"));
  EXPECT_NE(result->plan_text.find("INDEX-LOOKUP"), std::string::npos)
      << result->plan_text;
}

TEST_F(MarketplaceSystemTest, CostBasedChoicePrefersMaterializedJoin) {
  // Base fragments AND the materialized join: the planner must pick the
  // cheap single-lookup plan.
  ASSERT_TRUE(sys_.DefineFragment(
                     "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)",
                     "postgres1")
                  .ok());
  ASSERT_TRUE(sys_.DefineFragment(
                     "F_visits(u, p, d) :- mk.visits(u, p, d)", "postgres1")
                  .ok());
  ASSERT_TRUE(sys_.DefineFragment(
                     "F_prod(p, n, cat, pr) :- mk.products(p, n, cat, pr)",
                     "postgres1")
                  .ok());
  ASSERT_TRUE(
      sys_.DefineFragment(
              "F_pjoin(u, cat, p, n) :- mk.orders(o, u, p, t), "
              "mk.visits(u, p, d), mk.products(p, n, cat, pr)",
              "spark1",
              {Adornment::kInput, Adornment::kInput, Adornment::kFree,
               Adornment::kFree})
          .ok());
  auto explained =
      sys_.Explain(workload::MarketplaceQueries::PersonalizedSearch(),
                   {{"$uid", Value::Int(1)}, {"$cat", Value::Str("cat0")}});
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_GE(explained->plans.size(), 2u);
  EXPECT_EQ(explained->best_plan().rewriting.body.size(), 1u);
  EXPECT_EQ(explained->best_plan().rewriting.body[0].relation, "F_pjoin");
  // The chosen plan is the cheapest of all.
  for (const auto& p : explained->plans) {
    EXPECT_GE(p.estimated_cost, explained->best_plan().estimated_cost);
  }
}

TEST_F(MarketplaceSystemTest, TextFragmentAnswersTermSearch) {
  ASSERT_TRUE(sys_.DefineFragment(
                     "F_terms(p, w) :- mk.prodterms(p, w)", "solr1",
                     {Adornment::kFree, Adornment::kInput})
                  .ok());
  const char* q = "find(p) :- mk.prodterms(p, 'lamp')";
  auto result = sys_.Query(q);
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = sys_.EvaluateOverStaging(q);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Canon(result->rows), Canon(*expected));
  EXPECT_TRUE(result->runtime_stats.per_store.count("solr1"));
}

TEST_F(MarketplaceSystemTest, TextPlusRelationalCrossModelQuery) {
  ASSERT_TRUE(sys_.DefineFragment(
                     "F_terms(p, w) :- mk.prodterms(p, w)", "solr1",
                     {Adornment::kFree, Adornment::kInput})
                  .ok());
  ASSERT_TRUE(sys_.DefineFragment(
                     "F_prod(p, n, cat, pr) :- mk.products(p, n, cat, pr)",
                     "postgres1")
                  .ok());
  const char* q =
      "search(p, n, pr) :- mk.prodterms(p, 'red'), "
      "mk.products(p, n, cat, pr)";
  auto result = sys_.Query(q);
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = sys_.EvaluateOverStaging(q);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Canon(result->rows), Canon(*expected));
  EXPECT_FALSE(result->rows.empty());
  // Both stores participated.
  EXPECT_TRUE(result->runtime_stats.per_store.count("solr1"));
  EXPECT_TRUE(result->runtime_stats.per_store.count("postgres1"));
}

TEST_F(MarketplaceSystemTest, KvFragmentWithNonUniqueKeyKeepsAllRows) {
  // A KV fragment keyed by a non-unique position (product category) must
  // retain every row sharing the key (regression: last-writer-wins loss).
  ASSERT_TRUE(sys_.DefineFragment(
                     "F_bycat(cat, p, n) :- mk.products(p, n, cat, pr)",
                     "redis1",
                     {Adornment::kInput, Adornment::kFree, Adornment::kFree})
                  .ok());
  const char* q = "pc(p, n) :- mk.products(p, n, $cat, pr)";
  auto result = sys_.Query(q, {{"$cat", Value::Str("cat1")}});
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected =
      sys_.EvaluateOverStaging(q, {{"$cat", Value::Str("cat1")}});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Canon(result->rows), Canon(*expected));
  EXPECT_GT(result->rows.size(), 1u);  // Several products share cat1.
}

TEST_F(MarketplaceSystemTest, NoFragmentNoRewriting) {
  auto result = sys_.Query("cart(c) :- mk.carts($uid, c)",
                           {{"$uid", Value::Int(1)}});
  EXPECT_EQ(result.status().code(), StatusCode::kNoRewriting);
}

TEST_F(MarketplaceSystemTest, DropFragmentRemovesAccessPath) {
  ASSERT_TRUE(sys_.DefineFragment("F_cart(u, c) :- mk.carts(u, c)", "redis1",
                                  {Adornment::kInput, Adornment::kFree})
                  .ok());
  ASSERT_TRUE(sys_.Query("cart(c) :- mk.carts($uid, c)",
                         {{"$uid", Value::Int(1)}})
                  .ok());
  ASSERT_TRUE(sys_.DropFragment("F_cart").ok());
  EXPECT_FALSE(kv_.HasCollection("F_cart"));
  EXPECT_EQ(sys_.Query("cart(c) :- mk.carts($uid, c)",
                       {{"$uid", Value::Int(1)}})
                .status()
                .code(),
            StatusCode::kNoRewriting);
}

TEST_F(MarketplaceSystemTest, MigrationChangesNoApplicationCode) {
  // The §II pitch: the same application query first served from the
  // document store, then — after migrating the fragment to the KV store —
  // identical answers with zero query changes.
  ASSERT_TRUE(sys_.DefineFragment("F_cart(u, c) :- mk.carts(u, c)", "mongo1")
                  .ok());
  const char* q = "cart(c) :- mk.carts($uid, c)";
  auto before = sys_.Query(q, {{"$uid", Value::Int(5)}});
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(sys_.DropFragment("F_cart").ok());
  ASSERT_TRUE(sys_.DefineFragment("F_cart(u, c) :- mk.carts(u, c)", "redis1",
                                  {Adornment::kInput, Adornment::kFree})
                  .ok());
  auto after = sys_.Query(q, {{"$uid", Value::Int(5)}});
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(Canon(before->rows), Canon(after->rows));
  // And the key-value serving is cheaper (the 20%-gain mechanism).
  EXPECT_LT(after->simulated_cost(), before->simulated_cost());
}

TEST_F(MarketplaceSystemTest, AdvisorRecommendsKvForHotLookups) {
  ASSERT_TRUE(sys_.DefineFragment("F_cart_doc(u, c) :- mk.carts(u, c)",
                                  "mongo1")
                  .ok());
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    auto r = sys_.Query("cart(c) :- mk.carts($uid, c)",
                        {{"$uid", Value::Int(static_cast<int64_t>(
                              rng.Uniform(50)))}});
    ASSERT_TRUE(r.ok()) << r.status();
  }
  advisor::AdvisorOptions opts;
  opts.min_count = 10;
  opts.min_mean_cost = 1.0;
  auto recs = sys_.Advise(opts);
  ASSERT_FALSE(recs.empty());
  bool found_kv_add = false;
  for (const auto& rec : recs) {
    if (rec.action == advisor::Recommendation::Action::kAddFragment &&
        rec.store_name == "redis1") {
      found_kv_add = true;
      // Apply it and check the workload gets cheaper.
      ASSERT_TRUE(sys_.ApplyRecommendation(rec).ok());
      auto before = sys_.Query("cart(c) :- mk.carts($uid, c)",
                               {{"$uid", Value::Int(3)}});
      ASSERT_TRUE(before.ok());
      EXPECT_NE(before->rewriting_text.find(rec.view.name()),
                std::string::npos)
          << before->rewriting_text;
      break;
    }
  }
  EXPECT_TRUE(found_kv_add);
}

TEST_F(MarketplaceSystemTest, AdvisorFlagsUnusedFragment) {
  ASSERT_TRUE(sys_.DefineFragment("F_cart(u, c) :- mk.carts(u, c)", "redis1",
                                  {Adornment::kInput, Adornment::kFree})
                  .ok());
  // Two fragments cover mk.users; the unused one is redundant.
  ASSERT_TRUE(sys_.DefineFragment("F_users2(u, n, c) :- mk.users(u, n, c)",
                                  "mongo1")
                  .ok());
  ASSERT_TRUE(sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                  "postgres1")
                  .ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(sys_.Query("cart(c) :- mk.carts($uid, c)",
                           {{"$uid", Value::Int(i)}})
                    .ok());
  }
  advisor::AdvisorOptions opts;
  opts.min_count = 100;  // Suppress add-recommendations.
  auto recs = sys_.Advise(opts);
  bool drop_users = false;
  for (const auto& rec : recs) {
    if (rec.action == advisor::Recommendation::Action::kDropFragment &&
        (rec.fragment_name == "F_users" ||
         rec.fragment_name == "F_users2")) {
      drop_users = true;
    }
    // The cart fragment is in active use AND non-redundant: never dropped.
    EXPECT_FALSE(rec.action ==
                     advisor::Recommendation::Action::kDropFragment &&
                 rec.fragment_name == "F_cart");
  }
  EXPECT_TRUE(drop_users);
}

TEST_F(MarketplaceSystemTest, QueryProgramUnionAndAggregate) {
  ASSERT_TRUE(sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                  "postgres1")
                  .ok());
  ASSERT_TRUE(sys_.DefineFragment(
                     "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)",
                     "postgres1")
                  .ok());
  // GAV-style program: union of two single-city user listings, grouped.
  Estocada::ProgramOps ops;
  ops.group_by = {1};  // city column
  ops.aggregates = {{engine::AggFn::kCount, 0, "n"}};
  ops.order_by = {0};
  auto r = sys_.QueryProgram(
      {"q(u, c) :- mk.users(u, n, c), mk.users(u, n, 'city0')",
       "q(u, c) :- mk.users(u, n, c), mk.users(u, n, 'city1')"},
      {}, ops);
  ASSERT_TRUE(r.ok()) << r.status();
  // One group per city, counts match direct evaluation.
  ASSERT_EQ(r->rows.size(), 2u);
  auto city0 = sys_.EvaluateOverStaging(
      "q(u) :- mk.users(u, n, 'city0')");
  ASSERT_TRUE(city0.ok());
  EXPECT_EQ(r->rows[0][1].int_value(),
            static_cast<int64_t>(city0->size()));
  EXPECT_NE(r->rewriting_text.find("UNION"), std::string::npos);
}

TEST_F(MarketplaceSystemTest, QueryProgramLimitAndValidation) {
  ASSERT_TRUE(sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                  "postgres1")
                  .ok());
  Estocada::ProgramOps ops;
  ops.order_by = {0};
  ops.limit = 5;
  auto r = sys_.QueryProgram({"q(u) :- mk.users(u, n, c)"}, {}, ops);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 5u);
  EXPECT_EQ(r->rows[0][0], Value::Int(0));
  // Arity mismatch across branches.
  EXPECT_EQ(sys_.QueryProgram({"q(u) :- mk.users(u, n, c)",
                               "q(u, n) :- mk.users(u, n, c)"})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sys_.QueryProgram({}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MarketplaceSystemTest, QueryProgramLogsMeasuredCostAfterRunning) {
  ASSERT_TRUE(sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                  "postgres1")
                  .ok());
  // A program that fails in its second branch logs nothing, not even the
  // branch that planned.
  ASSERT_FALSE(sys_.QueryProgram({"q(u) :- mk.users(u, n, c)",
                                  "q(u, n) :- mk.users(u, n, c)"})
                   .ok());
  EXPECT_TRUE(sys_.workload_log().entries().empty());
  // A one-branch program is logged with what its stores measured.
  auto r = sys_.QueryProgram({"q(u) :- mk.users(u, n, c)"});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(sys_.workload_log().entries().size(), 1u);
  const advisor::WorkloadEntry& entry =
      sys_.workload_log().entries().begin()->second;
  EXPECT_EQ(entry.count, 1u);
  EXPECT_GT(entry.total_cost, 0.0);
  EXPECT_EQ(entry.total_cost, r->runtime_stats.TotalSimulatedCost());
}

/// The benchmark's hybrid marketplace layout: orders and users in
/// postgres, carts and profiles in redis, products in mongodb, visits in
/// spark, product terms in solr, and optionally the §II materialized join
/// F_pjoin in spark. The data is large enough for a Zipf head: user 0
/// holds many orders and visits, user 300 a few.
class HybridLayoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::MarketplaceConfig cfg;
    cfg.num_users = 500;
    cfg.num_products = 120;
    cfg.num_orders = 2000;
    cfg.num_visits = 5000;
    auto data = workload::GenerateMarketplace(cfg);
    ASSERT_TRUE(data.ok()) << data.status();
    ASSERT_TRUE(sys_.RegisterSchema(data->schema).ok());
    using catalog::StoreKind;
    ASSERT_TRUE(sys_.RegisterStore({"postgres", StoreKind::kRelational, &pg_,
                                    nullptr, nullptr, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"redis", StoreKind::kKeyValue, nullptr,
                                    &kv_, nullptr, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"mongodb", StoreKind::kDocument, nullptr,
                                    nullptr, &doc_, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"spark", StoreKind::kParallel, nullptr,
                                    nullptr, nullptr, &spark_, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"solr", StoreKind::kText, nullptr,
                                    nullptr, nullptr, nullptr, &text_})
                    .ok());
    ASSERT_TRUE(sys_.LoadStaging(data->staging).ok());
  }

  void DefineLayout(bool pjoin) {
    const Adornment in = Adornment::kInput;
    const Adornment free = Adornment::kFree;
    struct Spec {
      const char* view;
      const char* store;
      std::vector<Adornment> adornments;
      std::vector<size_t> indexes;
    };
    std::vector<Spec> specs = {
        {"F_users(u, n, c) :- mk.users(u, n, c)", "postgres", {}, {0}},
        {"F_orders(o, u, p, t) :- mk.orders(o, u, p, t)", "postgres", {},
         {1, 2}},
        {"F_prod(p, n, cat, pr) :- mk.products(p, n, cat, pr)", "mongodb",
         {}, {0, 2}},
        {"F_carts(u, c) :- mk.carts(u, c)", "redis", {in, free}, {}},
        {"F_profile(u, n, c) :- mk.users(u, n, c)", "redis",
         {in, free, free}, {}},
        {"F_visits(u, p, d) :- mk.visits(u, p, d)", "spark", {}, {}},
        {"F_terms(p, w) :- mk.prodterms(p, w)", "solr", {free, in}, {}},
    };
    if (pjoin) {
      specs.push_back({"F_pjoin(u, cat, p, n) :- mk.orders(o, u, p, t), "
                       "mk.visits(u, p, d), mk.products(p, n, cat, pr)",
                       "spark", {in, in, free, free}, {}});
    }
    for (const Spec& s : specs) {
      ASSERT_TRUE(
          sys_.DefineFragment(s.view, s.store, s.adornments, s.indexes).ok())
          << s.view;
    }
  }

  stores::RelationalStore pg_;
  stores::KeyValueStore kv_;
  stores::DocumentStore doc_;
  stores::ParallelStore spark_{2};
  stores::TextStore text_;
  Estocada sys_;
};

TEST_F(HybridLayoutTest, PersonalizedSearchDedupsBelowItsJoins) {
  DefineLayout(/*pjoin=*/false);
  for (int64_t uid : {0, 300}) {
    const std::map<std::string, Value> params = {
        {"$uid", Value::Int(uid)}, {"$cat", Value::Str("cat3")}};
    auto result =
        sys_.Query(workload::MarketplaceQueries::PersonalizedSearch(), params);
    ASSERT_TRUE(result.ok()) << result.status();
    auto expected = sys_.EvaluateOverStaging(
        workload::MarketplaceQueries::PersonalizedSearch(), params);
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(Canon(result->rows), Canon(*expected)) << "user " << uid;
    // Each join side is projected onto its live columns and deduplicated:
    // orders and visits keep only p, so the engine joins distinct
    // products, not every (order, visit) pair of the user.
    const std::string& plan = result->plan_text;
    const size_t join = plan.find("HashJoin");
    ASSERT_NE(join, std::string::npos) << plan;
    EXPECT_NE(plan.find("Distinct", join), std::string::npos) << plan;
    EXPECT_NE(plan.find("Project [p]", join), std::string::npos) << plan;
    // The visits scan reads only the partition holding the user.
    EXPECT_NE(plan.find("spark: PARTITION-SCAN F_visits"), std::string::npos)
        << plan;
    const auto spark = result->runtime_stats.per_store.find("spark");
    ASSERT_NE(spark, result->runtime_stats.per_store.end());
    EXPECT_LT(spark->second.rows_scanned, 5000u);
  }
  // The user-0 answer is not empty, so the comparison above has teeth.
  auto head = sys_.EvaluateOverStaging(
      workload::MarketplaceQueries::PersonalizedSearch(),
      {{"$uid", Value::Int(0)}, {"$cat", Value::Str("cat3")}});
  ASSERT_TRUE(head.ok());
  EXPECT_FALSE(head->empty());
}

/// Plan regret: every plan of each marketplace query is executed, and the
/// cost-based choice's measured store cost may exceed the cheapest plan's
/// by at most kRegret.
TEST_F(HybridLayoutTest, ChosenPlanCostsNearTheCheapestMeasured) {
  constexpr double kRegret = 1.5;
  DefineLayout(/*pjoin=*/true);
  using Q = workload::MarketplaceQueries;
  const char* queries[] = {Q::CartByUser(), Q::UserCity(), Q::OrdersOfUser(),
                           Q::PersonalizedSearch(), Q::ProductsInCategory()};
  size_t multi_plan_queries = 0;
  for (const char* text : queries) {
    auto cq = pivot::ParseQuery(text);
    ASSERT_TRUE(cq.ok()) << cq.status();
    for (int64_t uid : {0, 1, 300}) {
      for (const char* cat : {"cat0", "cat5"}) {
        const std::map<std::string, Value> params = {
            {"$uid", Value::Int(uid)}, {"$cat", Value::Str(cat)}};
        auto explained = sys_.Explain(text, params);
        ASSERT_TRUE(explained.ok()) << text << ": " << explained.status();
        const size_t count = explained->plans.size();
        const size_t best = explained->best;
        multi_plan_queries += count > 1;
        auto expected = sys_.EvaluateOverStaging(text, params);
        ASSERT_TRUE(expected.ok()) << expected.status();
        std::vector<double> measured;
        for (size_t i = 0; i < count; ++i) {
          auto run = testing::ExecutePlanAt(sys_, *explained, i, *cq);
          ASSERT_TRUE(run.ok()) << text << " plan " << i << ": "
                                << run.status();
          EXPECT_EQ(Canon(run->rows), Canon(*expected))
              << text << " plan " << i;
          measured.push_back(run->simulated_cost());
        }
        const double cheapest =
            *std::min_element(measured.begin(), measured.end());
        EXPECT_LE(measured[best], kRegret * cheapest)
            << text << " uid " << uid << " " << cat << ": chosen plan "
            << best << " of " << count << " measured " << measured[best];
      }
    }
  }
  // The layout offers alternatives (F_profile beside F_users, F_pjoin
  // beside the base join), so the check compares real choices.
  EXPECT_GT(multi_plan_queries, 0u);
}

TEST(BigDataBenchTest, GeneratesAndAnswersJoin) {
  workload::BigDataBenchConfig cfg;
  cfg.num_pages = 200;
  cfg.num_visits = 1500;
  auto data = workload::GenerateBigDataBench(cfg);
  ASSERT_TRUE(data.ok()) << data.status();

  stores::RelationalStore pg;
  stores::ParallelStore spark(2);
  Estocada sys;
  ASSERT_TRUE(sys.RegisterSchema(data->schema).ok());
  ASSERT_TRUE(sys.RegisterStore({"pg", catalog::StoreKind::kRelational, &pg,
                                 nullptr, nullptr, nullptr, nullptr})
                  .ok());
  ASSERT_TRUE(sys.RegisterStore({"spark", catalog::StoreKind::kParallel,
                                 nullptr, nullptr, nullptr, &spark, nullptr})
                  .ok());
  ASSERT_TRUE(sys.LoadStaging(data->staging).ok());
  ASSERT_TRUE(
      sys.DefineFragment("F_rank(u, r, d) :- bdb.rankings(u, r, d)", "pg")
          .ok());
  ASSERT_TRUE(sys.DefineFragment(
                     "F_uv(ip, u, rev, cc) :- bdb.uservisits(ip, u, rev, cc)",
                     "spark")
                  .ok());
  auto result =
      sys.Query(workload::BigDataBenchQueries::VisitsToRankedPages(),
                {{"$rank", Value::Int(0)}});
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = sys.EvaluateOverStaging(
      workload::BigDataBenchQueries::VisitsToRankedPages(),
      {{"$rank", Value::Int(0)}});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Canon(result->rows), Canon(*expected));
  EXPECT_FALSE(result->rows.empty());
}

/// Property sweep: for a matrix of (query, placement) combinations, the
/// hybrid execution agrees with direct staging evaluation.
struct PlacementCase {
  const char* fragment_store;  // for the carts fragment
  bool adorned;
};
class PlacementProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlacementProperty, HybridMatchesGroundTruth) {
  auto [store_pick, uid] = GetParam();
  workload::MarketplaceConfig cfg;
  cfg.seed = 21;
  cfg.num_users = 60;
  cfg.num_products = 20;
  cfg.num_orders = 150;
  cfg.num_visits = 300;
  auto data = workload::GenerateMarketplace(cfg);
  ASSERT_TRUE(data.ok());

  stores::RelationalStore pg;
  stores::KeyValueStore redis;
  stores::DocumentStore mongo;
  stores::ParallelStore spark(2);
  Estocada sys;
  ASSERT_TRUE(sys.RegisterSchema(data->schema).ok());
  ASSERT_TRUE(sys.RegisterStore({"pg", catalog::StoreKind::kRelational, &pg,
                                 nullptr, nullptr, nullptr, nullptr})
                  .ok());
  ASSERT_TRUE(sys.RegisterStore({"redis", catalog::StoreKind::kKeyValue,
                                 nullptr, &redis, nullptr, nullptr, nullptr})
                  .ok());
  ASSERT_TRUE(sys.RegisterStore({"mongo", catalog::StoreKind::kDocument,
                                 nullptr, nullptr, &mongo, nullptr, nullptr})
                  .ok());
  ASSERT_TRUE(sys.RegisterStore({"spark", catalog::StoreKind::kParallel,
                                 nullptr, nullptr, nullptr, &spark, nullptr})
                  .ok());
  ASSERT_TRUE(sys.LoadStaging(data->staging).ok());

  const char* stores_by_pick[] = {"pg", "redis", "mongo", "spark"};
  const char* store = stores_by_pick[store_pick];
  std::vector<Adornment> adorn;
  if (store_pick == 1) {
    adorn = {Adornment::kInput, Adornment::kFree};  // KV needs a key.
  }
  ASSERT_TRUE(sys.DefineFragment("F_cart(u, c) :- mk.carts(u, c)", store,
                                 adorn)
                  .ok());
  ASSERT_TRUE(sys.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                 "pg")
                  .ok());

  const char* queries[] = {
      "cart(c) :- mk.carts($uid, c)",
      "namecart(n, c) :- mk.users(u, n, city), mk.carts(u, c), "
      "mk.users(u, n, city)",
      "both(u, n, c) :- mk.users(u, n, city), mk.carts(u, c)",
  };
  for (const char* q : queries) {
    std::map<std::string, Value> params{
        {"$uid", Value::Int(static_cast<int64_t>(uid))}};
    auto hybrid = sys.Query(q, params);
    // The scan-shaped queries are infeasible over an adorned KV fragment
    // when no provider binds the key: accept kNoRewriting there.
    if (!hybrid.ok()) {
      ASSERT_EQ(hybrid.status().code(), StatusCode::kNoRewriting) << q;
      continue;
    }
    auto expected = sys.EvaluateOverStaging(q, params);
    ASSERT_TRUE(expected.ok()) << q;
    EXPECT_EQ(Canon(hybrid->rows), Canon(*expected)) << q << " @ " << store;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlacementProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1, 13, 37)));

}  // namespace
}  // namespace estocada
