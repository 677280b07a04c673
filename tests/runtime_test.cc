/// Tests of the concurrent serving runtime (src/runtime): canonicalization
/// equivalences, plan-cache LRU + epoch invalidation, metrics, and
/// QueryServer correctness under concurrent clients (run under TSan via
/// scripts/check.sh).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/strings.h"
#include "pivot/parser.h"
#include "runtime/canonical.h"
#include "runtime/metrics.h"
#include "runtime/plan_cache.h"
#include "runtime/query_server.h"
#include "workload/marketplace.h"

namespace estocada::runtime {
namespace {

using engine::Row;
using engine::Value;
using pivot::Adornment;

std::string KeyOf(const std::string& query_text) {
  auto q = pivot::ParseQuery(query_text);
  EXPECT_TRUE(q.ok()) << q.status();
  return Canonicalize(*q).key;
}

// ------------------------------------------------------ Canonicalization --

TEST(CanonicalTest, RenamedVariablesShareAKey) {
  EXPECT_EQ(KeyOf("q(x, y) :- R(x, z), S(z, y)"),
            KeyOf("out(a, b) :- R(a, c), S(c, b)"));
}

TEST(CanonicalTest, ReorderedAtomsShareAKey) {
  EXPECT_EQ(KeyOf("q(x, y) :- R(x, z), S(z, y)"),
            KeyOf("q(x, y) :- S(z, y), R(x, z)"));
}

TEST(CanonicalTest, RenamedAndReorderedShareAKey) {
  EXPECT_EQ(KeyOf("q(u) :- mk.orders(o, u, p, t), mk.visits(u, p, d)"),
            KeyOf("res(a) :- mk.visits(a, b, c), mk.orders(x, a, b, y)"));
}

TEST(CanonicalTest, ParameterNamesDoNotSplitEntries) {
  EXPECT_EQ(KeyOf("cart(c) :- mk.carts($uid, c)"),
            KeyOf("cart(x) :- mk.carts($user, x)"));
}

TEST(CanonicalTest, DifferentConstantsDiffer) {
  EXPECT_NE(KeyOf("q(x) :- R(x, 'a')"), KeyOf("q(x) :- R(x, 'b')"));
}

TEST(CanonicalTest, DifferentStructureDiffers) {
  EXPECT_NE(KeyOf("q(x) :- R(x, y)"), KeyOf("q(x) :- R(x, x)"));
  EXPECT_NE(KeyOf("q(x) :- R(x, y)"), KeyOf("q(x) :- R(y, x)"));
  EXPECT_NE(KeyOf("q(x, y) :- R(x, y)"), KeyOf("q(y, x) :- R(x, y)"));
}

TEST(CanonicalTest, HeadNameIsIrrelevant) {
  EXPECT_EQ(KeyOf("foo(x) :- R(x)"), KeyOf("bar(x) :- R(x)"));
}

TEST(CanonicalTest, RemapParametersFollowsRenaming) {
  auto q = pivot::ParseQuery("cart(c) :- mk.carts($uid, c)");
  ASSERT_TRUE(q.ok());
  CanonicalQuery canonical = Canonicalize(*q);
  ASSERT_EQ(canonical.parameter_renaming.count("$uid"), 1u);
  std::map<std::string, Value> params{{"$uid", Value::Int(7)}};
  auto remapped = RemapParameters(canonical, params);
  ASSERT_EQ(remapped.size(), 1u);
  EXPECT_EQ(remapped.begin()->first, canonical.parameter_renaming["$uid"]);
  EXPECT_EQ(remapped.begin()->second, Value::Int(7));
}

// ------------------------------------------------------ Constant lifting --

CanonicalQuery LiftedOf(const std::string& query_text,
                        const std::set<pivot::Constant>& named = {}) {
  auto q = pivot::ParseQuery(query_text);
  EXPECT_TRUE(q.ok()) << q.status();
  return CanonicalizeLifted(*q, named);
}

TEST(LiftTest, TextsDifferingOnlyInConstantsShareAKey) {
  CanonicalQuery a = LiftedOf("q(x) :- R(x, 'a'), S(x, 3)");
  CanonicalQuery b = LiftedOf("out(y) :- S(y, 9), R(y, 'zz')");
  EXPECT_EQ(a.key, b.key);
  ASSERT_EQ(a.lifted.size(), 2u);
  // The values travel in the parameter map, under the canonical names.
  std::map<std::string, Value> values = RemapParameters(a, {});
  EXPECT_EQ(values, a.lifted);
  std::set<std::string> rendered;
  for (const auto& [name, value] : values) rendered.insert(value.ToString());
  EXPECT_EQ(rendered, (std::set<std::string>{"a", "3"}));
}

TEST(LiftTest, EqualityPatternStaysInTheKey) {
  CanonicalQuery same = LiftedOf("q(x) :- R(x, 5, 5)");
  CanonicalQuery diff = LiftedOf("q(x) :- R(x, 5, 6)");
  EXPECT_EQ(same.lifted.size(), 1u);
  EXPECT_EQ(diff.lifted.size(), 2u);
  EXPECT_NE(same.key, diff.key);
  // Grouping follows the chase's constant equality: there Int 1 and Real
  // 1.0 are distinct constants (an EGD equating them fails the chase), so
  // they lift into distinct parameters.
  EXPECT_EQ(LiftedOf("q(x) :- R(x, 1, 1.0)").lifted.size(), 2u);
}

TEST(LiftTest, NamedHeadAndNullConstantsStayInline) {
  CanonicalQuery c = LiftedOf("q(x, 'h') :- R(x, 'cat3', null, 'cat5')",
                              {pivot::Constant::Str("cat3")});
  EXPECT_EQ(c.lifted.size(), 1u);
  EXPECT_NE(c.key.find("'cat3'"), std::string::npos);
  EXPECT_NE(c.key.find("'h'"), std::string::npos);
  EXPECT_NE(c.key.find("null"), std::string::npos);
  EXPECT_EQ(c.key.find("'cat5'"), std::string::npos);
}

TEST(LiftTest, CallerParametersNeverCollideWithLiftedOnes) {
  CanonicalQuery c = LiftedOf("q(x) :- R(x, $u, 7)");
  ASSERT_EQ(c.lifted.size(), 1u);
  const std::string lifted_name = c.lifted.begin()->first;
  // A stray caller entry spelled like the internal pre-canonical name of
  // a lifted constant passes through under its own name.
  auto remapped = RemapParameters(
      c, {{"$u", Value::Int(1)}, {"$#0", Value::Int(99)}});
  EXPECT_EQ(remapped.at(c.parameter_renaming.at("$u")), Value::Int(1));
  EXPECT_EQ(remapped.at(lifted_name), Value::Int(7));
  EXPECT_EQ(remapped.at("$#0"), Value::Int(99));
}

TEST(LiftTest, GuardRejectsASetThatLostALiftedParameter) {
  CanonicalQuery c = LiftedOf("q(x) :- R(x, 'a')");
  ASSERT_EQ(c.lifted.size(), 1u);
  const std::string p = c.lifted.begin()->first;
  auto rewriting = [](const std::string& text) {
    pacb::Rewriting rw;
    rw.query = *pivot::ParseQuery(text);
    return rw;
  };
  pacb::RewritingResult kept;
  kept.rewritings.push_back(rewriting(StrCat("q(x) :- V(x, ", p, ")")));
  EXPECT_TRUE(LiftSurvives(c, kept));
  pacb::RewritingResult lost = kept;
  lost.rewritings.push_back(rewriting("q(x) :- W(x)"));
  EXPECT_FALSE(LiftSurvives(c, lost));
  EXPECT_TRUE(LiftSurvives(LiftedOf("q(x) :- R(x, y)"), lost));
}

// ------------------------------------------------------------ Plan cache --

PlanCache::CachedRewritings SomeRewritings(const std::string& text) {
  auto result = std::make_shared<pacb::RewritingResult>();
  pacb::Rewriting rw;
  rw.query = *pivot::ParseQuery(text);
  result->rewritings.push_back(std::move(rw));
  return result;
}

TEST(PlanCacheTest, HitAfterInsert) {
  PlanCache cache;
  EXPECT_EQ(cache.Lookup("k1", 0), nullptr);
  cache.Insert("k1", 0, SomeRewritings("q(x) :- V(x)"));
  auto hit = cache.Lookup("k1", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rewritings.size(), 1u);
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, EpochMismatchInvalidates) {
  PlanCache cache;
  cache.Insert("k1", 3, SomeRewritings("q(x) :- V(x)"));
  EXPECT_EQ(cache.Lookup("k1", 4), nullptr);  // Newer epoch: stale entry.
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);       // ... and it was dropped.
  EXPECT_EQ(cache.Lookup("k1", 3), nullptr);  // Gone for the old epoch too.
}

TEST(PlanCacheTest, LruEvictsOldest) {
  PlanCache::Options options;
  options.shards = 1;
  options.capacity = 2;
  PlanCache cache(options);
  cache.Insert("a", 0, SomeRewritings("q(x) :- V(x)"));
  cache.Insert("b", 0, SomeRewritings("q(x) :- V(x)"));
  ASSERT_NE(cache.Lookup("a", 0), nullptr);  // Touch: "b" is now LRU.
  cache.Insert("c", 0, SomeRewritings("q(x) :- V(x)"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup("a", 0), nullptr);
  EXPECT_EQ(cache.Lookup("b", 0), nullptr);
  EXPECT_NE(cache.Lookup("c", 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// --------------------------------------------------- Histogram & metrics --

TEST(HistogramTest, QuantilesAreOrderedAndBracket) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  double p50 = s.Quantile(0.50);
  double p95 = s.Quantile(0.95);
  double p99 = s.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Bucketed estimates: generous brackets.
  EXPECT_GT(p50, 300.0);
  EXPECT_LT(p50, 800.0);
  EXPECT_GT(p99, 700.0);
  EXPECT_NEAR(s.mean_micros, 500.5, 5.0);
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.Record(10.0 + i % 7);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 8000u);
}

TEST(MetricsTest, SnapshotAndReport) {
  ServerMetrics metrics;
  metrics.RecordCacheMiss();
  metrics.RecordRewrite();
  metrics.RecordQuery(true, 120.0);
  metrics.RecordCacheHit();
  metrics.RecordQuery(true, 40.0);
  metrics.RecordQuery(false, 5.0);
  MetricsSnapshot s = metrics.snapshot();
  EXPECT_EQ(s.queries_served, 2u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.rewrites, 1u);
  EXPECT_DOUBLE_EQ(s.CacheHitRate(), 0.5);
  std::string report = s.ToString();
  EXPECT_NE(report.find("queries served:  2"), std::string::npos);
  EXPECT_NE(report.find("50.0% hit rate"), std::string::npos);
}

// ------------------------------------------------------------ QueryServer --

/// Small marketplace with the five stores and a hybrid fragment layout,
/// fronted by a QueryServer.
class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::MarketplaceConfig cfg;
    cfg.seed = 7;
    cfg.num_users = 80;
    cfg.num_products = 30;
    cfg.num_orders = 250;
    cfg.num_visits = 600;
    auto data = workload::GenerateMarketplace(cfg);
    ASSERT_TRUE(data.ok()) << data.status();
    data_ = std::move(*data);

    ASSERT_TRUE(sys_.RegisterSchema(data_.schema).ok());
    ASSERT_TRUE(sys_.RegisterStore({"postgres", catalog::StoreKind::kRelational,
                                    &relational_, nullptr, nullptr, nullptr,
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
    ASSERT_TRUE(sys_.DefineFragment(
                        "F_prod(p, n, cat, pr) :- mk.products(p, n, cat, pr)",
                        "postgres", {}, {0, 2})
                    .ok());
    ASSERT_TRUE(sys_.DefineFragment("F_carts(u, c) :- mk.carts(u, c)", "redis",
                                    {Adornment::kInput, Adornment::kFree})
                    .ok());
    ASSERT_TRUE(sys_.DefineFragment("F_visits(u, p, d) :- mk.visits(u, p, d)",
                                    "spark", {}, {0, 1})
                    .ok());
  }

  /// Set-canon of rows for order/duplicate-insensitive comparison.
  static std::set<std::string> Canon(const std::vector<Row>& rows) {
    std::set<std::string> out;
    for (const Row& r : rows) out.insert(engine::RowToString(r));
    return out;
  }

  workload::MarketplaceData data_;
  stores::RelationalStore relational_;
  stores::KeyValueStore kv_;
  stores::DocumentStore doc_;
  stores::ParallelStore parallel_{2};
  stores::TextStore text_;
  Estocada sys_;
};

TEST_F(QueryServerTest, RepeatedQueryHitsTheCacheAndMatchesGroundTruth) {
  QueryServer server(&sys_);
  std::map<std::string, Value> params{{"$uid", Value::Int(3)}};
  const char* text = workload::MarketplaceQueries::OrdersOfUser();

  auto first = server.Query(text, params);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = server.Query(text, params);
  ASSERT_TRUE(second.ok()) << second.status();

  MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.queries_served, 2u);
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.rewrites, 1u);  // PACB ran once; the hit skipped it.

  auto truth = sys_.EvaluateOverStaging(text, params);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(Canon(first->rows), Canon(*truth));
  EXPECT_EQ(Canon(second->rows), Canon(*truth));
}

TEST_F(QueryServerTest, EquivalentQueriesShareOneEntry) {
  QueryServer server(&sys_);
  std::map<std::string, Value> p1{{"$uid", Value::Int(5)}};
  std::map<std::string, Value> p2{{"$u", Value::Int(9)}};
  auto r1 = server.Query("uorders(o, p, t) :- mk.orders(o, $uid, p, t)", p1);
  ASSERT_TRUE(r1.ok()) << r1.status();
  // Renamed variables, renamed parameter, different value: same entry.
  auto r2 = server.Query("res(a, b, c) :- mk.orders(a, $u, b, c)", p2);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(server.metrics().cache_hits, 1u);

  auto truth = sys_.EvaluateOverStaging(
      "uorders(o, p, t) :- mk.orders(o, $uid, p, t)",
      {{"$uid", Value::Int(9)}});
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(Canon(r2->rows), Canon(*truth));
}

TEST_F(QueryServerTest, ParameterValuesDoNotPolluteTheCache) {
  QueryServer server(&sys_);
  const char* text = workload::MarketplaceQueries::UserCity();
  for (int i = 0; i < 10; ++i) {
    std::map<std::string, Value> params{{"$uid", Value::Int(i)}};
    auto r = server.Query(text, params);
    ASSERT_TRUE(r.ok()) << r.status();
    auto truth = sys_.EvaluateOverStaging(text, params);
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(Canon(r->rows), Canon(*truth)) << "uid u" << i;
  }
  MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.cache_hits, 9u);
  EXPECT_EQ(server.cache_stats().entries, 1u);
}

TEST_F(QueryServerTest, FragmentChangeInvalidatesCachedPlans) {
  QueryServer server(&sys_);
  std::map<std::string, Value> params{{"$uid", Value::Int(2)}};
  const char* text = workload::MarketplaceQueries::OrdersOfUser();

  auto before = server.Query(text, params);
  ASSERT_TRUE(before.ok()) << before.status();
  // The only orders fragment is F_orders; the cached plan uses it.
  EXPECT_NE(before->rewriting_text.find("F_orders"), std::string::npos);

  // Replace the fragment layout: a user-keyed orders fragment appears and
  // the old one is dropped. The cached plan references a fragment that no
  // longer exists — serving it would be flat-out wrong.
  ASSERT_TRUE(server
                  .DefineFragment(
                      "F_orders_by_user(u, o, p, t) :- mk.orders(o, u, p, t)",
                      "spark", {}, {0})
                  .ok());
  ASSERT_TRUE(server.DropFragment("F_orders").ok());

  auto after = server.Query(text, params);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->rewriting_text.find("F_orders("), std::string::npos);
  EXPECT_NE(after->rewriting_text.find("F_orders_by_user"), std::string::npos);

  auto truth = sys_.EvaluateOverStaging(text, params);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(Canon(after->rows), Canon(*truth));

  // The epoch changed, so the pre-change entry was invalidated, not hit.
  EXPECT_GE(server.cache_stats().invalidations, 1u);
  EXPECT_EQ(server.metrics().cache_hits, 0u);
}

TEST_F(QueryServerTest, ApplyRecommendationInvalidatesToo) {
  QueryServer server(&sys_);
  std::map<std::string, Value> params{{"$uid", Value::Int(4)}};
  const char* text = workload::MarketplaceQueries::OrdersOfUser();
  uint64_t epoch_before = sys_.catalog_epoch();
  ASSERT_TRUE(server.Query(text, params).ok());

  // Drive the advisor with a hot shape, then apply its recommendation
  // through the server.
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(server.Query(text, params).ok());
  auto recs = server.Advise();
  if (!recs.empty()) {
    ASSERT_TRUE(server.ApplyRecommendation(recs[0]).ok());
    EXPECT_GT(sys_.catalog_epoch(), epoch_before);
    auto after = server.Query(text, params);
    ASSERT_TRUE(after.ok()) << after.status();
    auto truth = sys_.EvaluateOverStaging(text, params);
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(Canon(after->rows), Canon(*truth));
  }
}

TEST_F(QueryServerTest, ConcurrentClientsMatchGroundTruth) {
  QueryServer server(&sys_);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;

  // Precompute ground truth for every (query, uid) pair used below.
  struct Case {
    std::string text;
    std::map<std::string, Value> params;
    std::set<std::string> truth;
  };
  std::vector<Case> cases;
  for (int u = 0; u < 10; ++u) {
    for (const char* text : {workload::MarketplaceQueries::OrdersOfUser(),
                             workload::MarketplaceQueries::UserCity(),
                             workload::MarketplaceQueries::CartByUser()}) {
      Case c;
      c.text = text;
      c.params = {{"$uid", Value::Int(u)}};
      auto truth = sys_.EvaluateOverStaging(c.text, c.params);
      ASSERT_TRUE(truth.ok()) << truth.status();
      c.truth = Canon(*truth);
      cases.push_back(std::move(c));
    }
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const Case& c = cases[(t * kQueriesPerThread + i) % cases.size()];
        auto r = server.Query(c.text, c.params);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        if (Canon(r->rows) != c.truth) ++mismatches;
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.queries_served,
            static_cast<uint64_t>(kThreads * kQueriesPerThread));
  // 3 query shapes -> ~3 misses. Concurrent first requests for one shape
  // may each miss before the first insert lands (benign: both compute the
  // same entry), so allow a little slack but demand a high hit rate.
  EXPECT_GE(m.cache_misses, 3u);
  EXPECT_LE(m.cache_misses, 3u + static_cast<uint64_t>(kThreads));
  EXPECT_GT(m.CacheHitRate(), 0.9);
}

TEST_F(QueryServerTest, ConcurrentQueriesAndCatalogChanges) {
  QueryServer server(&sys_);
  const char* text = workload::MarketplaceQueries::UserCity();
  std::map<std::string, Value> params{{"$uid", Value::Int(1)}};
  auto truth = sys_.EvaluateOverStaging(text, params);
  ASSERT_TRUE(truth.ok());
  std::set<std::string> expected = Canon(*truth);

  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto r = server.Query(text, params);
        if (!r.ok() || Canon(r->rows) != expected) ++bad;
      }
    });
  }
  // Meanwhile, churn the fragment layout with an unrelated fragment so
  // epochs bump mid-flight.
  std::thread admin([&] {
    for (int i = 0; i < 5; ++i) {
      std::string name = "F_churn" + std::to_string(i);
      EXPECT_TRUE(server
                      .DefineFragment(name + "(p, w) :- mk.prodterms(p, w)",
                                      "solr",
                                      {Adornment::kFree, Adornment::kInput})
                      .ok());
      EXPECT_TRUE(server.DropFragment(name).ok());
    }
  });
  for (auto& t : clients) t.join();
  admin.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(QueryServerTest, DropFragmentRacesCachedPlansWithoutWrongAnswers) {
  QueryServer server(&sys_);
  const char* text = workload::MarketplaceQueries::OrdersOfUser();
  std::map<std::string, Value> params{{"$uid", Value::Int(2)}};
  auto truth = sys_.EvaluateOverStaging(text, params);
  ASSERT_TRUE(truth.ok());
  std::set<std::string> expected = Canon(*truth);

  // A redundant orders fragment keeps the query answerable once F_orders
  // goes away mid-flight.
  ASSERT_TRUE(server
                  .DefineFragment(
                      "F_orders_by_user(u, o, p, t) :- mk.orders(o, u, p, t)",
                      "spark", {}, {0})
                  .ok());
  // Warm the cache: concurrent clients below start from a cached plan
  // whose fragment the admin thread is about to drop.
  ASSERT_TRUE(server.Query(text, params).ok());

  std::atomic<int> bad{0};
  std::atomic<bool> dropped{false};
  std::atomic<int> used_dropped_after{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        // Sample the flag *before* issuing the query: an answer that was
        // already in flight when the drop committed may legally carry the
        // old plan, but a query issued after it must not.
        bool after_drop = dropped.load(std::memory_order_acquire);
        auto r = server.Query(text, params);
        if (!r.ok() || Canon(r->rows) != expected) {
          ++bad;
          continue;
        }
        if (after_drop &&
            r->rewriting_text.find("F_orders(") != std::string::npos) {
          ++used_dropped_after;
        }
        // Brief think time so the admin's exclusive lock is not starved
        // by the platform's reader-preferring rwlock.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  std::thread admin([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    EXPECT_TRUE(server.DropFragment("F_orders").ok());
    dropped.store(true, std::memory_order_release);
  });
  for (auto& t : clients) t.join();
  admin.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(used_dropped_after.load(), 0);
  // The drop bumped the epoch, so the warmed entry was invalidated (or
  // evicted wholesale) rather than served stale.
  EXPECT_GE(server.cache_stats().invalidations +
                server.metrics().cache_misses,
            2u);
  auto after = server.Query(text, params);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->rewriting_text.find("F_orders("), std::string::npos);
  EXPECT_EQ(Canon(after->rows), expected);
}

TEST_F(QueryServerTest, SubmitRunsOnWorkerPool) {
  ServerOptions options;
  options.worker_threads = 4;
  QueryServer server(&sys_, options);
  std::vector<std::future<Result<Estocada::QueryResult>>> futures;
  for (int u = 0; u < 12; ++u) {
    futures.push_back(server.Submit(workload::MarketplaceQueries::UserCity(),
                                    {{"$uid", Value::Int(u)}}));
  }
  for (int u = 0; u < 12; ++u) {
    auto r = futures[static_cast<size_t>(u)].get();
    ASSERT_TRUE(r.ok()) << r.status();
    auto truth = sys_.EvaluateOverStaging(
        workload::MarketplaceQueries::UserCity(), {{"$uid", Value::Int(u)}});
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(Canon(r->rows), Canon(*truth));
  }
  EXPECT_EQ(server.metrics().queries_served, 12u);
}

TEST_F(QueryServerTest, ParseErrorsCountAsErrors) {
  QueryServer server(&sys_);
  auto r = server.Query("this is not a query");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(server.metrics().errors, 1u);
}

TEST_F(QueryServerTest, InlinedConstantsShareOnePlanButNamedOnesStayInline) {
  // Three categories that have products.
  std::vector<std::string> categories;
  for (const Row& row : data_.staging["mk.products"].rows) {
    std::string category = row[2].ToString();
    if (std::find(categories.begin(), categories.end(), category) ==
        categories.end()) {
      categories.push_back(category);
    }
  }
  ASSERT_GE(categories.size(), 3u);
  QueryServer server(&sys_);
  ASSERT_TRUE(server
                  .DefineFragment(StrCat("F_named(p) :- mk.products(p, n, '",
                                         categories[0], "', pr)"),
                                  "mongo")
                  .ok());
  auto ask = [&](const std::string& category) {
    std::string text =
        StrCat("pc(p) :- mk.products(p, n, '", category, "', pr)");
    auto r = server.Query(text);
    EXPECT_TRUE(r.ok()) << r.status();
    auto truth = sys_.EvaluateOverStaging(text);
    EXPECT_TRUE(truth.ok()) << truth.status();
    if (r.ok() && truth.ok()) {
      EXPECT_EQ(Canon(r->rows), Canon(*truth)) << text;
      EXPECT_FALSE(truth->empty()) << text;
    }
    return r;
  };
  // The first category is named by F_named's body: it stays inline, so
  // F_named answers.
  auto named = ask(categories[0]);
  ASSERT_TRUE(named.ok());
  EXPECT_NE(named->rewriting_text.find("F_named"), std::string::npos);
  const size_t entries = server.cache_stats().entries;
  // The others are lifted: one new entry, whose rewriting set has no
  // F_named rewriting (the second text is a hit on it).
  for (size_t i : {1, 2}) {
    auto r = ask(categories[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rewriting_text.find("F_named"), std::string::npos);
    EXPECT_EQ(r->rewritings_considered, 1u);
    EXPECT_EQ(r->runtime_stats.per_store.count("mongo"), 0u);
  }
  EXPECT_EQ(server.cache_stats().entries, entries + 1);
  MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.rewrites, 2u);
  EXPECT_EQ(m.lift_rejections, 0u);
}

TEST_F(QueryServerTest, ANewFragmentNamingAConstantStopsItsLift) {
  QueryServer server(&sys_);
  const std::string text = "pc(p) :- mk.products(p, n, 'cat4', pr)";
  auto before = server.Query(text);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->rewriting_text.find("'cat4'"), std::string::npos);
  // The memoized lift of `text` predates F_c4, which names 'cat4'.
  ASSERT_TRUE(server
                  .DefineFragment("F_c4(p) :- mk.products(p, n, 'cat4', pr)",
                                  "mongo")
                  .ok());
  auto after = server.Query(text);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(after->rewriting_text.find("F_c4"), std::string::npos);
  EXPECT_EQ(after->rewritings_considered, 2u);
  EXPECT_EQ(server.metrics().memo_misses, 2u);  // Re-lifted, not reused.
  auto truth = sys_.EvaluateOverStaging(text);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(Canon(after->rows), Canon(*truth));
  EXPECT_EQ(Canon(before->rows), Canon(*truth));
}

TEST_F(QueryServerTest, UserParametersAndLiftedConstantsCoexist) {
  QueryServer server(&sys_);
  // A user parameter named like a canonical one, beside a lifted constant,
  // and a stray map entry spelled like a lifted parameter's internal name.
  const std::string text =
      "vis(p) :- mk.visits($p0, p, d), mk.orders(o, 3, p, t)";
  for (int64_t uid : {3, 5}) {
    std::map<std::string, Value> params{{"$p0", Value::Int(uid)},
                                        {"$#0", Value::Int(77)}};
    auto r = server.Query(text, params);
    ASSERT_TRUE(r.ok()) << r.status();
    auto truth = sys_.EvaluateOverStaging(text, params);
    ASSERT_TRUE(truth.ok()) << truth.status();
    EXPECT_EQ(Canon(r->rows), Canon(*truth)) << "uid " << uid;
  }
  EXPECT_EQ(server.metrics().cache_hits, 1u);
}

TEST_F(QueryServerTest, HotTextSurvivesAStreamOfOneOffTexts) {
  QueryServer server(&sys_);
  const char* hot = workload::MarketplaceQueries::UserCity();
  std::map<std::string, Value> params{{"$uid", Value::Int(1)}};
  constexpr int kOneOff = 10000;
  for (int i = 0; i < kOneOff; ++i) {
    ASSERT_TRUE(server.Query(hot, params).ok());
    auto r = server.Query(StrCat("ucity(c) :- mk.users(", i, ", n, c)"));
    ASSERT_TRUE(r.ok()) << r.status();
  }
  MetricsSnapshot m = server.metrics();
  // Parsed once for the hot text plus once per one-off text.
  EXPECT_EQ(m.memo_misses, static_cast<uint64_t>(kOneOff) + 1);
  EXPECT_EQ(m.memo_hits, static_cast<uint64_t>(kOneOff) - 1);
  // The one-off texts lift into the hot text's own shape: one plan.
  EXPECT_EQ(m.rewrites, 1u);
}

/// A one-relation deployment whose key EGD can merge two lifted constants.
TEST(LiftGuardTest, KeyEgdMergingLiftedConstantsFallsBackToTheConstants) {
  pivot::Schema schema;
  pivot::RelationSignature sig;
  sig.name = "t.r";
  sig.columns = {"k", "x", "c"};
  sig.adornments.assign(3, Adornment::kFree);
  sig.key = {0};
  ASSERT_TRUE(schema.AddRelation(sig).ok());
  for (int j : {1, 2}) {
    auto d = pivot::ParseDependency(
        StrCat("t.r(k, x1, x2), t.r(k, y1, y2) -> x", j, " = y", j),
        StrCat("key:t.r:", j));
    ASSERT_TRUE(d.ok()) << d.status();
    schema.AddDependency(std::move(*d));
  }
  stores::RelationalStore pg;
  Estocada sys;
  ASSERT_TRUE(sys.RegisterSchema(schema).ok());
  ASSERT_TRUE(sys.RegisterStore({"pg", catalog::StoreKind::kRelational, &pg,
                                 nullptr, nullptr, nullptr, nullptr})
                  .ok());
  std::vector<Row> rows;
  for (int64_t k = 0; k < 6; ++k) {
    rows.push_back({Value::Int(k), Value::Int(10 * k),
                    Value::Str(k % 2 == 0 ? "a" : "b")});
  }
  ASSERT_TRUE(sys.LoadRows("t.r", rows).ok());
  ASSERT_TRUE(
      sys.DefineFragment("F_r(k, x, c) :- t.r(k, x, c)", "pg", {}, {0}).ok());
  QueryServer server(&sys);
  auto as_set = [](const std::vector<Row>& rows) {
    std::set<std::string> out;
    for (const Row& r : rows) out.insert(engine::RowToString(r));
    return out;
  };
  auto ask = [&](const std::string& text) {
    auto r = server.Query(text);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status();
    auto truth = sys.EvaluateOverStaging(text);
    EXPECT_TRUE(truth.ok()) << truth.status();
    if (r.ok() && truth.ok()) {
      EXPECT_EQ(as_set(r->rows), as_set(*truth)) << text;
    }
    return r.ok() ? r->rows.size() : size_t{0};
  };
  // The key EGD equates 'a' and 'b': lifted, that is a merge of two
  // parameters; with the constants it fails the chase, so the staging
  // area answers — no row, as keys are distinct.
  EXPECT_EQ(ask("q(x) :- t.r(k, x, 'a'), t.r(k, y, 'b')"), 0u);
  MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.lift_rejections, 1u);
  EXPECT_EQ(m.rewrites, 2u);  // The lifted set, then the constants.
  EXPECT_EQ(m.degraded, 1u);
  // A later text of the same shape reads the verdict from the cached
  // lifted set: only its own constants are rewritten.
  EXPECT_EQ(ask("q(x) :- t.r(k, x, 'c'), t.r(k, y, 'd')"), 0u);
  m = server.metrics();
  EXPECT_EQ(m.lift_rejections, 2u);
  EXPECT_EQ(m.rewrites, 3u);
  EXPECT_EQ(m.cache_hits, 1u);
  // One constant twice is one parameter: nothing merges, nothing falls
  // back.
  EXPECT_EQ(ask("q(x) :- t.r(k, x, 'a'), t.r(k, y, 'a')"), 3u);
  EXPECT_EQ(server.metrics().lift_rejections, 2u);
  // The chase tells 0 from 0.0 and fails, but evaluation matches them:
  // the key-0 row answers, so the fallback must not answer "no rows".
  EXPECT_EQ(ask("q(c) :- t.r(k, 0, c), t.r(k, 0.0, d)"), 1u);
  EXPECT_EQ(server.metrics().lift_rejections, 3u);
}

// ------------------------------------------------------------ RetryPolicy --

TEST(RetryPolicyTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Unavailable("blip")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::NotFound("gone")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Internal("bug")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::OK()));
}

TEST(RetryPolicyTest, BackoffIsFullJitterWithExponentialCap) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 100;
  policy.max_backoff_micros = 400;
  Rng rng(1);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    uint64_t cap = std::min<uint64_t>(100u << (attempt - 1), 400);
    for (int i = 0; i < 50; ++i) {
      EXPECT_LE(policy.BackoffMicros(attempt, rng), cap);
    }
  }
}

TEST(RetryPolicyTest, ZeroBackoffStaysZero) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 0;
  Rng rng(1);
  EXPECT_EQ(policy.BackoffMicros(1, rng), 0u);
  EXPECT_EQ(policy.BackoffMicros(5, rng), 0u);
}

// --------------------------------------------------------- HealthRegistry --

TEST(HealthRegistryTest, TripsAfterConsecutiveFailures) {
  HealthOptions options;
  options.failure_threshold = 3;
  HealthRegistry health(options);
  EXPECT_EQ(health.state("pg"), BreakerState::kClosed);
  EXPECT_FALSE(health.ReportFailure("pg"));
  EXPECT_FALSE(health.ReportFailure("pg"));
  EXPECT_TRUE(health.ReportFailure("pg"));  // Third strike trips it.
  EXPECT_EQ(health.state("pg"), BreakerState::kOpen);
  auto excluded = health.ExcludedStores();
  ASSERT_EQ(excluded.size(), 1u);
  EXPECT_EQ(excluded[0], "pg");
}

TEST(HealthRegistryTest, SuccessResetsTheFailureCount) {
  HealthOptions options;
  options.failure_threshold = 2;
  HealthRegistry health(options);
  EXPECT_FALSE(health.ReportFailure("pg"));
  health.ReportSuccess("pg");  // Interleaved success: streak broken.
  EXPECT_FALSE(health.ReportFailure("pg"));
  EXPECT_EQ(health.state("pg"), BreakerState::kClosed);
}

TEST(HealthRegistryTest, HalfOpenProbeAfterCooldownThenCloseOrReopen) {
  HealthOptions options;
  options.failure_threshold = 1;
  options.open_cooldown_micros = 500;
  HealthRegistry health(options);
  EXPECT_TRUE(health.ReportFailure("pg"));
  EXPECT_EQ(health.state("pg"), BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::microseconds(2000));
  // The cooldown expired: the exclusion check lets one probe through.
  EXPECT_TRUE(health.ExcludedStores().empty());
  EXPECT_EQ(health.state("pg"), BreakerState::kHalfOpen);
  // A failed probe re-opens...
  EXPECT_TRUE(health.ReportFailure("pg"));
  EXPECT_EQ(health.state("pg"), BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::microseconds(2000));
  EXPECT_TRUE(health.ExcludedStores().empty());
  // ...and a successful one closes for good.
  health.ReportSuccess("pg");
  EXPECT_EQ(health.state("pg"), BreakerState::kClosed);
}

TEST(HealthRegistryTest, EpochBumpsOnEveryTransition) {
  HealthOptions options;
  options.failure_threshold = 1;
  options.open_cooldown_micros = 0;
  HealthRegistry health(options);
  uint64_t e0 = health.health_epoch();
  EXPECT_TRUE(health.ReportFailure("pg"));  // closed → open
  uint64_t e1 = health.health_epoch();
  EXPECT_GT(e1, e0);
  (void)health.ExcludedStores();  // open → half-open (cooldown 0)
  uint64_t e2 = health.health_epoch();
  EXPECT_GT(e2, e1);
  health.ReportSuccess("pg");  // half-open → closed
  EXPECT_GT(health.health_epoch(), e2);
}

TEST(HealthRegistryTest, StoresAreIndependent) {
  HealthOptions options;
  options.failure_threshold = 1;
  HealthRegistry health(options);
  EXPECT_TRUE(health.ReportFailure("pg"));
  EXPECT_EQ(health.state("pg"), BreakerState::kOpen);
  EXPECT_EQ(health.state("redis"), BreakerState::kClosed);
  EXPECT_EQ(health.ExcludedStores().size(), 1u);
}

}  // namespace
}  // namespace estocada::runtime
