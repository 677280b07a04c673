/// Golden-file tests of the PACB rewriter's output on three demo
/// scenarios. The rewriting *set* for a fixed (schema, views, query)
/// triple is part of the system's observable contract; these tests diff
/// pacb::DescribeRewritingSet against checked-in expectations so any
/// change — a lost rewriting, a new one, a different minimization — shows
/// up as a reviewable textual diff.
///
/// To regenerate after an intentional change:
///
///   UPDATE_GOLDENS=1 ./tests/golden_rewritings
///
/// then review `git diff tests/golden/` before committing.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "estocada/estocada.h"
#include "pacb/rewriter.h"
#include "pacb/view.h"
#include "pivot/parser.h"

namespace estocada::pacb {
namespace {

using pivot::Adornment;
using pivot::ConjunctiveQuery;
using pivot::ParseQuery;
using pivot::Schema;

ConjunctiveQuery Q(std::string_view text) {
  auto r = ParseQuery(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

ViewDefinition View(std::string_view text,
                    std::vector<Adornment> adornments = {}) {
  ViewDefinition v;
  v.query = Q(text);
  v.adornments = std::move(adornments);
  return v;
}

Schema SchemaWith(std::initializer_list<std::pair<const char*, size_t>> rels,
                  std::string_view deps_text = "") {
  Schema s;
  for (const auto& [name, arity] : rels) {
    EXPECT_TRUE(s.AddRelation(name, arity).ok());
  }
  if (!deps_text.empty()) {
    auto deps = pivot::ParseDependencies(deps_text);
    EXPECT_TRUE(deps.ok()) << deps.status();
    for (auto& d : *deps) s.AddDependency(std::move(d));
  }
  return s;
}

std::string GoldenPath(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name + ".golden";
}

void CompareWithGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run with UPDATE_GOLDENS=1 to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual)
      << "rewriting set for '" << name << "' changed; if intentional, "
      << "regenerate with UPDATE_GOLDENS=1 and review the diff";
}

/// One rewriting scenario: a (schema, views) deployment and the queries
/// whose rewriting sets its golden file pins.
struct Scenario {
  std::string name;
  Schema schema;
  std::vector<ViewDefinition> views;
  std::vector<const char*> queries;
};

/// The golden text of `scenario` as rewritten by `rewriter`: each query
/// followed by its DescribeRewritingSet.
std::string DescribeScenario(const Rewriter& rewriter,
                             const Scenario& scenario) {
  std::string out;
  for (const char* qtext : scenario.queries) {
    auto result = rewriter.Rewrite(Q(qtext));
    EXPECT_TRUE(result.ok()) << qtext << ": " << result.status();
    if (!result.ok()) return out;
    out += "query: ";
    out += qtext;
    out += "\n";
    out += DescribeRewritingSet(*result);
    out += "\n";
  }
  return out;
}

void RunGolden(const Scenario& scenario) {
  Rewriter rewriter(scenario.schema, scenario.views);
  ASSERT_TRUE(rewriter.Prepare().ok());
  CompareWithGolden(scenario.name, DescribeScenario(rewriter, scenario));
}

/// The paper's §II web-marketplace: users and carts split across a
/// relational store (full users table), a key-value store (carts keyed by
/// user, binding pattern on the key), and a document store holding a
/// pre-joined user×cart fragment.
Scenario MarketplaceScenario() {
  return {
      "marketplace",
      SchemaWith({{"mk.users", 3}, {"mk.carts", 2}},
                 "mk.users(u, n1, c1), mk.users(u, n2, c2) -> n1 = n2; "
                 "mk.users(u, n1, c1), mk.users(u, n2, c2) -> c1 = c2; "
                 "mk.carts(u, p) -> mk.users(u, n, c)"),
      {
          View("F_users(u, n, c) :- mk.users(u, n, c)"),
          View("F_cart(u, p) :- mk.carts(u, p)",
               {Adornment::kInput, Adornment::kFree}),
          View("F_cart_city(u, p, c) :- mk.carts(u, p), mk.users(u, n, c)"),
          View("F_city(u, c) :- mk.users(u, n, c)"),
      },
      {
          "q(p) :- mk.carts($uid, p)",
          "q(u, p, c) :- mk.carts(u, p), mk.users(u, n, c)",
          "q(n, c) :- mk.users($uid, n, c)",
      }};
}

/// A log-analytics layout: the full log lives on the parallel store, with
/// narrow projections replicated for cheap host/message lookups.
Scenario BigdataScenario() {
  return {
      "bigdata",
      SchemaWith({{"ds.logs", 3}},
                 "ds.logs(i, h1, m1), ds.logs(i, h2, m2) -> h1 = h2; "
                 "ds.logs(i, h1, m1), ds.logs(i, h2, m2) -> m1 = m2"),
      {
          View("F_logs(i, h, m) :- ds.logs(i, h, m)"),
          View("F_host(i, h) :- ds.logs(i, h, m)"),
          View("F_msg(i, m) :- ds.logs(i, h, m)"),
      },
      {
          "q(i, h, m) :- ds.logs(i, h, m)",
          "q(h) :- ds.logs($id, h, m)",
          "q(i) :- ds.logs(i, 'web1', m)",
      }};
}

/// The classic R ⋈ S with R replicated on two stores plus a pre-joined
/// fragment: the rewriter must report every combination (join view alone,
/// and each replica joined with S).
Scenario ReplicatedJoinScenario() {
  return {"replicated_rs",
          SchemaWith({{"R", 2}, {"S", 2}}),
          {
              View("V_r1(x, y) :- R(x, y)"),
              View("V_r2(x, y) :- R(x, y)"),
              View("V_s(y, z) :- S(y, z)"),
              View("V_rs(x, z) :- R(x, y), S(y, z)"),
          },
          {
              "q(x, z) :- R(x, y), S(y, z)",
              "q(x, y) :- R(x, y)",
          }};
}

TEST(GoldenRewritings, Marketplace) { RunGolden(MarketplaceScenario()); }

TEST(GoldenRewritings, Bigdata) { RunGolden(BigdataScenario()); }

TEST(GoldenRewritings, ReplicatedJoin) {
  RunGolden(ReplicatedJoinScenario());
}

/// Rewrite is const and safe for concurrent callers: four threads rewriting
/// every query of a scenario on one shared prepared Rewriter each get the
/// sequential rewriting sets. Run under TSan in CI.
TEST(GoldenRewritings, ConcurrentRewritesMatchSequential) {
  for (const Scenario& scenario :
       {MarketplaceScenario(), BigdataScenario(), ReplicatedJoinScenario()}) {
    Rewriter rewriter(scenario.schema, scenario.views);
    ASSERT_TRUE(rewriter.Prepare().ok());
    const std::string sequential = DescribeScenario(rewriter, scenario);
    std::vector<std::string> concurrent(4);
    std::vector<std::thread> threads;
    for (std::string& out : concurrent) {
      threads.emplace_back(
          [&] { out = DescribeScenario(rewriter, scenario); });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& out : concurrent) {
      EXPECT_EQ(sequential, out) << "scenario " << scenario.name;
    }
  }
}

/// The marketplace again, but with F_users hash-partitioned across two
/// stores and F_orders range-partitioned: partitioning is part of the
/// *where*, not the *what*, so the golden pins two contracts at once —
/// the rewriting set is identical to an unpartitioned layout (the PACB
/// rewriter sees one fragment per view), while the serving plans show the
/// physical split: a scatter-gather fan-out for unbound reads and a
/// single-shard route when the partition key is bound.
TEST(GoldenRewritings, PartitionedMarketplacePlans) {
  stores::RelationalStore s[4];
  Estocada sys;
  pivot::Schema schema;
  ASSERT_TRUE(schema.AddRelation("mk.users", 3).ok());
  ASSERT_TRUE(schema.AddRelation("mk.orders", 4).ok());
  ASSERT_TRUE(sys.RegisterSchema(schema).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sys.RegisterStore({"s" + std::to_string(i),
                                   catalog::StoreKind::kRelational, &s[i],
                                   nullptr, nullptr, nullptr, nullptr})
                    .ok());
  }
  // Small fixed extent so fragment statistics (and with them plan costs)
  // are bit-stable.
  for (int64_t u = 0; u < 12; ++u) {
    ASSERT_TRUE(sys.LoadRow("mk.users",
                            {engine::Value::Int(u),
                             engine::Value::Str("n" + std::to_string(u)),
                             engine::Value::Str("c" + std::to_string(u % 3))})
                    .ok());
  }
  for (int64_t o = 0; o < 30; ++o) {
    ASSERT_TRUE(sys.LoadRow("mk.orders",
                            {engine::Value::Int(o),
                             engine::Value::Int(o % 12),
                             engine::Value::Int(o % 7),
                             engine::Value::Int(100 + o)})
                    .ok());
  }
  ASSERT_TRUE(sys.DefinePartitionedFragment(
                      "F_users(u, n, c) :- mk.users(u, n, c)",
                      catalog::PartitionSpec::Kind::kHash, 0, {"s0", "s1"})
                  .ok());
  ASSERT_TRUE(sys.DefinePartitionedFragment(
                      "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)",
                      catalog::PartitionSpec::Kind::kRange, 0, {"s2", "s3"},
                      {engine::Value::Int(15)})
                  .ok());

  std::string actual;
  for (const char* qtext : {
           "q(u, n, c) :- mk.users(u, n, c)",
           "q(n, c) :- mk.users($u, n, c)",
           "q(o, t) :- mk.orders(o, $u, p, t)",
           "q(n, o, t) :- mk.users(u, n, c), mk.orders(o, u, p, t)",
       }) {
    auto r = sys.Query(qtext, {{"$u", engine::Value::Int(3)}});
    ASSERT_TRUE(r.ok()) << qtext << ": " << r.status();
    actual += "query: ";
    actual += qtext;
    actual += "\nrewriting: ";
    actual += r->rewriting_text;
    actual += "\nplan:\n";
    actual += r->plan_text;
    actual += "\n";
  }
  CompareWithGolden("partitioned_marketplace", actual);
}

/// The marketplace with a social graph on the side: a property-graph
/// dataset (soc) encoded into Node/Edge/NodeProp/Reach relations, its
/// Edge and Reach3 fragments living natively on a graph store, the node
/// properties on a document store, and the users table on a relational
/// store. The golden pins three contracts at once: the untouched PACB
/// rewriter rewrites a single CQ spanning all three islands; bound graph
/// reads compile to EXPAND (adjacency-bucket probes) while unbound ones
/// compile to GRAPH-SCAN; and the gmatch front-end's bounded path lowers
/// to a Reach atom served by the graph store.
TEST(GoldenRewritings, GraphMarketplacePlans) {
  stores::GraphStore neo;
  stores::DocumentStore mongo;
  stores::RelationalStore postgres;
  Estocada sys;
  ASSERT_TRUE(sys.RegisterGraphDataset("soc", 3).ok());
  pivot::Schema schema;
  ASSERT_TRUE(schema.AddRelation("mk.users", 3).ok());
  ASSERT_TRUE(sys.RegisterSchema(schema).ok());
  ASSERT_TRUE(sys.RegisterStore({"neo", catalog::StoreKind::kGraph, nullptr,
                                 nullptr, nullptr, nullptr, nullptr, &neo})
                  .ok());
  ASSERT_TRUE(sys.RegisterStore({"mongo", catalog::StoreKind::kDocument,
                                 nullptr, nullptr, &mongo, nullptr, nullptr})
                  .ok());
  ASSERT_TRUE(sys.RegisterStore({"postgres", catalog::StoreKind::kRelational,
                                 &postgres, nullptr, nullptr, nullptr,
                                 nullptr})
                  .ok());
  // Small fixed extent so fragment statistics (and with them plan costs)
  // are bit-stable: a 6-user follow cycle with a couple of chords.
  encoding::GraphData g;
  for (int i = 0; i < 6; ++i) {
    std::string id = "u" + std::to_string(i);
    g.nodes.push_back({id, "User",
                       {{"name", pivot::Constant::Str("n" + id)}}});
  }
  for (int i = 0; i < 6; ++i) {
    g.edges.push_back({"u" + std::to_string(i), "follows",
                       "u" + std::to_string((i + 1) % 6), {}});
  }
  g.edges.push_back({"u0", "blocks", "u3", {}});
  g.edges.push_back({"u2", "follows", "u5", {}});
  ASSERT_TRUE(sys.LoadGraph("soc", g).ok());
  for (int i = 0; i < 6; ++i) {
    std::string id = "u" + std::to_string(i);
    ASSERT_TRUE(sys.LoadRow("mk.users",
                            {engine::Value::Str(id),
                             engine::Value::Str("n" + id),
                             engine::Value::Str("c" + std::to_string(i % 2))})
                    .ok());
  }
  ASSERT_TRUE(sys.DefineFragment("F_node(n, l) :- soc.Node(n, l)", "neo")
                  .ok());
  ASSERT_TRUE(sys.DefineFragment("F_edge(s, l, d) :- soc.Edge(s, l, d)",
                                 "neo")
                  .ok());
  ASSERT_TRUE(sys.DefineFragment("F_reach(s, d) :- soc.Reach3(s, d)", "neo")
                  .ok());
  ASSERT_TRUE(sys.DefineFragment("F_nprop(n, k, v) :- soc.NodeProp(n, k, v)",
                                 "mongo")
                  .ok());
  ASSERT_TRUE(sys.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                 "postgres")
                  .ok());

  std::string actual;
  auto append = [&actual](const char* label, const char* qtext,
                          const Estocada::QueryResult& r) {
    actual += "query: ";
    actual += label;
    actual += qtext;
    actual += "\nrewriting: ";
    actual += r.rewriting_text;
    actual += "\nplan:\n";
    actual += r.plan_text;
    actual += "\n";
  };
  const std::map<std::string, engine::Value> params = {
      {"$s", engine::Value::Str("u0")}};
  for (const char* qtext : {
           // Bound anchor: the graph store serves an EXPAND.
           "q(d) :- soc.Edge($s, l, d)",
           // Unbound: a GRAPH-SCAN over the adjacency store.
           "q(s, l, d) :- soc.Edge(s, l, d)",
           // One CQ spanning all three islands: a bounded path on the
           // graph store, node properties on the document store, and the
           // relational users table.
           "q(d, nm, c) :- soc.Reach3($s, d), soc.NodeProp(d, 'name', nm), "
           "mk.users(d, u2, c)",
       }) {
    auto r = sys.Query(qtext, params);
    ASSERT_TRUE(r.ok()) << qtext << ": " << r.status();
    append("", qtext, *r);
  }
  // The gmatch front-end: a bounded path b -*1..3-> c lowers to Reach3.
  frontend::GraphMatchSpec spec;
  spec.dataset = "soc";
  spec.nodes = {{"a", "User", {}}, {"b", "User", {}}};
  spec.edges = {{"a", "", "b", {}, 3}};
  spec.returns = {"b", "b.name"};
  auto r = sys.QueryGraphMatch(spec);
  ASSERT_TRUE(r.ok()) << r.status();
  append("MATCH (a:User)-[*1..3]->(b:User) RETURN b, b.name", "", *r);
  CompareWithGolden("graph_marketplace", actual);
}

}  // namespace
}  // namespace estocada::pacb
