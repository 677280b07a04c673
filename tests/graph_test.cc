/// End-to-end tests of the property-graph island: the GraphEncoding
/// pivot relations and reachability axioms, LoadGraph's staged Reach
/// completion, graph fragments materialized on the native GraphStore,
/// EXPAND/GRAPH-SCAN delegation through the untouched PACB pipeline, the
/// gmatch front-end, and cross-model joins against the document and
/// relational islands. Plus the per-kind dispatch hardening check: every
/// StoreKind is iterable, nameable, and distinct.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "estocada/estocada.h"

namespace estocada {
namespace {

using engine::Row;
using engine::Value;

/// Set-canonical form: delegated plans and the staging oracle may differ
/// in duplicate multiplicity (bag vs set projection), never in support.
std::set<std::string> Canon(const std::vector<Row>& rows) {
  std::set<std::string> out;
  for (const Row& r : rows) out.insert(engine::RowToString(r));
  return out;
}

// ------------------------------------------- StoreKind dispatch hardening --

TEST(StoreKindTest, EveryKindHasADistinctName) {
  std::set<std::string> names;
  for (catalog::StoreKind kind : catalog::kAllStoreKinds) {
    std::string name = catalog::StoreKindName(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "unnamed StoreKind " << static_cast<int>(kind);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  // The six islands: adding a kind must extend kAllStoreKinds (and every
  // switch over StoreKind — the build's -Wswitch enforces the rest).
  EXPECT_EQ(names.size(), 6u);
  EXPECT_TRUE(names.count("graph"));
}

TEST(StoreKindTest, RegisterStoreRequiresMatchingBackend) {
  Estocada sys;
  stores::GraphStore neo;
  // Kind and backend pointer must agree: a graph handle carrying no graph
  // backend (or a wrong-kind one) is rejected.
  EXPECT_FALSE(sys.RegisterStore({"bad", catalog::StoreKind::kGraph, nullptr,
                                  nullptr, nullptr, nullptr, nullptr,
                                  nullptr})
                   .ok());
  EXPECT_TRUE(sys.RegisterStore({"good", catalog::StoreKind::kGraph, nullptr,
                                 nullptr, nullptr, nullptr, nullptr, &neo})
                  .ok());
}

// ------------------------------------------------------ The graph island --

/// A social graph next to the marketplace: 6 users in a follow cycle with
/// chords, names as node properties, and a relational table keyed by the
/// node ids.
class GraphIslandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(sys_.RegisterGraphDataset("soc", 3).ok());
    pivot::Schema schema;
    ASSERT_TRUE(schema.AddRelation("mk.users", 3).ok());
    ASSERT_TRUE(sys_.RegisterSchema(schema).ok());
    ASSERT_TRUE(sys_.RegisterStore({"neo", catalog::StoreKind::kGraph,
                                    nullptr, nullptr, nullptr, nullptr,
                                    nullptr, &neo_})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"mongo", catalog::StoreKind::kDocument,
                                    nullptr, nullptr, &mongo_, nullptr,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"postgres",
                                    catalog::StoreKind::kRelational, &pg_,
                                    nullptr, nullptr, nullptr, nullptr})
                    .ok());
    encoding::GraphData g;
    for (int i = 0; i < 6; ++i) {
      std::string id = "u" + std::to_string(i);
      g.nodes.push_back(
          {id, "User", {{"name", pivot::Constant::Str("n" + id)}}});
    }
    for (int i = 0; i < 6; ++i) {
      g.edges.push_back({"u" + std::to_string(i), "follows",
                         "u" + std::to_string((i + 1) % 6), {}});
    }
    g.edges.push_back({"u0", "blocks", "u3", {}});
    ASSERT_TRUE(sys_.LoadGraph("soc", g).ok());
    for (int i = 0; i < 6; ++i) {
      std::string id = "u" + std::to_string(i);
      ASSERT_TRUE(
          sys_.LoadRow("mk.users",
                       {Value::Str(id), Value::Str("n" + id),
                        Value::Str("c" + std::to_string(i % 2))})
              .ok());
    }
  }

  void DefineGraphFragments() {
    ASSERT_TRUE(
        sys_.DefineFragment("F_node(n, l) :- soc.Node(n, l)", "neo").ok());
    ASSERT_TRUE(
        sys_.DefineFragment("F_edge(s, l, d) :- soc.Edge(s, l, d)", "neo")
            .ok());
    ASSERT_TRUE(
        sys_.DefineFragment("F_nprop(n, k, v) :- soc.NodeProp(n, k, v)",
                            "neo")
            .ok());
    ASSERT_TRUE(
        sys_.DefineFragment("F_reach(s, d) :- soc.Reach3(s, d)", "neo").ok());
  }

  /// Runs `text` through the fragments and checks it against the oracle.
  void CheckQuery(const std::string& text,
                  const std::map<std::string, Value>& params = {}) {
    auto res = sys_.Query(text, params);
    ASSERT_TRUE(res.ok()) << text << ": " << res.status();
    auto oracle = sys_.EvaluateOverStaging(text, params);
    ASSERT_TRUE(oracle.ok()) << text << ": " << oracle.status();
    EXPECT_EQ(Canon(res->rows), Canon(*oracle)) << text;
  }

  stores::GraphStore neo_;
  stores::DocumentStore mongo_;
  stores::RelationalStore pg_;
  Estocada sys_;
};

TEST_F(GraphIslandTest, RegisterGraphDatasetIsIdempotentGuarded) {
  EXPECT_EQ(sys_.RegisterGraphDataset("soc", 3).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(sys_.LoadGraph("nope", {}).code(), StatusCode::kNotFound);
}

TEST_F(GraphIslandTest, LoadGraphCompletesBoundedReachability) {
  // Reach1 is exactly the edge projection.
  auto r1 = sys_.EvaluateOverStaging("q(s, d) :- soc.Reach1(s, d)");
  auto e = sys_.EvaluateOverStaging("q(s, d) :- soc.Edge(s, l, d)");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(Canon(*r1), Canon(*e));
  auto r3 = sys_.EvaluateOverStaging("q(d) :- soc.Reach3($s, d)",
                                     {{"$s", Value::Str("u0")}});
  ASSERT_TRUE(r3.ok());
  std::set<std::string> got = Canon(*r3);
  // From u0 within 3 hops: u1, u2, u3 along the cycle plus u4, u5 via
  // the u0->u3 chord (u0->u3->u4->u5).
  EXPECT_EQ(got.size(), 5u);
  for (const char* n : {"u1", "u2", "u3", "u4", "u5"}) {
    EXPECT_TRUE(got.count(StrCat("(\"", n, "\")"))) << n << " missing";
  }
  // Containment chain Reach1 ⊆ Reach2 ⊆ Reach3.
  auto r2 = sys_.EvaluateOverStaging("q(s, d) :- soc.Reach2(s, d)");
  auto r3all = sys_.EvaluateOverStaging("q(s, d) :- soc.Reach3(s, d)");
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3all.ok());
  std::set<std::string> c1 = Canon(*r1), c2 = Canon(*r2), c3 = Canon(*r3all);
  EXPECT_TRUE(std::includes(c2.begin(), c2.end(), c1.begin(), c1.end()));
  EXPECT_TRUE(std::includes(c3.begin(), c3.end(), c2.begin(), c2.end()));
}

TEST_F(GraphIslandTest, MaterializationPopulatesGraphStore) {
  DefineGraphFragments();
  EXPECT_TRUE(neo_.HasGraph("F_edge"));
  EXPECT_EQ(*neo_.RowCount("F_edge"), 7u);
  EXPECT_EQ(*neo_.RowCount("F_node"), 6u);
  // The container verifies against the view over staging.
  EXPECT_TRUE(sys_.VerifyFragment("F_edge").ok());
  EXPECT_TRUE(sys_.VerifyFragment("F_reach").ok());
}

TEST_F(GraphIslandTest, ExpansionQueriesDelegateToGraphStore) {
  DefineGraphFragments();
  auto res = sys_.Query("q(d) :- soc.Edge($s, l, d)",
                        {{"$s", Value::Str("u0")}});
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->rows.size(), 2u);  // u1 (follows) and u3 (blocks).
  ASSERT_TRUE(res->runtime_stats.per_store.count("neo"));
  const stores::StoreStats& neo_stats = res->runtime_stats.per_store["neo"];
  // Served by an adjacency bucket probe, not a scan.
  EXPECT_GE(neo_stats.index_lookups, 1u);
  EXPECT_EQ(neo_stats.rows_scanned, 0u);
  EXPECT_NE(res->plan_text.find("EXPAND"), std::string::npos);
}

TEST_F(GraphIslandTest, UnboundQueriesGraphScan) {
  DefineGraphFragments();
  auto res = sys_.Query("q(s, l, d) :- soc.Edge(s, l, d)");
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->rows.size(), 7u);
  EXPECT_NE(res->plan_text.find("GRAPH-SCAN"), std::string::npos);
}

TEST_F(GraphIslandTest, QueryBatteryMatchesOracle) {
  DefineGraphFragments();
  ASSERT_TRUE(
      sys_.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                          "postgres")
          .ok());
  const std::map<std::string, Value> params = {{"$s", Value::Str("u1")}};
  CheckQuery("q(d) :- soc.Edge($s, l, d)", params);
  CheckQuery("q(s, l, d) :- soc.Edge(s, l, d)");
  CheckQuery("q(d) :- soc.Reach3($s, d)", params);
  CheckQuery("q(v) :- soc.Edge($s, l, d), soc.NodeProp(d, 'name', v)",
             params);
  // The cross-model join: graph reachability x relational users.
  CheckQuery("q(d, n, c) :- soc.Reach3($s, d), mk.users(d, n, c)", params);
}

TEST_F(GraphIslandTest, GraphMatchFrontendEndToEnd) {
  DefineGraphFragments();
  frontend::GraphMatchSpec spec;
  spec.dataset = "soc";
  spec.nodes = {{"a", "User", {{"name", "'nu0'"}}}, {"b", "User", {}}};
  spec.edges = {{"a", "follows", "b", {}, 1}};
  spec.returns = {"b", "b.name"};
  auto res = sys_.QueryGraphMatch(spec);
  ASSERT_TRUE(res.ok()) << res.status();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][0], Value::Str("u1"));
  EXPECT_EQ(res->rows[0][1], Value::Str("nu1"));

  // Bounded path *1..3 lowers to Reach3 and is served by the graph store.
  frontend::GraphMatchSpec path;
  path.dataset = "soc";
  path.nodes = {{"a", "", {{"name", "'nu0'"}}}, {"b", "", {}}};
  path.edges = {{"a", "", "b", {}, 3}};
  path.returns = {"b"};
  auto preach = sys_.QueryGraphMatch(path);
  ASSERT_TRUE(preach.ok()) << preach.status();
  EXPECT_EQ(preach->rows.size(), 5u);

  // A hop bound beyond the registered encoding is a clean error.
  path.edges[0].max_hops = 9;
  EXPECT_EQ(sys_.QueryGraphMatch(path).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GraphIslandTest, InsertRowMaintainsGraphFragment) {
  DefineGraphFragments();
  ASSERT_TRUE(sys_.InsertRow("soc.Edge", {Value::Str("u5"),
                                          Value::Str("likes"),
                                          Value::Str("u2")})
                  .ok());
  EXPECT_EQ(*neo_.RowCount("F_edge"), 8u);
  CheckQuery("q(l, d) :- soc.Edge($s, l, d)", {{"$s", Value::Str("u5")}});
  auto res = sys_.Query("q(l, d) :- soc.Edge($s, l, d)",
                        {{"$s", Value::Str("u5")}});
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(Canon(res->rows).size(), 2u);  // follows->u0 and likes->u2.
  EXPECT_TRUE(sys_.VerifyFragment("F_edge").ok());
}

TEST_F(GraphIslandTest, DroppedGraphFragmentFreesContainer) {
  DefineGraphFragments();
  ASSERT_TRUE(sys_.DropFragment("F_edge").ok());
  EXPECT_FALSE(neo_.HasGraph("F_edge"));
}

}  // namespace
}  // namespace estocada
