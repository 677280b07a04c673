/// Incremental view maintenance: inserting data after fragments exist
/// keeps every store's fragment contents consistent with the staging
/// ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "common/strings.h"
#include "estocada/estocada.h"
#include "rewriting/materializer.h"

namespace estocada {
namespace {

using engine::Row;
using engine::Value;
using pivot::Adornment;

std::multiset<std::string> Canon(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& r : rows) out.insert(engine::RowToString(r));
  return out;
}

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pivot::Schema schema;
    ASSERT_TRUE(schema.AddRelation("R", 2).ok());
    ASSERT_TRUE(schema.AddRelation("S", 2).ok());
    ASSERT_TRUE(sys_.RegisterSchema(schema).ok());
    ASSERT_TRUE(sys_.RegisterStore({"pg", catalog::StoreKind::kRelational,
                                    &rel_, nullptr, nullptr, nullptr,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"kv", catalog::StoreKind::kKeyValue,
                                    nullptr, &kv_, nullptr, nullptr,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"mongo", catalog::StoreKind::kDocument,
                                    nullptr, nullptr, &doc_, nullptr,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"spark", catalog::StoreKind::kParallel,
                                    nullptr, nullptr, nullptr, &par_,
                                    nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"solr", catalog::StoreKind::kText,
                                    nullptr, nullptr, nullptr, nullptr,
                                    &text_})
                    .ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(sys_.LoadRow("R", {Value::Int(i), Value::Int(i + 10)}).ok());
      ASSERT_TRUE(
          sys_.LoadRow("S", {Value::Int(i + 10), Value::Str("s" + std::to_string(i))})
              .ok());
    }
  }

  /// Checks the hybrid answer equals the staging ground truth.
  void ExpectConsistent(const char* query,
                        std::map<std::string, Value> params = {}) {
    auto hybrid = sys_.Query(query, params);
    ASSERT_TRUE(hybrid.ok()) << query << ": " << hybrid.status();
    auto truth = sys_.EvaluateOverStaging(query, params);
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(Canon(hybrid->rows), Canon(*truth)) << query;
  }

  stores::RelationalStore rel_;
  stores::KeyValueStore kv_;
  stores::DocumentStore doc_;
  stores::ParallelStore par_{2};
  stores::TextStore text_;
  Estocada sys_;
};

TEST_F(MaintenanceTest, RelationalFragmentGrowsOnInsert) {
  ASSERT_TRUE(sys_.DefineFragment("F(a, b) :- R(a, b)", "pg").ok());
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(99), Value::Int(990)}).ok());
  EXPECT_EQ(*rel_.RowCount("F"), 6u);
  ExpectConsistent("q(a, b) :- R(a, b)");
  // Statistics track growth.
  EXPECT_EQ((*sys_.catalog().GetFragment("F"))->stats.row_count, 6u);
}

TEST_F(MaintenanceTest, KvFragmentGetsNewKey) {
  ASSERT_TRUE(sys_.DefineFragment("K(a, b) :- R(a, b)", "kv",
                                  {Adornment::kInput, Adornment::kFree})
                  .ok());
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(42), Value::Int(420)}).ok());
  auto r = sys_.Query("q(b) :- R($a, b)", {{"$a", Value::Int(42)}});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0], Value::Int(420));
}

TEST_F(MaintenanceTest, KvFragmentAppendsUnderExistingKey) {
  // Non-unique key: a second row under an existing key must append to the
  // payload, not overwrite it.
  ASSERT_TRUE(sys_.DefineFragment("K(a, b) :- R(a, b)", "kv",
                                  {Adornment::kInput, Adornment::kFree})
                  .ok());
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(0), Value::Int(777)}).ok());
  auto r = sys_.Query("q(b) :- R($a, b)", {{"$a", Value::Int(0)}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);  // Original (0,10) plus (0,777).
}

TEST_F(MaintenanceTest, JoinFragmentDeltaBothSides) {
  ASSERT_TRUE(sys_.DefineFragment("FJ(a, c) :- R(a, b), S(b, c)", "spark")
                  .ok());
  const char* q = "q(a, c) :- R(a, b), S(b, c)";
  ExpectConsistent(q);
  // Insert on the R side: joins with existing S rows.
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(7), Value::Int(12)}).ok());
  ExpectConsistent(q);
  // Insert on the S side: joins with existing R rows (incl. the new one).
  ASSERT_TRUE(sys_.InsertRow("S", {Value::Int(12), Value::Str("x")}).ok());
  ExpectConsistent(q);
  // A non-joining tuple adds nothing.
  size_t before = *par_.RowCount("FJ");
  ASSERT_TRUE(sys_.InsertRow("S", {Value::Int(999), Value::Str("y")}).ok());
  EXPECT_EQ(*par_.RowCount("FJ"), before);
  ExpectConsistent(q);
}

TEST_F(MaintenanceTest, NullValuedInsertReachesFragments) {
  // A null in an inserted row is pinned like any value: it equals itself,
  // so the row derives its view rows.
  ASSERT_TRUE(sys_.DefineFragment("F(a, b) :- R(a, b)", "pg").ok());
  ASSERT_TRUE(sys_.DefineFragment("FJ(a, c) :- R(a, b), S(b, c)", "spark")
                  .ok());
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(5), Value::Null()}).ok());
  ASSERT_TRUE(sys_.InsertRow("S", {Value::Int(10), Value::Null()}).ok());
  EXPECT_TRUE(sys_.VerifyFragment("F").ok()) << sys_.VerifyFragment("F");
  EXPECT_TRUE(sys_.VerifyFragment("FJ").ok()) << sys_.VerifyFragment("FJ");
  EXPECT_EQ(*rel_.RowCount("F"), 6u);
  ExpectConsistent("q(a, b) :- R(a, b)");
  ExpectConsistent("q(a, c) :- R(a, b), S(b, c)");
}

TEST_F(MaintenanceTest, SelfJoinViewDelta) {
  // Both occurrences of R must be pinned in turn.
  ASSERT_TRUE(sys_.DefineFragment("F2(a, c) :- R(a, b), R(b, c)", "pg").ok());
  // Create a 2-chain: (10, 20) joins with existing (0..4, 10..14).
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(10), Value::Int(20)}).ok());
  ExpectConsistent("q(a, c) :- R(a, b), R(b, c)");
  // And a tuple that joins on *both* sides at once.
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(20), Value::Int(0)}).ok());
  ExpectConsistent("q(a, c) :- R(a, b), R(b, c)");
}

TEST_F(MaintenanceTest, DocumentFragmentMaintained) {
  ASSERT_TRUE(sys_.DefineFragment("FD(a, b) :- R(a, b)", "mongo").ok());
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(55), Value::Int(56)}).ok());
  EXPECT_EQ(*doc_.Count("FD"), 6u);
  ExpectConsistent("q(b) :- R($a, b)", {{"$a", Value::Int(55)}});
}

TEST_F(MaintenanceTest, TextFragmentRebuilt) {
  pivot::Schema schema;
  ASSERT_TRUE(schema.AddRelation("T", 2).ok());
  ASSERT_TRUE(sys_.RegisterSchema(schema).ok());
  ASSERT_TRUE(sys_.LoadRow("T", {Value::Int(1), Value::Str("red lamp")}).ok());
  ASSERT_TRUE(sys_.DefineFragment("FT(d, w) :- T(d, w)", "solr",
                                  {Adornment::kFree, Adornment::kInput})
                  .ok());
  ASSERT_TRUE(
      sys_.InsertRow("T", {Value::Int(2), Value::Str("red lamp")}).ok());
  auto r = sys_.Query("q(d) :- T(d, 'red lamp')");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(MaintenanceTest, SelectionViewOnlyTakesMatchingTuples) {
  ASSERT_TRUE(sys_.DefineFragment("FS(a) :- R(a, 10)", "pg").ok());
  EXPECT_EQ(*rel_.RowCount("FS"), 1u);  // Only (0, 10).
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(8), Value::Int(10)}).ok());
  EXPECT_EQ(*rel_.RowCount("FS"), 2u);
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(9), Value::Int(11)}).ok());
  EXPECT_EQ(*rel_.RowCount("FS"), 2u);  // Non-matching tuple ignored.
  ExpectConsistent("q(a) :- R(a, 10)");
}

TEST_F(MaintenanceTest, InsertDocumentMaintainsPathFragments) {
  ASSERT_TRUE(sys_.RegisterDocumentCollection(
                      "d", "rev", {{"pid", true}, {"stars", true}})
                  .ok());
  auto doc1 = json::Parse(R"({"pid":1,"stars":5})");
  ASSERT_TRUE(doc1.ok());
  ASSERT_TRUE(sys_.LoadDocument("d", "rev", *doc1).ok());
  ASSERT_TRUE(sys_.DefineFragment(
                      "FR(i, p, s) :- d.rev.doc(i), d.rev.pid(i, p), "
                      "d.rev.stars(i, s)",
                      "pg")
                  .ok());
  EXPECT_EQ(*rel_.RowCount("FR"), 1u);
  auto doc2 = json::Parse(R"({"pid":2,"stars":4})");
  ASSERT_TRUE(doc2.ok());
  ASSERT_TRUE(sys_.InsertDocument("d", "rev", *doc2).ok());
  EXPECT_EQ(*rel_.RowCount("FR"), 1u + 1u);
  auto r = sys_.Query("q(p, s) :- d.rev.doc(i), d.rev.pid(i, p), "
                      "d.rev.stars(i, s)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(MaintenanceTest, DeleteRowRebuildsAffectedFragments) {
  ASSERT_TRUE(sys_.DefineFragment("F(a, b) :- R(a, b)", "pg").ok());
  ASSERT_TRUE(sys_.DefineFragment("FJ(a, c) :- R(a, b), S(b, c)", "spark")
                  .ok());
  ASSERT_TRUE(sys_.DeleteRow("R", {Value::Int(0), Value::Int(10)}).ok());
  EXPECT_EQ(*rel_.RowCount("F"), 4u);
  ExpectConsistent("q(a, b) :- R(a, b)");
  ExpectConsistent("q(a, c) :- R(a, b), S(b, c)");
  // Deleting a non-existent tuple reports kNotFound and changes nothing.
  EXPECT_EQ(sys_.DeleteRow("R", {Value::Int(0), Value::Int(10)}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(*rel_.RowCount("F"), 4u);
}

TEST_F(MaintenanceTest, DeleteThenInsertRoundTrips) {
  ASSERT_TRUE(sys_.DefineFragment("F(a, b) :- R(a, b)", "pg").ok());
  ASSERT_TRUE(sys_.DeleteRow("R", {Value::Int(1), Value::Int(11)}).ok());
  ASSERT_TRUE(sys_.InsertRow("R", {Value::Int(1), Value::Int(11)}).ok());
  ExpectConsistent("q(a, b) :- R(a, b)");
  EXPECT_EQ(*rel_.RowCount("F"), 5u);
}

TEST_F(MaintenanceTest, DuplicateDerivationsDoNotBreakAnswers) {
  // FJ can re-derive an existing row through the new tuple; answers must
  // stay sets regardless.
  ASSERT_TRUE(sys_.DefineFragment("FJ(a, c) :- R(a, b), S(b, c)", "pg").ok());
  ASSERT_TRUE(sys_.InsertRow("S", {Value::Int(10), Value::Str("s0")}).ok());
  // (0,10) x duplicate (10,'s0') re-derives (0,'s0').
  auto r = sys_.Query("q(a, c) :- R(a, b), S(b, c)");
  ASSERT_TRUE(r.ok());
  std::set<std::string> unique;
  for (const Row& row : r->rows) unique.insert(engine::RowToString(row));
  EXPECT_EQ(unique.size(), r->rows.size());  // No duplicate answers.
}

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const Value& x, const Value& y) { return Value::Compare(x, y) < 0; });
}

/// Rows in a canonical order, duplicates (under Value equality) dropped.
std::vector<Row> AsSet(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), RowLess);
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// A join key: Int and Real spellings of one number, null, or a list.
Value RandomKey(std::mt19937* rng) {
  const int k = static_cast<int>((*rng)() % 4);
  switch ((*rng)() % 6) {
    case 0:
      return Value::Null();
    case 1:
      return Value::List({Value::Int(k)});
    case 2:
    case 3:
      return Value::Real(k);
    default:
      return Value::Int(k);
  }
}

/// The same kinds of key as JSON text for a multikey document path: an
/// array stages one row per element, a nested array a list value.
std::string RandomJsonKey(std::mt19937* rng) {
  const int k = static_cast<int>((*rng)() % 4);
  switch ((*rng)() % 5) {
    case 0:
      return "null";
    case 1:
      return StrCat("[", k, ", [", (k + 1) % 4, "]]");
    case 2:
      return StrCat(k, ".0");
    default:
      return StrCat(k);
  }
}

TEST_F(MaintenanceTest, SeededInsertStreamKeepsFragmentsEqualToRebuild) {
  pivot::Schema schema;
  ASSERT_TRUE(schema.AddRelation("O", 3).ok());
  ASSERT_TRUE(schema.AddRelation("V", 3).ok());
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(sys_.RegisterSchema(schema).ok());
  ASSERT_TRUE(sys_.RegisterDocumentCollection(
                      "d", "rev", {{"pid", false}, {"stars", true}})
                  .ok());
  // The F_pjoin shape (orders ⋈ visits ⋈ a document path), a self-join
  // and a constant selection.
  const std::vector<std::pair<std::string, std::string>> views = {
      {"FP", "(u, p, i) :- O(o, u, p), V(u, p, d), d.rev.pid(i, p)"},
      {"FE", "(a, c) :- E(a, b), E(b, c)"},
      {"FC", "(o, u) :- O(o, u, 1)"},
  };
  const char* stores[] = {"spark", "pg", "mongo"};
  for (size_t v = 0; v < views.size(); ++v) {
    ASSERT_TRUE(
        sys_.DefineFragment(views[v].first + views[v].second, stores[v]).ok())
        << views[v].first;
  }

  std::mt19937 rng(15);
  std::vector<std::pair<std::string, Row>> inserted;
  for (int step = 0; step < 150; ++step) {
    const unsigned op = rng() % 5;
    if (op == 0 && !inserted.empty()) {
      // An exact duplicate of an earlier insert.
      const auto& [relation, row] = inserted[rng() % inserted.size()];
      ASSERT_TRUE(sys_.InsertRow(relation, row).ok()) << step;
    } else if (op == 1) {
      auto doc = json::Parse(StrCat(R"({"pid": )", RandomJsonKey(&rng),
                                    R"(, "stars": )", rng() % 3, "}"));
      ASSERT_TRUE(doc.ok()) << doc.status();
      ASSERT_TRUE(sys_.InsertDocument("d", "rev", *doc).ok()) << step;
    } else {
      std::pair<std::string, Row> insert;
      if (op == 2) {
        insert = {"O", {Value::Int(step), RandomKey(&rng), RandomKey(&rng)}};
      } else if (op == 3) {
        insert = {"V", {RandomKey(&rng), RandomKey(&rng), Value::Int(step)}};
      } else {
        insert = {"E", {RandomKey(&rng), RandomKey(&rng)}};
      }
      ASSERT_TRUE(sys_.InsertRow(insert.first, insert.second).ok())
          << step << ": " << engine::RowToString(insert.second);
      inserted.push_back(std::move(insert));
    }
    for (const auto& [name, body] : views) {
      Status st = sys_.VerifyFragment(name);
      ASSERT_TRUE(st.ok()) << "step " << step << ": " << st;
    }
  }

  // Each maintained fragment equals a fresh materialization of its view.
  for (size_t v = 0; v < views.size(); ++v) {
    const std::string fresh = views[v].first + "_fresh";
    ASSERT_TRUE(sys_.DefineFragment(fresh + views[v].second, stores[v]).ok())
        << fresh;
    auto maintained =
        rewriting::ReadReplicaRows(sys_.catalog(), views[v].first, 0, 0);
    auto rebuilt = rewriting::ReadReplicaRows(sys_.catalog(), fresh, 0, 0);
    ASSERT_TRUE(maintained.ok()) << maintained.status();
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_FALSE(rebuilt->empty()) << fresh;
    EXPECT_EQ(AsSet(*maintained), AsSet(*rebuilt)) << views[v].first;
  }
}

}  // namespace
}  // namespace estocada
