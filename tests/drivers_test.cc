/// Store-driver conformance: for every store kind, a fragment is loaded,
/// appended to, read back, verified and point-queried, and every answer
/// must equal the staging ground truth. The data mixes integer and real
/// keys that compare equal, lists, bools, nulls and mixed-case multi-word
/// strings — the values whose encodings the drivers must not disturb.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "estocada/estocada.h"
#include "rewriting/materializer.h"

namespace estocada {
namespace {

using catalog::StoreKind;
using engine::Row;
using engine::Value;
using pivot::Adornment;

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const Value& x, const Value& y) { return Value::Compare(x, y) < 0; });
}

/// Rows in a canonical order, duplicates (under Value equality) dropped.
std::vector<Row> Distinct(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), RowLess);
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

std::string Show(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& r : rows) out += engine::RowToString(r) + " ";
  return out;
}

/// One point query and which positions of s.r it binds: key-value
/// fragments need the key (position 0) bound, text fragments the term
/// (position 1).
struct Probe {
  const char* query;
  bool binds_key;
  bool binds_value;
};

constexpr Probe kProbes[] = {
    // Keys: Int and Real spellings of one number address the same rows.
    {"q(v) :- s.r(1, v)", true, false},
    {"q(v) :- s.r(1.0, v)", true, false},
    {"q(v) :- s.r(2, v)", true, false},
    {"q(v) :- s.r(2.0, v)", true, false},
    {"q(v) :- s.r(2.5, v)", true, false},
    {"q(v) :- s.r(7, v)", true, false},
    {"q(v) :- s.r('Key Four', v)", true, false},
    {"q(v) :- s.r(99, v)", true, false},
    // A string that reads as a JSON list stays a string.
    {"q(v) :- s.r(11, v)", true, false},
    // Terms: matched exactly, never by their tokens.
    {"q(k) :- s.r(k, 'phone')", false, true},
    {"q(k) :- s.r(k, 'Phone')", false, true},
    {"q(k) :- s.r(k, 'phone!')", false, true},
    {"q(k) :- s.r(k, 'red phone')", false, true},
    {"q(k) :- s.r(k, 'Red Phone')", false, true},
    {"q(k) :- s.r(k, 'Mixed Case Words')", false, true},
    {"q(k) :- s.r(k, 'mixed case words')", false, true},
    {"q(k) :- s.r(k, 'b')", false, true},
    {"q(k) :- s.r(k, true)", false, true},
    {"q(k) :- s.r(k, 9)", false, true},
    {"q(k) :- s.r(k, '[2]')", false, true},
    // Null is a value like any other: it equals itself.
    {"q(k) :- s.r(k, null)", false, true},
    {"q() :- s.r(2, 'phone')", true, true},
    {"q() :- s.r(2.0, 'red phone')", true, true},
    {"q() :- s.r(2, 'Two Words')", true, true},
    // Whole extent and a repeated variable.
    {"q(k, v) :- s.r(k, v)", false, false},
    {"q(x) :- s.r(x, x)", false, false},
};

class DriverConformance : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    pivot::Schema schema;
    ASSERT_TRUE(schema.AddRelation("s.r", 2).ok());
    ASSERT_TRUE(sys_.RegisterSchema(schema).ok());
    ASSERT_TRUE(sys_.RegisterStore({"pg", StoreKind::kRelational, &rel_,
                                    nullptr, nullptr, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"redis", StoreKind::kKeyValue, nullptr,
                                    &kv_, nullptr, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"mongo", StoreKind::kDocument, nullptr,
                                    nullptr, &doc_, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"spark", StoreKind::kParallel, nullptr,
                                    nullptr, nullptr, &par_, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"solr", StoreKind::kText, nullptr,
                                    nullptr, nullptr, nullptr, &text_})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"neo", StoreKind::kGraph, nullptr,
                                    nullptr, nullptr, nullptr, nullptr,
                                    &graph_})
                    .ok());
  }

  static const char* StoreOf(StoreKind kind) {
    switch (kind) {
      case StoreKind::kRelational:
        return "pg";
      case StoreKind::kKeyValue:
        return "redis";
      case StoreKind::kDocument:
        return "mongo";
      case StoreKind::kParallel:
        return "spark";
      case StoreKind::kText:
        return "solr";
      case StoreKind::kGraph:
        return "neo";
    }
    return "";
  }

  stores::RelationalStore rel_;
  stores::KeyValueStore kv_;
  stores::DocumentStore doc_;
  stores::ParallelStore par_{2};
  stores::TextStore text_;
  stores::GraphStore graph_;
  Estocada sys_;
};

TEST_P(DriverConformance, LoadAppendReadVerifyQuery) {
  const StoreKind kind = GetParam();
  const std::string store = StoreOf(kind);
  // Staged before the fragment exists: loaded by materialization. Keys
  // are integers and values strings or null, so a store that pinned
  // column types to the loaded rows would reject the appends below.
  const std::vector<Row> loaded = {
      {Value::Int(1), Value::Str("phone")},
      {Value::Int(2), Value::Str("red")},
      {Value::Int(2), Value::Str("phone")},
      {Value::Int(3), Value::Str("red phone")},
      {Value::Int(1), Value::Str("Mixed Case Words")},
      {Value::Int(5), Value::Null()},
  };
  for (const Row& row : loaded) ASSERT_TRUE(sys_.LoadRow("s.r", row).ok());

  std::vector<Adornment> adornments;
  if (kind == StoreKind::kKeyValue) {
    adornments = {Adornment::kInput, Adornment::kFree};
  } else if (kind == StoreKind::kText) {
    adornments = {Adornment::kFree, Adornment::kInput};
  }
  ASSERT_TRUE(
      sys_.DefineFragment("F(k, v) :- s.r(k, v)", store, adornments, {0})
          .ok());

  // Appended through incremental maintenance (text rebuilds instead).
  const std::vector<Row> appended = {
      {Value::Real(2.5), Value::Str("b")},
      {Value::Real(2.0), Value::Str("Two Words")},
      {Value::Real(1.0), Value::Str("phone!")},
      {Value::Real(7.0), Value::Str("phone")},
      {Value::Int(4), Value::Bool(true)},
      {Value::Int(6), Value::List({Value::Int(1), Value::Str("a")})},
      {Value::Str("Key Four"),
       Value::List({Value::Real(1.5), Value::Bool(false)})},
      {Value::Int(8), Value::Int(8)},
      {Value::Int(9), Value::Real(9.0)},
      {Value::Int(10), Value::Null()},
      {Value::Null(), Value::Null()},
      {Value::Int(11), Value::Str("[2]")},
  };
  for (const Row& row : appended) {
    ASSERT_TRUE(sys_.InsertRow("s.r", row).ok()) << engine::RowToString(row);
  }

  // Verify: the container matches the staging truth.
  ASSERT_TRUE(sys_.VerifyFragment("F").ok()) << sys_.VerifyFragment("F");

  // Read back: the view extent.
  auto truth = sys_.EvaluateOverStaging("q(k, v) :- s.r(k, v)");
  ASSERT_TRUE(truth.ok()) << truth.status();
  auto read = rewriting::ReadReplicaRows(sys_.catalog(), "F", 0, 0);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(Distinct(*read), Distinct(*truth))
      << "read back: " << Show(Distinct(*read))
      << "\ntruth: " << Show(Distinct(*truth));

  // Point queries, each answered from the fragment's store.
  for (const Probe& probe : kProbes) {
    if (kind == StoreKind::kKeyValue && !probe.binds_key) continue;
    if (kind == StoreKind::kText && !probe.binds_value) continue;
    auto hybrid = sys_.Query(probe.query);
    ASSERT_TRUE(hybrid.ok()) << probe.query << ": " << hybrid.status();
    EXPECT_TRUE(hybrid->runtime_stats.per_store.count(store)) << probe.query;
    auto expected = sys_.EvaluateOverStaging(probe.query);
    ASSERT_TRUE(expected.ok()) << probe.query << ": " << expected.status();
    EXPECT_EQ(Distinct(hybrid->rows), Distinct(*expected))
        << probe.query << "\nhybrid: " << Show(Distinct(hybrid->rows))
        << "\nstaging: " << Show(Distinct(*expected));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DriverConformance, ::testing::ValuesIn(catalog::kAllStoreKinds),
    [](const ::testing::TestParamInfo<StoreKind>& info) {
      std::string name = catalog::StoreKindName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

/// A parallel fragment without input adornments indexes its
/// index_positions. An access uses that index when all of them are bound,
/// reads one partition when column 0 is bound, and scans every partition
/// otherwise; each answers like staging.
TEST(ParallelDriverTest, AccessPathFollowsTheBoundPositions) {
  pivot::Schema schema;
  ASSERT_TRUE(schema.AddRelation("s.t", 3).ok());
  Estocada sys;
  stores::ParallelStore par{2};
  ASSERT_TRUE(sys.RegisterSchema(schema).ok());
  ASSERT_TRUE(sys.RegisterStore({"spark", StoreKind::kParallel, nullptr,
                                 nullptr, nullptr, &par, nullptr})
                  .ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(sys.LoadRow("s.t", {Value::Int(i % 6),
                                    Value::Str(i % 4 ? "a" : "b"),
                                    Value::Int(i)})
                    .ok());
  }
  ASSERT_TRUE(
      sys.DefineFragment("F(k, c, v) :- s.t(k, c, v)", "spark", {}, {0, 1})
          .ok());
  ASSERT_TRUE(sys.InsertRow("s.t", {Value::Real(2.0), Value::Str("a"),
                                    Value::Int(99)})
                  .ok());
  const struct {
    const char* query;
    const char* access;
  } kCases[] = {
      {"q(v) :- s.t(2, 'a', v)", "INDEX-LOOKUP F (0,1)"},
      {"q(v) :- s.t(2.0, $c, v)", "INDEX-LOOKUP F (0,1)"},
      {"q(c, v) :- s.t(2, c, v)", "PARTITION-SCAN F"},
      {"q(k, v) :- s.t(k, 'b', v)", "PARALLEL-SCAN F"},
  };
  const std::map<std::string, Value> params = {{"$c", Value::Str("a")}};
  for (const auto& c : kCases) {
    auto hybrid = sys.Query(c.query, params);
    ASSERT_TRUE(hybrid.ok()) << c.query << ": " << hybrid.status();
    EXPECT_NE(hybrid->plan_text.find(c.access), std::string::npos)
        << c.query << "\n" << hybrid->plan_text;
    auto expected = sys.EvaluateOverStaging(c.query, params);
    ASSERT_TRUE(expected.ok()) << c.query << ": " << expected.status();
    EXPECT_FALSE(expected->empty()) << c.query;
    EXPECT_EQ(Distinct(hybrid->rows), Distinct(*expected))
        << c.query << "\nhybrid: " << Show(Distinct(hybrid->rows))
        << "\nstaging: " << Show(Distinct(*expected));
  }
}

}  // namespace
}  // namespace estocada
