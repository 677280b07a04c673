#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "engine/value.h"
#include "stores/document_store.h"
#include "stores/fault.h"
#include "stores/graph_store.h"
#include "stores/kv_store.h"
#include "stores/open_hash.h"
#include "stores/parallel_store.h"
#include "stores/relational_store.h"
#include "stores/text_store.h"

namespace estocada::stores {
namespace {

using ::estocada::StrCat;
using engine::Row;
using engine::Value;

// ---------------------------------------------------------------- Value --

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value::Int(7).int_value(), 7);
  EXPECT_EQ(Value::Str("x").string_value(), "x");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_DOUBLE_EQ(Value::Real(2.5).real_value(), 2.5);
  Value l = Value::List({Value::Int(1), Value::Str("a")});
  EXPECT_EQ(l.list().size(), 2u);
}

TEST(ValueTest, NumericCrossKindEquality) {
  // SQL semantics: 1 == 1.0.
  EXPECT_EQ(Value::Int(1), Value::Real(1.0));
  EXPECT_LT(Value::Int(1), Value::Real(1.5));
  EXPECT_EQ(Value::Int(1).Hash(), Value::Real(1.0).Hash());
}

TEST(ValueTest, ListCompareLexicographic) {
  Value a = Value::List({Value::Int(1), Value::Int(2)});
  Value b = Value::List({Value::Int(1), Value::Int(3)});
  Value c = Value::List({Value::Int(1)});
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);
  EXPECT_EQ(a, Value::List({Value::Int(1), Value::Int(2)}));
}

TEST(ValueTest, CopyOnWriteLists) {
  Value a = Value::List({Value::Int(1)});
  Value b = a;
  b.mutable_list().push_back(Value::Int(2));
  EXPECT_EQ(a.list().size(), 1u);
  EXPECT_EQ(b.list().size(), 2u);
}

TEST(ValueTest, JsonRoundTrip) {
  auto j = json::Parse(R"({"a":[1,2.5,"x",true,null]})");
  ASSERT_TRUE(j.ok());
  Value v = Value::FromJson(*j);
  // Objects become key-sorted pair lists.
  ASSERT_TRUE(v.is_list());
  const auto& pair = v.list()[0].list();
  EXPECT_EQ(pair[0].string_value(), "a");
  EXPECT_EQ(pair[1].list().size(), 5u);
  // Arrays round-trip exactly.
  json::JsonValue back = pair[1].ToJson();
  EXPECT_EQ(back.Serialize(), "[1,2.5,\"x\",true,null]");
}

TEST(ValueTest, ConstantRoundTrip) {
  for (const Value& v :
       {Value::Null(), Value::Bool(false), Value::Int(-3), Value::Real(0.5),
        Value::Str("hello")}) {
    EXPECT_EQ(Value::FromConstant(v.ToConstant()), v) << v.ToString();
  }
  // Lists degrade to JSON strings in the scalar pivot model.
  EXPECT_EQ(Value::List({Value::Int(1)}).ToConstant().string_value(), "[1]");
}

// ----------------------------------------------------- RelationalStore --

class RelStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_
                    .CreateTable("users",
                                 {{"uid", ColumnType::kInt},
                                  {"name", ColumnType::kStr},
                                  {"city", ColumnType::kStr}},
                                 {"uid"})
                    .ok());
    ASSERT_TRUE(store_
                    .CreateTable("orders", {{"oid", ColumnType::kInt},
                                            {"uid", ColumnType::kInt},
                                            {"total", ColumnType::kReal}})
                    .ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store_
                      .Insert("users", {Value::Int(i),
                                        Value::Str("user" + std::to_string(i)),
                                        Value::Str(i % 2 ? "paris" : "lyon")})
                      .ok());
    }
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(store_
                      .Insert("orders", {Value::Int(i), Value::Int(i % 20),
                                         Value::Real(i * 1.5)})
                      .ok());
    }
  }
  RelationalStore store_;
};

TEST_F(RelStoreTest, CreateDuplicateTableFails) {
  EXPECT_EQ(store_.CreateTable("users", {{"x", ColumnType::kInt}}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(RelStoreTest, InsertTypeChecked) {
  EXPECT_EQ(store_.Insert("users", {Value::Str("no"), Value::Str("a"),
                                    Value::Str("b")})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.Insert("users", {Value::Int(1)}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RelStoreTest, PrimaryKeyEnforced) {
  EXPECT_EQ(store_
                .Insert("users", {Value::Int(3), Value::Str("dup"),
                                  Value::Str("x")})
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(RelStoreTest, ScanReturnsAllRows) {
  auto rows = store_.Scan("users");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 20u);
  EXPECT_EQ(*store_.RowCount("orders"), 50u);
}

TEST_F(RelStoreTest, FilterQuery) {
  SpjQuery q;
  q.from.push_back({"users", "u"});
  q.select = {{"u", "uid"}, {"u", "name"}};
  q.filters.push_back({{"u", "city"}, Value::Str("paris")});
  auto rows = store_.Execute(q);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 10u);
  for (const Row& r : *rows) {
    EXPECT_EQ(r[0].int_value() % 2, 1);
  }
}

TEST_F(RelStoreTest, JoinQuery) {
  SpjQuery q;
  q.from = {{"users", "u"}, {"orders", "o"}};
  q.select = {{"u", "name"}, {"o", "total"}};
  q.joins.push_back({{"u", "uid"}, {"o", "uid"}});
  q.filters.push_back({{"u", "city"}, Value::Str("lyon")});
  auto rows = store_.Execute(q);
  ASSERT_TRUE(rows.ok()) << rows.status();
  // 10 lyon users x at least 2 orders each (50 orders over 20 users: 2-3).
  EXPECT_EQ(rows->size(), 25u);
}

TEST_F(RelStoreTest, IndexReducesScannedRows) {
  StoreStats no_index;
  SpjQuery q;
  q.from = {{"orders", "o"}};
  q.select = {{"o", "oid"}};
  q.filters.push_back({{"o", "uid"}, Value::Int(7)});
  ASSERT_TRUE(store_.Execute(q, &no_index).ok());
  ASSERT_TRUE(store_.CreateIndex("orders", "uid").ok());
  StoreStats with_index;
  auto rows = store_.Execute(q, &with_index);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // oid 7, 27, 47.
  EXPECT_LT(with_index.rows_scanned, no_index.rows_scanned);
  EXPECT_GE(with_index.index_lookups, 1u);
  EXPECT_LT(with_index.simulated_cost, no_index.simulated_cost);
}

TEST_F(RelStoreTest, IndexedJoinUsesIndex) {
  ASSERT_TRUE(store_.CreateIndex("orders", "uid").ok());
  SpjQuery q;
  q.from = {{"users", "u"}, {"orders", "o"}};
  q.select = {{"o", "oid"}};
  q.joins.push_back({{"u", "uid"}, {"o", "uid"}});
  q.filters.push_back({{"u", "uid"}, Value::Int(5)});
  StoreStats stats;
  auto rows = store_.Execute(q, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  // Without indexes this would scan 20 + 50 rows; with the join index the
  // orders side only examines matching rows.
  EXPECT_LT(stats.rows_scanned, 30u);
}

TEST_F(RelStoreTest, ErrorsOnUnknownEntities) {
  EXPECT_EQ(store_.Scan("nope").status().code(), StatusCode::kNotFound);
  SpjQuery q;
  q.from = {{"users", "u"}};
  q.select = {{"u", "nope"}};
  EXPECT_EQ(store_.Execute(q).status().code(), StatusCode::kNotFound);
  q.select = {{"x", "uid"}};
  EXPECT_EQ(store_.Execute(q).status().code(), StatusCode::kNotFound);
}

TEST_F(RelStoreTest, SqlRendering) {
  SpjQuery q;
  q.from = {{"users", "u"}, {"orders", "o"}};
  q.select = {{"u", "name"}};
  q.joins.push_back({{"u", "uid"}, {"o", "uid"}});
  q.filters.push_back({{"u", "city"}, Value::Str("paris")});
  EXPECT_EQ(q.ToString(),
            "SELECT u.name FROM users u, orders o "
            "WHERE u.uid = o.uid AND u.city = 'paris'");
}

TEST_F(RelStoreTest, DuplicateAliasRejected) {
  SpjQuery q;
  q.from = {{"users", "u"}, {"orders", "u"}};
  q.select = {{"u", "uid"}};
  EXPECT_EQ(store_.Execute(q).status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- KeyValueStore --

TEST(KvStoreTest, PutGetDelete) {
  KeyValueStore kv;
  ASSERT_TRUE(kv.CreateCollection("carts").ok());
  ASSERT_TRUE(kv.Put("carts", "u1", "{\"items\":[1,2]}").ok());
  auto got = kv.Get("carts", "u1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "{\"items\":[1,2]}");
  EXPECT_EQ(kv.Get("carts", "u2").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(kv.Delete("carts", "u1").ok());
  EXPECT_EQ(kv.Get("carts", "u1").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(kv.Delete("carts", "u1").code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, PutOverwrites) {
  KeyValueStore kv;
  ASSERT_TRUE(kv.CreateCollection("c").ok());
  ASSERT_TRUE(kv.Put("c", "k", "v1").ok());
  ASSERT_TRUE(kv.Put("c", "k", "v2").ok());
  EXPECT_EQ(*kv.Get("c", "k"), "v2");
  EXPECT_EQ(*kv.Size("c"), 1u);
}

TEST(KvStoreTest, MGetPreservesOrderAndGaps) {
  KeyValueStore kv;
  ASSERT_TRUE(kv.CreateCollection("c").ok());
  ASSERT_TRUE(kv.Put("c", "a", "1").ok());
  ASSERT_TRUE(kv.Put("c", "b", "2").ok());
  auto got = kv.MGet("c", {"b", "missing", "a"});
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 3u);
  EXPECT_EQ(*(*got)[0], "2");
  EXPECT_FALSE((*got)[1].has_value());
  EXPECT_EQ(*(*got)[2], "1");
}

TEST(KvStoreTest, MGetIsOneOperation) {
  KeyValueStore kv;
  ASSERT_TRUE(kv.CreateCollection("c").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(kv.Put("c", std::to_string(i), "v").ok());
  }
  StoreStats stats;
  ASSERT_TRUE(kv.MGet("c", {"1", "2", "3", "4"}, &stats).ok());
  EXPECT_EQ(stats.operations, 1u);
  EXPECT_EQ(stats.index_lookups, 4u);
}

TEST(KvStoreTest, ScanCostsProportionally) {
  KeyValueStore kv;
  ASSERT_TRUE(kv.CreateCollection("c").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(kv.Put("c", std::to_string(i), "v").ok());
  }
  StoreStats get_stats;
  ASSERT_TRUE(kv.Get("c", "5", &get_stats).ok());
  StoreStats scan_stats;
  auto all = kv.Scan("c", &scan_stats);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 100u);
  EXPECT_GT(scan_stats.simulated_cost, get_stats.simulated_cost);
}

TEST(KvStoreTest, CollectionLifecycle) {
  KeyValueStore kv;
  EXPECT_EQ(kv.Put("c", "k", "v").code(), StatusCode::kNotFound);
  ASSERT_TRUE(kv.CreateCollection("c").ok());
  EXPECT_EQ(kv.CreateCollection("c").code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(kv.DropCollection("c").ok());
  EXPECT_FALSE(kv.HasCollection("c"));
}

// ------------------------------------------------------- DocumentStore --

class DocStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateCollection("products").ok());
    for (int i = 0; i < 30; ++i) {
      auto doc = json::Parse(StrCat(
          R"({"_id":"p)", i, R"(","name":"product)", i,
          R"(","price":)", (i % 10) * 10, R"(,"category":")",
          (i % 3 == 0 ? "home" : "garden"), R"(","tags":["t)", i % 5,
          R"(","all"]})"));
      ASSERT_TRUE(doc.ok()) << doc.status();
      ASSERT_TRUE(store_.Insert("products", *doc).ok());
    }
  }
  DocumentStore store_;
};

TEST_F(DocStoreTest, FindByIdAndGeneratedIds) {
  auto doc = store_.FindById("products", "p3");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("name")->string_value(), "product3");
  // A document without _id gets one generated.
  auto inserted = store_.Insert("products", *json::Parse(R"({"name":"x"})"));
  ASSERT_TRUE(inserted.ok());
  EXPECT_FALSE(inserted->empty());
  auto again = store_.FindById("products", *inserted);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Find("name")->string_value(), "x");
}

TEST_F(DocStoreTest, DuplicateIdRejected) {
  EXPECT_EQ(store_.Insert("products", *json::Parse(R"({"_id":"p3"})")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DocStoreTest, FindWithEqualityPredicate) {
  auto docs = store_.Find(
      "products", {{"category", DocOp::kEq, json::JsonValue::Str("home")}});
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 10u);
}

TEST_F(DocStoreTest, FindWithRangeAndConjunction) {
  auto docs = store_.Find(
      "products",
      {{"price", DocOp::kGe, json::JsonValue::Int(50)},
       {"category", DocOp::kEq, json::JsonValue::Str("garden")}});
  ASSERT_TRUE(docs.ok());
  for (const auto& d : *docs) {
    EXPECT_GE(d.Find("price")->as_double(), 50.0);
    EXPECT_EQ(d.Find("category")->string_value(), "garden");
  }
  EXPECT_FALSE(docs->empty());
}

TEST_F(DocStoreTest, ArrayPredicatesAreMultikey) {
  auto docs = store_.Find(
      "products", {{"tags", DocOp::kEq, json::JsonValue::Str("t2")}});
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 6u);  // i % 5 == 2 over 30 docs.
}

TEST_F(DocStoreTest, PathIndexReducesScans) {
  StoreStats before;
  ASSERT_TRUE(store_
                  .Find("products", {{"category", DocOp::kEq,
                                      json::JsonValue::Str("home")}},
                        &before)
                  .ok());
  ASSERT_TRUE(store_.CreatePathIndex("products", "category").ok());
  StoreStats after;
  auto docs = store_.Find(
      "products", {{"category", DocOp::kEq, json::JsonValue::Str("home")}},
      &after);
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 10u);
  EXPECT_LT(after.rows_scanned, before.rows_scanned);
}

TEST_F(DocStoreTest, RemoveMaintainsIndexes) {
  ASSERT_TRUE(store_.CreatePathIndex("products", "category").ok());
  ASSERT_TRUE(store_.Remove("products", "p0").ok());
  auto docs = store_.Find(
      "products", {{"category", DocOp::kEq, json::JsonValue::Str("home")}});
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 9u);
  EXPECT_EQ(store_.FindById("products", "p0").status().code(),
            StatusCode::kNotFound);
}

TEST_F(DocStoreTest, NestedPathPredicates) {
  ASSERT_TRUE(store_.CreateCollection("users").ok());
  ASSERT_TRUE(store_
                  .Insert("users", *json::Parse(
                                       R"({"_id":"u1","address":{"city":"paris"}})"))
                  .ok());
  auto docs = store_.Find(
      "users", {{"address.city", DocOp::kEq, json::JsonValue::Str("paris")}});
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 1u);
  // Missing path never matches.
  auto none = store_.Find(
      "users", {{"address.zip", DocOp::kEq, json::JsonValue::Str("75")}});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

// ------------------------------------------------------- ParallelStore --

class ParStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateRelation("visits", 3, 4).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(store_
                      .Insert("visits", {Value::Int(i % 50),
                                         Value::Str("cat" + std::to_string(i % 7)),
                                         Value::Int(i)})
                      .ok());
    }
  }
  ParallelStore store_{4};
};

TEST_F(ParStoreTest, ParallelScanAllRows) {
  auto rows = store_.ParallelScan("visits", nullptr);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 200u);
}

TEST_F(ParStoreTest, FilteredScanWithProjection) {
  auto rows = store_.ParallelScan(
      "visits",
      [](const Row& r) { return r[1] == Value::Str("cat3"); }, {0, 2});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 29u);  // ceil counts: i%7==3 over 0..199.
  for (const Row& r : *rows) EXPECT_EQ(r.size(), 2u);
}

TEST_F(ParStoreTest, ScanCostAmortizedByWorkers) {
  StoreStats stats;
  ASSERT_TRUE(store_.ParallelScan("visits", nullptr, {}, &stats).ok());
  EXPECT_EQ(stats.rows_scanned, 200u);
  // Effective per-row cost divided by 4 workers; plus launch overhead.
  EXPECT_GT(stats.simulated_cost, 59.0);
}

TEST_F(ParStoreTest, CompositeIndexLookup) {
  ASSERT_TRUE(store_.CreateIndex("visits", {0, 1}).ok());
  auto rows = store_.IndexLookup("visits", {0, 1},
                                 {Value::Int(3), Value::Str("cat3")});
  ASSERT_TRUE(rows.ok());
  // i%50==3 and i%7==3: i in {3, 108, ...} within 0..199 → i=3, 59? check:
  // i=3: cat3 ✓; i=53: cat4; i=103: cat5; i=153: cat6. Only i=3 (and 108?
  // 108%50=8). So exactly 1.
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][2].int_value(), 3);
}

TEST_F(ParStoreTest, IndexStaysFreshAcrossInserts) {
  ASSERT_TRUE(store_.CreateIndex("visits", {0}).ok());
  ASSERT_TRUE(
      store_.Insert("visits", {Value::Int(999), Value::Str("x"), Value::Int(0)})
          .ok());
  auto rows = store_.IndexLookup("visits", {0}, {Value::Int(999)});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(ParStoreTest, NestedValuesSupported) {
  ASSERT_TRUE(store_.CreateRelation("nested", 2, 2).ok());
  Value purchases = Value::List({Value::Str("p1"), Value::Str("p2")});
  ASSERT_TRUE(store_.Insert("nested", {Value::Int(1), purchases}).ok());
  auto rows = store_.ParallelScan("nested", nullptr);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1].list().size(), 2u);
}

TEST_F(ParStoreTest, ArityChecked) {
  EXPECT_EQ(store_.Insert("visits", {Value::Int(1)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.ParallelScan("visits", nullptr, {9}).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(ParStoreTest, PartitionScanReadsOnlyTheKeysPartition) {
  constexpr size_t kParts = 8;
  ASSERT_TRUE(store_.CreateRelation("mixed", 2, kParts).ok());
  const std::vector<Row> rows = {
      {Value::Int(1), Value::Str("a")},  {Value::Real(1.0), Value::Str("b")},
      {Value::Int(2), Value::Str("c")},  {Value::Null(), Value::Str("d")},
      {Value::Null(), Value::Str("e")},  {Value::Str("k"), Value::Str("f")},
      {Value::Str("1"), Value::Str("g")}, {Value::Int(3), Value::Str("h")},
      {Value::Real(2.5), Value::Str("i")}, {Value::Int(1), Value::Str("j")},
  };
  ASSERT_TRUE(store_.InsertBatch("mixed", rows).ok());
  for (const Value& key : {Value::Int(1), Value::Null(), Value::Str("k"),
                           Value::Int(2), Value::Int(42)}) {
    auto on_key = [&key](const Row& r) { return r[0] == key; };
    auto full = store_.ParallelScan("mixed", on_key);
    ASSERT_TRUE(full.ok());
    StoreStats stats;
    auto pruned = store_.PartitionScan("mixed", key, nullptr, &stats);
    ASSERT_TRUE(pruned.ok()) << pruned.status();
    std::multiset<std::string> want, got;
    for (const Row& r : *full) want.insert(engine::RowToString(r));
    for (const Row& r : *pruned) got.insert(engine::RowToString(r));
    EXPECT_EQ(got, want) << key;
    // Charged for the rows of the one partition it read.
    size_t partition_size = 0;
    for (const Row& r : rows) {
      partition_size += r[0].Hash() % kParts == key.Hash() % kParts;
    }
    EXPECT_EQ(stats.rows_scanned, partition_size) << key;
    EXPECT_LT(stats.rows_scanned, rows.size()) << key;
  }
  // Int(1) finds the Real(1.0) row too, but not the string "1".
  auto ones = store_.PartitionScan("mixed", Value::Int(1), nullptr);
  ASSERT_TRUE(ones.ok());
  std::multiset<std::string> got;
  for (const Row& r : *ones) got.insert(r[1].string_value());
  EXPECT_EQ(got, (std::multiset<std::string>{"a", "b", "j"}));
  // The predicate still applies.
  auto filtered = store_.PartitionScan(
      "mixed", Value::Null(),
      [](const Row& r) { return r[1] == Value::Str("e"); });
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->size(), 1u);
  EXPECT_EQ(store_.PartitionScan("nope", Value::Int(1), nullptr)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ParStoreTest, MissingIndexReported) {
  EXPECT_EQ(store_.IndexLookup("visits", {2}, {Value::Int(1)}).status().code(),
            StatusCode::kNotFound);
}

// ----------------------------------------------------------- TextStore --

class TextStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateCore("catalog").ok());
    ASSERT_TRUE(store_
                    .AddDocument("catalog", "p1",
                                 {{"name", "Red Table Lamp"},
                                  {"desc", "warm light for living rooms"}})
                    .ok());
    ASSERT_TRUE(store_
                    .AddDocument("catalog", "p2",
                                 {{"name", "Blue Desk Lamp"},
                                  {"desc", "bright light for desks"}})
                    .ok());
    ASSERT_TRUE(store_
                    .AddDocument("catalog", "p3",
                                 {{"name", "Red Carpet"},
                                  {"desc", "soft floor cover"}})
                    .ok());
  }
  TextStore store_;
};

TEST_F(TextStoreTest, TokenizeLowercasesAndSplits) {
  EXPECT_EQ(TextStore::Tokenize("Red-Table_Lamp 42!"),
            (std::vector<std::string>{"red", "table", "lamp", "42"}));
  EXPECT_TRUE(TextStore::Tokenize("  ...  ").empty());
}

TEST_F(TextStoreTest, SingleTermSearch) {
  auto ids = store_.Search("catalog", {"lamp"});
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<std::string>{"p1", "p2"}));
}

TEST_F(TextStoreTest, ConjunctiveSearchIntersects) {
  auto ids = store_.Search("catalog", {"red", "lamp"});
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<std::string>{"p1"}));
}

TEST_F(TextStoreTest, QueryTermsAreNormalized) {
  auto ids = store_.Search("catalog", {"RED!"});
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 2u);
}

TEST_F(TextStoreTest, NoHitsIsEmptyNotError) {
  auto ids = store_.Search("catalog", {"nonexistent"});
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids->empty());
}

TEST_F(TextStoreTest, GetDocumentReturnsStoredFields) {
  auto doc = store_.GetDocument("catalog", "p3");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("name"), "Red Carpet");
  EXPECT_EQ(store_.GetDocument("catalog", "nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(TextStoreTest, DuplicateDocRejected) {
  EXPECT_EQ(store_.AddDocument("catalog", "p1", {{"name", "x"}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(*store_.DocumentCount("catalog"), 3u);
}

TEST_F(TextStoreTest, EmptySearchRejected) {
  EXPECT_EQ(store_.Search("catalog", {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.Search("catalog", {"!!!"}).status().code(),
            StatusCode::kInvalidArgument);
}

/// Property: relational SPJ execution agrees with a trivial nested-loop
/// reference evaluation on random data.
class SpjProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpjProperty, MatchesReferenceEvaluation) {
  Rng rng(GetParam());
  RelationalStore store;
  ASSERT_TRUE(store
                  .CreateTable("A", {{"x", ColumnType::kInt},
                                     {"y", ColumnType::kInt}})
                  .ok());
  ASSERT_TRUE(store
                  .CreateTable("B", {{"y", ColumnType::kInt},
                                     {"z", ColumnType::kInt}})
                  .ok());
  std::vector<Row> a_rows, b_rows;
  for (int i = 0; i < 30; ++i) {
    Row ra{Value::Int(static_cast<int64_t>(rng.Uniform(6))),
           Value::Int(static_cast<int64_t>(rng.Uniform(6)))};
    ASSERT_TRUE(store.Insert("A", ra).ok());
    a_rows.push_back(ra);
    Row rb{Value::Int(static_cast<int64_t>(rng.Uniform(6))),
           Value::Int(static_cast<int64_t>(rng.Uniform(6)))};
    ASSERT_TRUE(store.Insert("B", rb).ok());
    b_rows.push_back(rb);
  }
  if (rng.Chance(0.5)) {
    ASSERT_TRUE(store.CreateIndex("B", "y").ok());
  }
  int64_t c = static_cast<int64_t>(rng.Uniform(6));
  SpjQuery q;
  q.from = {{"A", "a"}, {"B", "b"}};
  q.select = {{"a", "x"}, {"b", "z"}};
  q.joins.push_back({{"a", "y"}, {"b", "y"}});
  q.filters.push_back({{"a", "x"}, Value::Int(c)});
  auto got = store.Execute(q);
  ASSERT_TRUE(got.ok());
  std::multiset<std::pair<int64_t, int64_t>> expect, actual;
  for (const Row& ra : a_rows) {
    if (ra[0].int_value() != c) continue;
    for (const Row& rb : b_rows) {
      if (ra[1] == rb[0]) {
        expect.insert({ra[0].int_value(), rb[1].int_value()});
      }
    }
  }
  for (const Row& r : *got) {
    actual.insert({r[0].int_value(), r[1].int_value()});
  }
  EXPECT_EQ(actual, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpjProperty,
                         ::testing::Values(7, 14, 21, 28, 35, 42));

// -------------------------------------------------------- FaultInjector --

TEST(FaultInjectorTest, NoPlanMeansNoFaults) {
  FaultInjector injector(1);
  KeyValueStore kv;
  kv.AttachFaultInjector(&injector, "kv");
  ASSERT_TRUE(kv.CreateCollection("c").ok());
  ASSERT_TRUE(kv.Put("c", "k", "v").ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(kv.Get("c", "k").ok());
  }
  EXPECT_EQ(injector.counters().reads, 100u);
  EXPECT_EQ(injector.counters().transient_faults, 0u);
}

TEST(FaultInjectorTest, OutageFailsEveryReadWithUnavailable) {
  FaultInjector injector(1);
  KeyValueStore kv;
  kv.AttachFaultInjector(&injector, "redis");
  ASSERT_TRUE(kv.CreateCollection("c").ok());
  ASSERT_TRUE(kv.Put("c", "k", "v").ok());
  injector.SetOutage("redis", true);
  auto r = kv.Get("c", "k");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  // The store id is embedded so failures can be attributed to a store.
  EXPECT_NE(r.status().message().find("store 'redis'"), std::string::npos);
  injector.SetOutage("redis", false);
  EXPECT_TRUE(kv.Get("c", "k").ok());
}

TEST(FaultInjectorTest, TransientRateIsRoughlyHonored) {
  FaultInjector injector(7);
  RelationalStore pg;
  ASSERT_TRUE(pg.CreateTable("t", {{"a", ColumnType::kInt}}).ok());
  ASSERT_TRUE(pg.Insert("t", {Value::Int(1)}).ok());
  pg.AttachFaultInjector(&injector, "pg");
  FaultPlan plan;
  plan.transient_fault_rate = 0.25;
  injector.SetPlan("pg", plan);
  int failed = 0;
  for (int i = 0; i < 1000; ++i) {
    auto r = pg.Scan("t");
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      ++failed;
    }
  }
  // Seeded generator: the rate lands near 25% deterministically.
  EXPECT_GT(failed, 180);
  EXPECT_LT(failed, 320);
  EXPECT_EQ(injector.counters().transient_faults,
            static_cast<uint64_t>(failed));
}

TEST(FaultInjectorTest, FailNextReadsIsExact) {
  FaultInjector injector(1);
  DocumentStore doc;
  ASSERT_TRUE(doc.CreateCollection("c").ok());
  ASSERT_TRUE(doc.Insert("c", *json::Parse(R"({"_id":"1","x":1})")).ok());
  doc.AttachFaultInjector(&injector, "mongo");
  injector.FailNextReads("mongo", 2);
  EXPECT_EQ(doc.FindById("c", "1").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(doc.FindById("c", "1").status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(doc.FindById("c", "1").ok());
}

TEST(FaultInjectorTest, PlansArePerStore) {
  FaultInjector injector(1);
  KeyValueStore a;
  KeyValueStore b;
  a.AttachFaultInjector(&injector, "a");
  b.AttachFaultInjector(&injector, "b");
  for (KeyValueStore* kv : {&a, &b}) {
    ASSERT_TRUE(kv->CreateCollection("c").ok());
    ASSERT_TRUE(kv->Put("c", "k", "v").ok());
  }
  injector.SetOutage("a", true);
  EXPECT_FALSE(a.Get("c", "k").ok());
  EXPECT_TRUE(b.Get("c", "k").ok());
}

// ------------------------------------------- StoreStats null-guard sweep --
// Every read path must accept stats == nullptr (the engine passes real
// pointers, but ad-hoc callers and tests do not).

TEST(StoreStatsGuardTest, AllReadPathsAcceptNullStats) {
  RelationalStore pg;
  ASSERT_TRUE(pg.CreateTable("t", {{"a", ColumnType::kInt},
                                   {"b", ColumnType::kInt}})
                  .ok());
  ASSERT_TRUE(pg.Insert("t", {Value::Int(1), Value::Int(2)}).ok());
  EXPECT_TRUE(pg.Scan("t", nullptr).ok());

  KeyValueStore kv;
  ASSERT_TRUE(kv.CreateCollection("c").ok());
  ASSERT_TRUE(kv.Put("c", "k", "v").ok());
  EXPECT_TRUE(kv.Get("c", "k", nullptr).ok());
  EXPECT_TRUE(kv.MGet("c", {"k"}, nullptr).ok());
  EXPECT_TRUE(kv.Scan("c", nullptr).ok());

  DocumentStore doc;
  ASSERT_TRUE(doc.CreateCollection("d").ok());
  ASSERT_TRUE(doc.Insert("d", *json::Parse(R"({"_id":"1","x":1})")).ok());
  EXPECT_TRUE(doc.FindById("d", "1", nullptr).ok());
  EXPECT_TRUE(doc.Find("d", {}, nullptr).ok());

  ParallelStore spark(2);
  ASSERT_TRUE(spark.CreateRelation("p", 1, 2).ok());
  ASSERT_TRUE(spark.Insert("p", {Value::Int(1)}).ok());
  EXPECT_TRUE(spark.ParallelScan("p", nullptr, {}, nullptr).ok());

  TextStore solr;
  ASSERT_TRUE(solr.CreateCore("i").ok());
  ASSERT_TRUE(solr.AddDocument("i", "1", {{"body", "hello world"}}).ok());
  EXPECT_TRUE(solr.Search("i", {"hello"}, nullptr).ok());
  EXPECT_TRUE(solr.GetDocument("i", "1", nullptr).ok());

  GraphStore neo;
  ASSERT_TRUE(neo.CreateGraph("g", 3).ok());
  ASSERT_TRUE(neo.Insert("g", {Value::Str("a"), Value::Str("knows"),
                               Value::Str("b")})
                  .ok());
  EXPECT_TRUE(neo.Expand("g", ExpandDirection::kOut, Value::Str("a"),
                         std::nullopt, nullptr)
                  .ok());
  EXPECT_TRUE(neo.Match("g", {Value::Str("a"), std::nullopt, std::nullopt},
                        nullptr)
                  .ok());
  EXPECT_TRUE(neo.Scan("g", nullptr).ok());
}

TEST(StoreStatsGuardTest, StatsAreChargedWhenProvided) {
  KeyValueStore kv;
  ASSERT_TRUE(kv.CreateCollection("c").ok());
  ASSERT_TRUE(kv.Put("c", "k", "v").ok());
  StoreStats stats;
  ASSERT_TRUE(kv.Get("c", "k", &stats).ok());
  EXPECT_GT(stats.operations, 0u);
  EXPECT_GT(stats.simulated_cost, 0.0);
}

// ------------------------------------------------------------ GraphStore --

/// Loads a small labeled graph: a -> b -> c plus a second out-edge of a.
/// (GraphStore owns a mutex, so it is filled in place, not returned.)
void FillSmallGraph(GraphStore* neo) {
  ASSERT_TRUE(neo->CreateGraph("e", 3).ok());
  for (const auto& [s, l, d] :
       {std::tuple{"a", "follows", "b"}, {"b", "follows", "c"},
        {"a", "likes", "c"}}) {
    ASSERT_TRUE(
        neo->Insert("e", {Value::Str(s), Value::Str(l), Value::Str(d)})
            .ok());
  }
}

TEST(GraphStoreTest, CreateInsertExpand) {
  GraphStore neo;
  FillSmallGraph(&neo);
  EXPECT_TRUE(neo.HasGraph("e"));
  EXPECT_EQ(*neo.RowCount("e"), 3u);
  EXPECT_EQ(*neo.Arity("e"), 3u);
  auto out = neo.Expand("e", ExpandDirection::kOut, Value::Str("a"));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  auto in = neo.Expand("e", ExpandDirection::kIn, Value::Str("c"));
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->size(), 2u);
  auto labeled = neo.Expand("e", ExpandDirection::kOut, Value::Str("a"),
                            Value::Str("likes"));
  ASSERT_TRUE(labeled.ok());
  ASSERT_EQ(labeled->size(), 1u);
  EXPECT_EQ((*labeled)[0][2], Value::Str("c"));
  ASSERT_TRUE(neo.DropGraph("e").ok());
  EXPECT_FALSE(neo.HasGraph("e"));
}

TEST(GraphStoreTest, ExpandIsIndexProbeNotScan) {
  GraphStore neo;
  FillSmallGraph(&neo);
  StoreStats stats;
  ASSERT_TRUE(neo.Expand("e", ExpandDirection::kOut, Value::Str("a"),
                         Value::Str("follows"), &stats)
                  .ok());
  // One operation through the labeled composite index: nothing examined
  // beyond the bucket (no residual filter), one row back.
  EXPECT_EQ(stats.operations, 1u);
  EXPECT_EQ(stats.index_lookups, 1u);
  EXPECT_EQ(stats.rows_scanned, 0u);
  EXPECT_EQ(stats.rows_returned, 1u);
}

TEST(GraphStoreTest, PropertyLookupChargesResidualExamination) {
  // Property maps are graphs anchored by id: NodeProp(id, key, value).
  GraphStore neo;
  ASSERT_TRUE(neo.CreateGraph("p", 3).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(neo.Insert("p", {Value::Str("n1"),
                                 Value::Str("k" + std::to_string(i)),
                                 Value::Int(i)})
                    .ok());
  }
  // Anchored on the id with the *value* position also bound: the value is
  // not part of any index, so the store must examine the whole bucket.
  StoreStats stats;
  auto rows = neo.Match(
      "p", {Value::Str("n1"), std::nullopt, Value::Int(2)}, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_EQ(stats.operations, 1u);
  EXPECT_EQ(stats.index_lookups, 1u);
  EXPECT_EQ(stats.rows_scanned, 4u);  // The bucket, not the graph.
  EXPECT_EQ(stats.rows_returned, 1u);
}

TEST(GraphStoreTest, ScanCostsProportionally) {
  GraphStore neo;
  FillSmallGraph(&neo);
  StoreStats stats;
  auto rows = neo.Scan("e", &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ(stats.operations, 1u);
  EXPECT_EQ(stats.rows_scanned, 3u);
  EXPECT_EQ(stats.index_lookups, 0u);
  EXPECT_EQ(stats.rows_returned, 3u);
}

TEST(GraphStoreTest, ExpandIsCheaperThanScan) {
  GraphStore neo;
  ASSERT_TRUE(neo.CreateGraph("e", 3).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({Value::Str("s" + std::to_string(i % 50)),
                    Value::Str("follows"),
                    Value::Str("s" + std::to_string((i + 1) % 50))});
  }
  ASSERT_TRUE(neo.InsertBatch("e", std::move(rows)).ok());
  StoreStats expand, scan;
  ASSERT_TRUE(neo.Expand("e", ExpandDirection::kOut, Value::Str("s3"),
                         std::nullopt, &expand)
                  .ok());
  ASSERT_TRUE(neo.Scan("e", &scan).ok());
  EXPECT_LT(expand.simulated_cost, scan.simulated_cost);
  EXPECT_EQ(expand.rows_scanned, 0u);
  EXPECT_EQ(scan.rows_scanned, 200u);
}

TEST(GraphStoreTest, MatchPagePaginates) {
  GraphStore neo;
  ASSERT_TRUE(neo.CreateGraph("e", 2).ok());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(neo.Insert("e", {Value::Str("a"),
                                 Value::Str("d" + std::to_string(i))})
                    .ok());
  }
  size_t cursor = 0;
  std::vector<Row> all;
  StoreStats stats;
  bool more = true;
  size_t pages = 0;
  while (more) {
    std::vector<Row> page;
    auto r = neo.MatchPage("e", {Value::Str("a"), std::nullopt},
                           /*limit=*/3, &cursor, &page, &stats);
    ASSERT_TRUE(r.ok());
    more = *r;
    all.insert(all.end(), page.begin(), page.end());
    ++pages;
    ASSERT_LE(pages, 5u);
  }
  EXPECT_EQ(all.size(), 7u);
  // One operation per page; the bucket probe charged once, on page one.
  EXPECT_EQ(stats.operations, pages);
  EXPECT_EQ(stats.index_lookups, 1u);
  EXPECT_EQ(stats.rows_returned, 7u);
  // Paged and unpaged answers agree.
  auto whole = neo.Match("e", {Value::Str("a"), std::nullopt});
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(all, *whole);
}

TEST(GraphStoreTest, LifetimeStatsAccumulate) {
  GraphStore neo;
  FillSmallGraph(&neo);
  ASSERT_TRUE(
      neo.Expand("e", ExpandDirection::kOut, Value::Str("a")).ok());
  ASSERT_TRUE(neo.Scan("e").ok());
  StoreStats life = neo.lifetime_stats();
  // Insert batches + the two reads all landed in the lifetime counters.
  EXPECT_GE(life.operations, 5u);
  EXPECT_GT(life.simulated_cost, 0.0);
  EXPECT_GE(life.rows_returned, 5u);
}

TEST(GraphStoreTest, FaultInjectionCoversAllPaths) {
  FaultInjector injector(3);
  GraphStore neo;
  FillSmallGraph(&neo);
  neo.AttachFaultInjector(&injector, "neo");

  // Outage: every read and write refuses with kUnavailable.
  injector.SetOutage("neo", true);
  auto r = neo.Expand("e", ExpandDirection::kOut, Value::Str("a"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("store 'neo'"), std::string::npos);
  EXPECT_EQ(neo.Match("e", {std::nullopt, std::nullopt, std::nullopt})
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(neo.Scan("e").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(neo.Insert("e", {Value::Str("x"), Value::Str("l"),
                             Value::Str("y")})
                .code(),
            StatusCode::kUnavailable);
  injector.SetOutage("neo", false);
  EXPECT_TRUE(neo.Expand("e", ExpandDirection::kOut, Value::Str("a")).ok());

  // Fail-next-N: exactly two reads fail, the third succeeds.
  injector.FailNextReads("neo", 2);
  EXPECT_EQ(neo.Scan("e").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(neo.Scan("e").status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(neo.Scan("e").ok());

  // Transient faults: a seeded 25% rate lands near 25% deterministically.
  FaultPlan plan;
  plan.transient_fault_rate = 0.25;
  injector.SetPlan("neo", plan);
  int failed = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!neo.Scan("e").ok()) ++failed;
  }
  EXPECT_GT(failed, 180);
  EXPECT_LT(failed, 320);
}

// ----------------------------------------------------------- OpenHashMap --

TEST(OpenHashMapTest, PutFindEraseRoundTrip) {
  OpenHashMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.Put("a", "1"));
  EXPECT_FALSE(map.Put("a", "2"));  // upsert, not a new key
  ASSERT_NE(map.Find("a"), nullptr);
  EXPECT_EQ(*map.Find("a"), "2");
  EXPECT_EQ(map.Find("missing"), nullptr);
  EXPECT_TRUE(map.Erase("a"));
  EXPECT_FALSE(map.Erase("a"));
  EXPECT_EQ(map.Find("a"), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(OpenHashMapTest, TombstoneSlotIsReused) {
  OpenHashMap map;
  map.Put("k", "v1");
  map.Erase("k");
  // Re-inserting after the erase must land through the tombstone and the
  // lookup must find the live slot again.
  EXPECT_TRUE(map.Put("k", "v2"));
  ASSERT_NE(map.Find("k"), nullptr);
  EXPECT_EQ(*map.Find("k"), "v2");
  EXPECT_TRUE(map.Verify().ok());
}

TEST(OpenHashMapTest, GrowthPreservesAllKeys) {
  OpenHashMap map;
  constexpr int kN = 5000;  // forces several rehashes from the default size
  for (int i = 0; i < kN; ++i) {
    map.Put(StrCat("key", i), StrCat("val", i));
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    const std::string* v = map.Find(StrCat("key", i));
    ASSERT_NE(v, nullptr) << "key" << i;
    EXPECT_EQ(*v, StrCat("val", i));
  }
  EXPECT_TRUE(map.Verify().ok());
}

TEST(OpenHashMapTest, BulkLoadInsertsAndVerifies) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 2000; ++i) {
    entries.emplace_back(StrCat("k", i), StrCat("v", i));
  }
  // Duplicate key: last one wins, not counted as a new insert.
  entries.emplace_back("k0", "overwritten");
  OpenHashMap map;
  EXPECT_EQ(map.BulkLoad(entries), 2000u);
  EXPECT_EQ(map.size(), 2000u);
  ASSERT_NE(map.Find("k0"), nullptr);
  EXPECT_EQ(*map.Find("k0"), "overwritten");
  EXPECT_TRUE(map.Verify().ok());
}

TEST(OpenHashMapTest, ForEachVisitsEveryLiveEntry) {
  OpenHashMap map;
  for (int i = 0; i < 100; ++i) map.Put(StrCat("k", i), "v");
  for (int i = 0; i < 100; i += 2) map.Erase(StrCat("k", i));
  size_t seen = 0;
  map.ForEach([&](const std::string& key, const std::string&) {
    ++seen;
    EXPECT_EQ(map.Find(key) != nullptr, true);
  });
  EXPECT_EQ(seen, 50u);
}

TEST(OpenHashMapTest, ChurnKeepsProbeSequencesSound) {
  // Interleaved insert/erase churn accumulates tombstones; Verify must
  // stay green through growth triggered by used (live + tombstone) load.
  OpenHashMap map;
  Rng rng(7);
  std::map<std::string, std::string> model;
  for (int step = 0; step < 20000; ++step) {
    std::string key = StrCat("k", rng.Uniform(500));
    if (rng.Chance(0.4)) {
      map.Erase(key);
      model.erase(key);
    } else {
      std::string val = StrCat("v", step);
      map.Put(key, val);
      model[key] = val;
    }
  }
  EXPECT_EQ(map.size(), model.size());
  for (const auto& [key, val] : model) {
    const std::string* got = map.Find(key);
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(*got, val);
  }
  EXPECT_TRUE(map.Verify().ok());
}

TEST(KeyValueStoreTest, BulkLoadMatchesPutCharges) {
  // BulkLoad must charge exactly what k singleton Puts charge, so cost
  // gates watching simulated cost cannot drift when loaders switch over.
  KeyValueStore a, b;
  ASSERT_TRUE(a.CreateCollection("c").ok());
  ASSERT_TRUE(b.CreateCollection("c").ok());
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 50; ++i) entries.emplace_back(StrCat("k", i), "v");
  ASSERT_TRUE(a.BulkLoad("c", entries).ok());
  for (const auto& [k, v] : entries) ASSERT_TRUE(b.Put("c", k, v).ok());
  // One batched charge vs 50 incremental ones: identical up to FP
  // accumulation order.
  EXPECT_NEAR(a.lifetime_stats().simulated_cost,
              b.lifetime_stats().simulated_cost, 1e-9);
  for (const auto& [k, v] : entries) {
    auto got = a.Get("c", k);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

}  // namespace
}  // namespace estocada::stores
