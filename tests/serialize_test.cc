/// Catalog (de)serialization: checkpointing the Storage Descriptor
/// Manager and re-establishing a deployment from it.

#include "catalog/serialize.h"

#include <gtest/gtest.h>

#include "estocada/estocada.h"
#include "pivot/parser.h"

namespace estocada::catalog {
namespace {

using engine::Value;
using pivot::Adornment;

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pivot::Schema schema;
    ASSERT_TRUE(schema.AddRelation("R", 2).ok());
    ASSERT_TRUE(schema.AddRelation("S", 2).ok());
    ASSERT_TRUE(sys_.RegisterSchema(schema).ok());
    ASSERT_TRUE(sys_.RegisterStore({"pg", StoreKind::kRelational, &rel_,
                                    nullptr, nullptr, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"kv", StoreKind::kKeyValue, nullptr,
                                    &kv_, nullptr, nullptr, nullptr})
                    .ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(sys_.LoadRow("R", {Value::Int(i), Value::Int(i * 2)}).ok());
      ASSERT_TRUE(
          sys_.LoadRow("S", {Value::Int(i * 2), Value::Str("v")}).ok());
    }
  }

  stores::RelationalStore rel_;
  stores::KeyValueStore kv_;
  Estocada sys_;
};

TEST_F(SerializeTest, RoundTripPreservesDescriptors) {
  ASSERT_TRUE(sys_.DefineFragment("F(a, b) :- R(a, b)", "pg", {}, {0}).ok());
  ASSERT_TRUE(sys_.DefineFragment("K(b, v) :- S(b, v)", "kv",
                                  {Adornment::kInput, Adornment::kFree})
                  .ok());
  std::string text = sys_.ExportCatalogJson();
  // Parse back structurally.
  auto doc = json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("format")->string_value(), "estocada-catalog");
  ASSERT_EQ(doc->Find("fragments")->array().size(), 2u);

  // A fresh system (same stores + schema, new store instances) imports
  // the layout and answers queries identically.
  stores::RelationalStore rel2;
  stores::KeyValueStore kv2;
  Estocada sys2;
  pivot::Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 2).ok());
  ASSERT_TRUE(schema.AddRelation("S", 2).ok());
  ASSERT_TRUE(sys2.RegisterSchema(schema).ok());
  ASSERT_TRUE(sys2.RegisterStore({"pg", StoreKind::kRelational, &rel2,
                                  nullptr, nullptr, nullptr, nullptr})
                  .ok());
  ASSERT_TRUE(sys2.RegisterStore({"kv", StoreKind::kKeyValue, nullptr, &kv2,
                                  nullptr, nullptr, nullptr})
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sys2.LoadRow("R", {Value::Int(i), Value::Int(i * 2)}).ok());
    ASSERT_TRUE(sys2.LoadRow("S", {Value::Int(i * 2), Value::Str("v")}).ok());
  }
  ASSERT_TRUE(sys2.ImportCatalogJson(text).ok());
  EXPECT_TRUE(rel2.HasTable("F"));
  EXPECT_TRUE(kv2.HasCollection("K"));

  auto r1 = sys_.Query("q(b, v) :- R($a, b), S(b, v)",
                       {{"$a", Value::Int(3)}});
  auto r2 = sys2.Query("q(b, v) :- R($a, b), S(b, v)",
                       {{"$a", Value::Int(3)}});
  ASSERT_TRUE(r1.ok() && r2.ok()) << r1.status() << r2.status();
  ASSERT_EQ(r1->rows.size(), r2->rows.size());
  // The KV fragment's adornment survived: same rewriting chosen.
  EXPECT_EQ(r1->rewriting_text, r2->rewriting_text);
}

TEST_F(SerializeTest, StatisticsSerialized) {
  ASSERT_TRUE(sys_.DefineFragment("F(a, b) :- R(a, b)", "pg").ok());
  auto doc = json::Parse(sys_.ExportCatalogJson());
  ASSERT_TRUE(doc.ok());
  const auto& frag = doc->Find("fragments")->array()[0];
  EXPECT_EQ(frag.FindPath("stats.row_count")->int_value(), 10);
  EXPECT_EQ(frag.FindPath("stats.distinct")->array().size(), 2u);
}

TEST_F(SerializeTest, RejectsMalformedDocuments) {
  Catalog cat;
  auto not_catalog = json::Parse(R"({"format":"other"})");
  ASSERT_TRUE(not_catalog.ok());
  EXPECT_EQ(FragmentsFromJson(*not_catalog, &cat).code(),
            StatusCode::kInvalidArgument);
  auto no_fragments = json::Parse(R"({"format":"estocada-catalog"})");
  ASSERT_TRUE(no_fragments.ok());
  EXPECT_EQ(FragmentsFromJson(*no_fragments, &cat).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sys_.ImportCatalogJson("{broken").code(),
            StatusCode::kParseError);
  // A fragment referencing an unregistered store fails cleanly.
  auto bad_store = json::Parse(
      R"json({"format":"estocada-catalog","fragments":
          [{"view":"F(a, b) :- R(a, b)","store":"nope"}]})json");
  ASSERT_TRUE(bad_store.ok());
  EXPECT_EQ(sys_.ImportCatalogJson(bad_store->Serialize()).code(),
            StatusCode::kNotFound);
  // Partition counts: below 2, negative, absurdly large, or disagreeing
  // with the shards array are all refused before anything is allocated.
  const std::string shard_pg =
      R"({"replicas":[{"store":"pg","container":"","epoch":0}]})";
  const std::string two_shards = "[" + shard_pg + "," + shard_pg + "]";
  for (const auto& [count, shards] :
       std::vector<std::pair<std::string, std::string>>{
           {"100000000000", "[]"},
           {"-1", "[]"},
           {"0", "[]"},
           {"1", two_shards},
           {"3", two_shards}}) {
    SCOPED_TRACE(count);
    std::string text =
        R"j({"format":"estocada-catalog","fragments":[{"view":)j"
        R"j("P(a, b) :- R(a, b)","store":"pg","partition":)j"
        R"j({"kind":"hash","key_position":0,"shards":)j" +
        count + R"j(},"shards":)j" + shards + "}]}";
    EXPECT_EQ(sys_.ImportCatalogJson(text).code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(sys_.catalog().GetFragment("P").ok());
  }
}

/// Adornment counts and index positions address view-head columns:
/// registration refuses any that do not, through the API and through
/// catalog import alike, before a container is created.
TEST_F(SerializeTest, OutOfRangePositionsRejectedBeforeAnyContainer) {
  stores::DocumentStore docs;
  ASSERT_TRUE(sys_.RegisterStore({"mongo", StoreKind::kDocument, nullptr,
                                  nullptr, &docs, nullptr, nullptr})
                  .ok());
  const std::vector<Adornment> six(6, Adornment::kInput);
  EXPECT_EQ(sys_.DefineFragment("F(a, b) :- R(a, b)", "pg", six).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sys_.DefineFragment("F(a, b) :- R(a, b)", "pg", {}, {7}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      sys_.DefineFragment("F(a, b) :- R(a, b)", "mongo", {}, {7}).code(),
      StatusCode::kInvalidArgument);
  EXPECT_FALSE(rel_.HasTable("F"));
  EXPECT_FALSE(docs.HasCollection("F"));

  for (const std::string& extra :
       {std::string(R"("adornments":["in","in","in","in","in","in"])"),
        std::string(R"("index_positions":[7])")}) {
    SCOPED_TRACE(extra);
    for (const char* store : {"pg", "mongo"}) {
      std::string text =
          std::string(R"j({"format":"estocada-catalog","fragments":[)j") +
          R"j({"view":"F(a, b) :- R(a, b)","store":")j" + store + "\"," +
          extra + "}]}";
      EXPECT_EQ(sys_.ImportCatalogJson(text).code(),
                StatusCode::kInvalidArgument);
    }
  }
  EXPECT_FALSE(rel_.HasTable("F"));
  EXPECT_FALSE(docs.HasCollection("F"));
  EXPECT_FALSE(sys_.catalog().GetFragment("F").ok());
}

/// The on-disk catalog JSON of the plain + replicated + partitioned graph
/// layout built below. Export must match it byte for byte, so a change to
/// the descriptor model cannot move the file format unnoticed.
constexpr const char* kPinnedGraphCatalog = R"json({
  "format": "estocada-catalog",
  "fragments": [
    {
      "adornments": [],
      "container": "G",
      "index_positions": [],
      "stats": {
        "distinct": [
          8,
          1,
          8
        ],
        "row_count": 8
      },
      "store": "neo",
      "view": "G(s, l, d) :- soc.Edge(s, l, d)"
    },
    {
      "adornments": [],
      "container": "GP",
      "index_positions": [],
      "partition": {
        "key_position": 0,
        "kind": "hash",
        "shards": 2
      },
      "shards": [
        {
          "replicas": [
            {
              "container": "GP#p0",
              "epoch": 0,
              "store": "neo"
            }
          ],
          "write_epoch": 0
        },
        {
          "replicas": [
            {
              "container": "GP#p1",
              "epoch": 0,
              "store": "neo2"
            }
          ],
          "write_epoch": 0
        }
      ],
      "stats": {
        "distinct": [
          8,
          1,
          8
        ],
        "row_count": 8
      },
      "store": "neo",
      "view": "GP(s, l, d) :- soc.Edge(s, l, d)"
    },
    {
      "adornments": [],
      "container": "GR",
      "index_positions": [],
      "replicas": [
        {
          "container": "GR",
          "epoch": 0,
          "store": "neo"
        },
        {
          "container": "GR#r1",
          "epoch": 0,
          "store": "neo2"
        }
      ],
      "stats": {
        "distinct": [
          8,
          8
        ],
        "row_count": 16
      },
      "store": "neo",
      "view": "GR(s, d) :- soc.Reach2(s, d)",
      "write_epoch": 0
    }
  ],
  "version": 1
})json";

/// kGraph descriptors round-trip like every other kind: plain,
/// K-replicated, and hash-partitioned graph fragments re-import onto
/// fresh stores and re-export byte-identically.
TEST(GraphSerializeTest, GraphFragmentsRoundTripByteIdentical) {
  auto build = [](Estocada* sys, stores::GraphStore* a,
                  stores::GraphStore* b) {
    ASSERT_TRUE(sys->RegisterGraphDataset("soc", 2).ok());
    ASSERT_TRUE(sys->RegisterStore({"neo", StoreKind::kGraph, nullptr,
                                    nullptr, nullptr, nullptr, nullptr, a})
                    .ok());
    ASSERT_TRUE(sys->RegisterStore({"neo2", StoreKind::kGraph, nullptr,
                                    nullptr, nullptr, nullptr, nullptr, b})
                    .ok());
    encoding::GraphData g;
    for (int i = 0; i < 8; ++i) {
      g.nodes.push_back({"n" + std::to_string(i), "User", {}});
      g.edges.push_back({"n" + std::to_string(i), "follows",
                         "n" + std::to_string((i + 1) % 8), {}});
    }
    ASSERT_TRUE(sys->LoadGraph("soc", g).ok());
  };

  stores::GraphStore neo, neo2;
  Estocada sys;
  build(&sys, &neo, &neo2);
  ASSERT_TRUE(
      sys.DefineFragment("G(s, l, d) :- soc.Edge(s, l, d)", "neo").ok());
  ASSERT_TRUE(sys.DefineReplicatedFragment("GR(s, d) :- soc.Reach2(s, d)",
                                           {"neo", "neo2"})
                  .ok());
  ASSERT_TRUE(sys.DefinePartitionedFragment(
                     "GP(s, l, d) :- soc.Edge(s, l, d)",
                     PartitionSpec::Kind::kHash, 0, {"neo", "neo2"})
                  .ok());
  std::string text = sys.ExportCatalogJson();
  EXPECT_EQ(text, kPinnedGraphCatalog);

  stores::GraphStore neo_b, neo2_b;
  Estocada sys2;
  build(&sys2, &neo_b, &neo2_b);
  ASSERT_TRUE(sys2.ImportCatalogJson(text).ok());
  EXPECT_TRUE(neo_b.HasGraph("G"));
  EXPECT_TRUE(neo_b.HasGraph("GR"));
  EXPECT_TRUE(neo2_b.HasGraph("GR#r1"));
  EXPECT_TRUE(neo_b.HasGraph("GP#p0"));
  EXPECT_TRUE(neo2_b.HasGraph("GP#p1"));
  EXPECT_EQ(sys2.ExportCatalogJson(), text);

  auto r1 = sys.Query("q(d) :- soc.Edge($s, l, d)",
                      {{"$s", Value::Str("n3")}});
  auto r2 = sys2.Query("q(d) :- soc.Edge($s, l, d)",
                       {{"$s", Value::Str("n3")}});
  ASSERT_TRUE(r1.ok() && r2.ok()) << r1.status() << r2.status();
  EXPECT_EQ(r1->rows, r2->rows);
  EXPECT_EQ(r1->rewriting_text, r2->rewriting_text);
}

TEST_F(SerializeTest, EmptyCatalogRoundTrips) {
  auto doc = json::Parse(sys_.ExportCatalogJson());
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->Find("fragments")->array().empty());
  Catalog cat;
  EXPECT_TRUE(FragmentsFromJson(*doc, &cat).ok());
}

}  // namespace
}  // namespace estocada::catalog
