#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "common/rng.h"
#include "engine/batch.h"
#include "engine/expr.h"
#include "engine/operator.h"
#include "engine/value.h"

namespace estocada::engine {
namespace {

OperatorPtr Rows(std::vector<std::string> cols, std::vector<Row> rows) {
  return std::make_unique<RowsOperator>(std::move(cols), std::move(rows));
}

std::vector<Row> MustCollect(Operator* op) {
  auto r = Collect(op);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(*r);
}

// ------------------------------------------------------------- RowToString --

TEST(RowToStringTest, StringNeverRendersLikeANumber) {
  EXPECT_NE(RowToString({Value::Str("1")}), RowToString({Value::Int(1)}));
  EXPECT_NE(RowToString({Value::Str("null")}), RowToString({Value::Null()}));
  EXPECT_EQ(RowToString({Value::Str("1"), Value::Int(1)}), "(\"1\", 1)");
}

TEST(RowToStringTest, StringNeverRendersLikeAList) {
  EXPECT_NE(RowToString({Value::Str("[2]")}),
            RowToString({Value::List({Value::Int(2)})}));
  EXPECT_EQ(RowToString({Value::List({Value::Str("a"), Value::Int(2)})}),
            "([\"a\", 2])");
  EXPECT_EQ(RowToString({Value::Str("say \"hi\"\\")}),
            "(\"say \\\"hi\\\"\\\\\")");
}

TEST(RowToStringTest, EqualNumbersRenderAlike) {
  EXPECT_EQ(RowToString({Value::Int(1)}), RowToString({Value::Real(1.0)}));
  EXPECT_EQ(RowToString({Value::Int(1000000)}),
            RowToString({Value::Real(1e6)}));
  EXPECT_NE(RowToString({Value::Int(1)}),
            RowToString({Value::Real(1.0000001)}));
  EXPECT_EQ(RowToString({Value::Real(0.1)}), "(0.1)");
}

// ------------------------------------------------------------------ Expr --

TEST(ExprTest, ColumnAndConst) {
  Row row{Value::Int(5), Value::Str("x")};
  EXPECT_EQ(*Expr::Column(0)->Eval(row), Value::Int(5));
  EXPECT_EQ(*Expr::Const(Value::Str("k"))->Eval(row), Value::Str("k"));
  EXPECT_EQ(Expr::Column(9)->Eval(row).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ExprTest, Comparisons) {
  Row row{Value::Int(5), Value::Int(7)};
  auto lt = Expr::Binary(Expr::Op::kLt, Expr::Column(0), Expr::Column(1));
  auto ge = Expr::Binary(Expr::Op::kGe, Expr::Column(0), Expr::Column(1));
  EXPECT_TRUE(*lt->EvalBool(row));
  EXPECT_FALSE(*ge->EvalBool(row));
  // A null equals only a null.
  Row with_null{Value::Null(), Value::Int(1)};
  auto eq = Expr::Binary(Expr::Op::kEq, Expr::Column(0), Expr::Column(1));
  EXPECT_FALSE(*eq->EvalBool(with_null));
}

TEST(ExprTest, BooleanConnectives) {
  Row row{Value::Int(1)};
  auto t = Expr::Binary(Expr::Op::kEq, Expr::Column(0),
                        Expr::Const(Value::Int(1)));
  auto f = Expr::Binary(Expr::Op::kEq, Expr::Column(0),
                        Expr::Const(Value::Int(2)));
  EXPECT_TRUE(*Expr::Binary(Expr::Op::kOr, f, t)->EvalBool(row));
  EXPECT_FALSE(*Expr::Binary(Expr::Op::kAnd, f, t)->EvalBool(row));
  EXPECT_TRUE(*Expr::Not(f)->EvalBool(row));
}

TEST(ExprTest, Arithmetic) {
  Row row{Value::Int(6), Value::Int(4), Value::Real(0.5)};
  auto add = Expr::Binary(Expr::Op::kAdd, Expr::Column(0), Expr::Column(1));
  EXPECT_EQ(*add->Eval(row), Value::Int(10));
  auto mixed = Expr::Binary(Expr::Op::kMul, Expr::Column(0), Expr::Column(2));
  EXPECT_EQ(*mixed->Eval(row), Value::Real(3.0));
  auto div = Expr::Binary(Expr::Op::kDiv, Expr::Column(0), Expr::Column(1));
  EXPECT_DOUBLE_EQ(div->Eval(row)->real_value(), 1.5);
  auto div0 = Expr::Binary(Expr::Op::kDiv, Expr::Column(0),
                           Expr::Const(Value::Int(0)));
  EXPECT_EQ(div0->Eval(row).status().code(), StatusCode::kInvalidArgument);
  auto bad = Expr::Binary(Expr::Op::kAdd, Expr::Column(0),
                          Expr::Const(Value::Bool(true)));
  EXPECT_FALSE(bad->Eval(row).ok());
}

TEST(ExprTest, StringConcat) {
  Row row{Value::Str("a"), Value::Str("b")};
  auto cat = Expr::Binary(Expr::Op::kAdd, Expr::Column(0), Expr::Column(1));
  EXPECT_EQ(*cat->Eval(row), Value::Str("ab"));
}

TEST(ExprTest, ToStringRendering) {
  auto e = Expr::Binary(Expr::Op::kAnd,
                        Expr::Binary(Expr::Op::kEq, Expr::Column(0),
                                     Expr::Const(Value::Int(1))),
                        Expr::Not(Expr::Column(1)));
  EXPECT_EQ(e->ToString(), "(($0 = 1) AND NOT($1))");
}

// ------------------------------------------------------------- Operators --

TEST(OperatorTest, RowsAndCollect) {
  auto op = Rows({"a"}, {{Value::Int(1)}, {Value::Int(2)}});
  auto rows = MustCollect(op.get());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], Value::Int(2));
  EXPECT_EQ(op->columns(), (std::vector<std::string>{"a"}));
}

TEST(OperatorTest, CallbackScanLazy) {
  int calls = 0;
  CallbackScanOperator op(
      {"x"},
      [&calls]() -> Result<std::vector<Row>> {
        ++calls;
        return std::vector<Row>{{Value::Int(9)}};
      },
      "kv.Get");
  EXPECT_EQ(calls, 0);
  auto rows = MustCollect(&op);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(9));
}

TEST(OperatorTest, CallbackScanPropagatesErrors) {
  CallbackScanOperator op(
      {"x"},
      []() -> Result<std::vector<Row>> {
        return Status::NotFound("gone");
      },
      "src");
  EXPECT_EQ(Collect(&op).status().code(), StatusCode::kNotFound);
}

TEST(OperatorTest, Filter) {
  auto pred = Expr::Binary(Expr::Op::kGt, Expr::Column(0),
                           Expr::Const(Value::Int(1)));
  FilterOperator op(Rows({"a"}, {{Value::Int(1)}, {Value::Int(2)},
                                 {Value::Int(3)}}),
                    pred);
  auto rows = MustCollect(&op);
  EXPECT_EQ(rows.size(), 2u);
}

TEST(OperatorTest, Project) {
  ProjectOperator op(
      Rows({"a", "b"}, {{Value::Int(2), Value::Int(3)}}), {"sum", "b"},
      {Expr::Binary(Expr::Op::kAdd, Expr::Column(0), Expr::Column(1)),
       Expr::Column(1)});
  auto rows = MustCollect(&op);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(5));
  EXPECT_EQ(op.columns(), (std::vector<std::string>{"sum", "b"}));
}

TEST(OperatorTest, LimitAndDistinct) {
  LimitOperator limited(
      Rows({"a"}, {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}}), 2);
  EXPECT_EQ(MustCollect(&limited).size(), 2u);

  DistinctOperator distinct(
      Rows({"a"}, {{Value::Int(1)}, {Value::Int(1)}, {Value::Int(2)}}));
  EXPECT_EQ(MustCollect(&distinct).size(), 2u);
}

TEST(OperatorTest, SortStableMultiColumn) {
  SortOperator op(Rows({"a", "b"}, {{Value::Int(2), Value::Str("x")},
                                    {Value::Int(1), Value::Str("z")},
                                    {Value::Int(1), Value::Str("a")}}),
                  {0, 1});
  auto rows = MustCollect(&op);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1], Value::Str("a"));
  EXPECT_EQ(rows[1][1], Value::Str("z"));
  EXPECT_EQ(rows[2][0], Value::Int(2));
}

TEST(OperatorTest, HashJoinMatchesPairs) {
  auto left = Rows({"uid", "name"}, {{Value::Int(1), Value::Str("ada")},
                                     {Value::Int(2), Value::Str("bob")}});
  auto right = Rows({"uid", "total"}, {{Value::Int(1), Value::Int(10)},
                                       {Value::Int(1), Value::Int(20)},
                                       {Value::Int(3), Value::Int(30)}});
  HashJoinOperator join(std::move(left), std::move(right), {{0, 0}});
  auto rows = MustCollect(&join);
  ASSERT_EQ(rows.size(), 2u);
  for (const Row& r : rows) {
    EXPECT_EQ(r[0], Value::Int(1));
    EXPECT_EQ(r[1], Value::Str("ada"));
  }
  EXPECT_EQ(join.columns(),
            (std::vector<std::string>{"uid", "name", "uid", "total"}));
}

TEST(OperatorTest, HashJoinCompositeKeys) {
  auto left = Rows({"a", "b"}, {{Value::Int(1), Value::Int(2)},
                                {Value::Int(1), Value::Int(3)}});
  auto right = Rows({"a", "b"}, {{Value::Int(1), Value::Int(2)}});
  HashJoinOperator join(std::move(left), std::move(right), {{0, 0}, {1, 1}});
  EXPECT_EQ(MustCollect(&join).size(), 1u);
}

TEST(OperatorTest, HashJoinCapsBatchesAndKeepsProbeMajorOrder) {
  // Three probe rows match 3000 build rows each: 9000 output rows, more
  // than one batch holds, split mid-chain.
  std::vector<Row> build;
  for (int64_t i = 0; i < 3000; ++i) {
    build.push_back({Value::Int(7), Value::Int(i)});
  }
  auto right = Rows({"k", "p"}, {{Value::Int(7), Value::Int(0)},
                                 {Value::Int(8), Value::Int(1)},
                                 {Value::Int(7), Value::Int(2)},
                                 {Value::Int(7), Value::Int(3)}});
  HashJoinOperator join(Rows({"k", "b"}, std::move(build)), std::move(right),
                        {{0, 0}});
  ASSERT_TRUE(join.Open().ok());
  RowBatch batch;
  std::vector<std::pair<int64_t, int64_t>> seen;  // (probe p, build b)
  for (;;) {
    auto more = join.NextBatch(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    EXPECT_LE(batch.size(), RowBatch::kMaxRows);
    for (size_t i = 0; i < batch.size(); ++i) {
      const uint32_t r = batch.ActiveIndex(i);
      seen.emplace_back(batch.column(3)[r].int_value(),
                        batch.column(1)[r].int_value());
    }
  }
  ASSERT_EQ(seen.size(), 9000u);
  for (size_t i = 0; i < seen.size(); ++i) {
    const int64_t probe = i < 3000 ? 0 : (i < 6000 ? 2 : 3);
    ASSERT_EQ(seen[i], std::make_pair(probe, static_cast<int64_t>(i % 3000)))
        << "output row " << i;
  }
}

TEST(OperatorTest, BindJoinFetchesPerBinding) {
  auto left = Rows({"uid"}, {{Value::Int(1)}, {Value::Int(2)},
                             {Value::Int(1)}});
  size_t calls = 0;
  BindJoinOperator op(
      std::move(left), {0}, {"cart"},
      [&calls](const Row& binding) -> Result<std::vector<Row>> {
        ++calls;
        if (binding[0] == Value::Int(2)) return std::vector<Row>{};
        return std::vector<Row>{{Value::Str("cart-of-" +
                                            binding[0].ToString())}};
      },
      "kv:carts");
  auto rows = MustCollect(&op);
  ASSERT_EQ(rows.size(), 2u);  // uid=2 has no cart; uid=1 appears twice.
  EXPECT_EQ(rows[0][1], Value::Str("cart-of-1"));
  // Memoized: only two distinct bindings -> two fetches.
  EXPECT_EQ(op.fetch_calls(), 2u);
  EXPECT_EQ(calls, 2u);
}

TEST(OperatorTest, BindJoinPropagatesFetchError) {
  BindJoinOperator op(
      Rows({"k"}, {{Value::Int(1)}}), {0}, {"v"},
      [](const Row&) -> Result<std::vector<Row>> {
        return Status::Unsupported("no such access");
      },
      "src");
  EXPECT_EQ(Collect(&op).status().code(), StatusCode::kUnsupported);
}

TEST(OperatorTest, UnionAllConcatenates) {
  std::vector<OperatorPtr> inputs;
  inputs.push_back(Rows({"a"}, {{Value::Int(1)}}));
  inputs.push_back(Rows({"a"}, {{Value::Int(2)}, {Value::Int(3)}}));
  UnionAllOperator op(std::move(inputs));
  EXPECT_EQ(MustCollect(&op).size(), 3u);
}

TEST(OperatorTest, NestGroupsIntoLists) {
  NestOperator op(Rows({"uid", "item"}, {{Value::Int(1), Value::Str("a")},
                                         {Value::Int(2), Value::Str("b")},
                                         {Value::Int(1), Value::Str("c")}}),
                  {0}, "items");
  auto rows = MustCollect(&op);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
  EXPECT_EQ(rows[0][1],
            Value::List({Value::Str("a"), Value::Str("c")}));
  EXPECT_EQ(rows[1][1], Value::List({Value::Str("b")}));
  EXPECT_EQ(op.columns(), (std::vector<std::string>{"uid", "items"}));
}

TEST(OperatorTest, NestMultipleRestColumnsBecomeTuples) {
  NestOperator op(Rows({"k", "x", "y"},
                       {{Value::Int(1), Value::Int(10), Value::Int(20)}}),
                  {0}, "pairs");
  auto rows = MustCollect(&op);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1],
            Value::List({Value::List({Value::Int(10), Value::Int(20)})}));
}

TEST(OperatorTest, UnnestInvertsNest) {
  NestOperator nest(Rows({"uid", "item"}, {{Value::Int(1), Value::Str("a")},
                                           {Value::Int(1), Value::Str("c")}}),
                    {0}, "items");
  auto nested = MustCollect(&nest);
  UnnestOperator unnest(Rows({"uid", "items"}, nested), 1);
  auto rows = MustCollect(&unnest);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Value::Str("a"));
  EXPECT_EQ(rows[1][1], Value::Str("c"));
}

TEST(OperatorTest, UnnestRejectsNonList) {
  UnnestOperator op(Rows({"a"}, {{Value::Int(1)}}), 0);
  EXPECT_EQ(Collect(&op).status().code(), StatusCode::kInvalidArgument);
}

TEST(OperatorTest, AggregateAllFunctions) {
  AggregateOperator op(
      Rows({"g", "v"},
           {{Value::Str("a"), Value::Int(1)},
            {Value::Str("a"), Value::Int(3)},
            {Value::Str("b"), Value::Int(10)}}),
      {0},
      {{AggFn::kCount, 0, "n"},
       {AggFn::kSum, 1, "s"},
       {AggFn::kMin, 1, "lo"},
       {AggFn::kMax, 1, "hi"},
       {AggFn::kAvg, 1, "mean"}});
  auto rows = MustCollect(&op);
  ASSERT_EQ(rows.size(), 2u);
  // Group "a".
  EXPECT_EQ(rows[0][0], Value::Str("a"));
  EXPECT_EQ(rows[0][1], Value::Int(2));
  EXPECT_EQ(rows[0][2], Value::Int(4));
  EXPECT_EQ(rows[0][3], Value::Int(1));
  EXPECT_EQ(rows[0][4], Value::Int(3));
  EXPECT_DOUBLE_EQ(rows[0][5].real_value(), 2.0);
  // Group "b".
  EXPECT_EQ(rows[1][1], Value::Int(1));
}

TEST(OperatorTest, AggregateGlobalGroup) {
  AggregateOperator op(Rows({"v"}, {{Value::Int(2)}, {Value::Int(4)}}), {},
                       {{AggFn::kSum, 0, "s"}});
  auto rows = MustCollect(&op);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(6));
}

TEST(OperatorTest, AggregateIgnoresNullsForAvg) {
  AggregateOperator op(
      Rows({"v"}, {{Value::Int(2)}, {Value::Null()}, {Value::Int(4)}}), {},
      {{AggFn::kAvg, 0, "m"}, {AggFn::kCount, 0, "n"}});
  auto rows = MustCollect(&op);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][0].real_value(), 3.0);
  EXPECT_EQ(rows[0][1], Value::Int(3));  // COUNT(*) counts all rows.
}

TEST(OperatorTest, ComposedPipeline) {
  // users join orders, filter total > 5, nest orders per user.
  auto users = Rows({"uid", "name"}, {{Value::Int(1), Value::Str("ada")},
                                      {Value::Int(2), Value::Str("bob")}});
  auto orders = Rows({"uid", "total"}, {{Value::Int(1), Value::Int(10)},
                                        {Value::Int(1), Value::Int(2)},
                                        {Value::Int(2), Value::Int(7)}});
  auto join = std::make_unique<HashJoinOperator>(
      std::move(users), std::move(orders),
      std::vector<std::pair<size_t, size_t>>{{0, 0}});
  auto filter = std::make_unique<FilterOperator>(
      std::move(join), Expr::Binary(Expr::Op::kGt, Expr::Column(3),
                                    Expr::Const(Value::Int(5))));
  auto project = std::make_unique<ProjectOperator>(
      std::move(filter), std::vector<std::string>{"name", "total"},
      std::vector<ExprPtr>{Expr::Column(1), Expr::Column(3)});
  NestOperator nest(std::move(project), {0}, "totals");
  auto rows = MustCollect(&nest);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Str("ada"));
  EXPECT_EQ(rows[0][1], Value::List({Value::Int(10)}));
}

// -------------------------------------------------- Batch boundaries --
// Streams are chunked at RowBatch::kDefaultRows (1024); these pin the
// edges: single-row streams, exactly one chunk, one chunk plus a spill
// row, empty relations, predicates that wipe out whole chunks, and the
// blocking and expanding operators whose output spans several chunks.

std::vector<Row> IntRows(int64_t n) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back({Value::Int(i)});
  return rows;
}

/// Drains `op` twice — the second Open must reset every operator's state —
/// and expects exactly `expected`, in order, both times.
void ExpectRows(Operator* op, const std::vector<Row>& expected) {
  for (int drain = 0; drain < 2; ++drain) {
    auto rows = Collect(op);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(*rows, expected) << "drain " << drain;
  }
}

/// Opens `op` and returns the size of every batch it delivers; each true
/// NextBatch return must carry at least one row.
std::vector<size_t> BatchSizes(Operator* op) {
  std::vector<size_t> sizes;
  EXPECT_TRUE(op->Open().ok());
  RowBatch batch;
  for (;;) {
    auto more = op->NextBatch(&batch);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    EXPECT_GE(batch.size(), 1u) << "true NextBatch return with 0 rows";
    sizes.push_back(batch.size());
  }
  return sizes;
}

TEST(BatchBoundaryTest, SingleRowStream) {
  auto op = Rows({"a"}, IntRows(1));
  ExpectRows(op.get(), IntRows(1));
}

TEST(BatchBoundaryTest, ExactlyOneBatch) {
  auto op = Rows({"a"}, IntRows(RowBatch::kDefaultRows));
  ExpectRows(op.get(), IntRows(RowBatch::kDefaultRows));
  EXPECT_EQ(BatchSizes(op.get()),
            std::vector<size_t>({RowBatch::kDefaultRows}));
}

TEST(BatchBoundaryTest, OneBatchPlusOne) {
  auto op = Rows({"a"}, IntRows(RowBatch::kDefaultRows + 1));
  ExpectRows(op.get(), IntRows(RowBatch::kDefaultRows + 1));
  EXPECT_EQ(BatchSizes(op.get()),
            std::vector<size_t>({RowBatch::kDefaultRows, 1}));
}

TEST(BatchBoundaryTest, EmptyRelation) {
  auto op = Rows({"a"}, {});
  ExpectRows(op.get(), {});
  RowBatch batch;
  ASSERT_TRUE(op->Open().ok());
  auto more = op->NextBatch(&batch);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(BatchBoundaryTest, EmptyRelationThroughJoinAndFilter) {
  auto join = std::make_unique<HashJoinOperator>(
      Rows({"a"}, {}), Rows({"b"}, IntRows(10)),
      std::vector<std::pair<size_t, size_t>>{{0, 0}});
  ExpectRows(join.get(), {});
  auto filter = std::make_unique<FilterOperator>(
      Rows({"a"}, {}),
      Expr::Binary(Expr::Op::kEq, Expr::Column(0), Expr::Const(Value::Int(1))));
  ExpectRows(filter.get(), {});
}

TEST(BatchBoundaryTest, SelectionDropsWholeBatches) {
  // 3 chunks of input; only the last row of the last chunk survives. A
  // true NextBatch return must carry >= 1 row, so the filter has to loop
  // past the all-dropped chunks instead of surfacing empty batches.
  const int64_t n = 3 * static_cast<int64_t>(RowBatch::kDefaultRows);
  auto filter = std::make_unique<FilterOperator>(
      Rows({"a"}, IntRows(n)),
      Expr::Binary(Expr::Op::kEq, Expr::Column(0),
                   Expr::Const(Value::Int(n - 1))));
  EXPECT_EQ(BatchSizes(filter.get()), std::vector<size_t>({1}));
  ExpectRows(filter.get(), {{Value::Int(n - 1)}});
}

TEST(BatchBoundaryTest, SelectionDropsEverything) {
  const int64_t n = 2 * static_cast<int64_t>(RowBatch::kDefaultRows);
  auto filter = std::make_unique<FilterOperator>(
      Rows({"a"}, IntRows(n)),
      Expr::Binary(Expr::Op::kLt, Expr::Column(0),
                   Expr::Const(Value::Int(0))));
  ExpectRows(filter.get(), {});
}

TEST(BatchBoundaryTest, JoinAcrossChunkBoundary) {
  // Probe side spans two chunks; every probe row matches one build row.
  const int64_t n = static_cast<int64_t>(RowBatch::kDefaultRows) + 7;
  std::vector<Row> probe;
  std::vector<Row> expected;
  for (int64_t i = 0; i < n; ++i) {
    probe.push_back({Value::Int(i % 50), Value::Int(i)});
    expected.push_back({Value::Int(i % 50), Value::Int(i % 50), Value::Int(i)});
  }
  auto join = std::make_unique<HashJoinOperator>(
      Rows({"k"}, IntRows(50)), Rows({"k2", "v2"}, probe),
      std::vector<std::pair<size_t, size_t>>{{0, 0}});
  ExpectRows(join.get(), expected);
}

TEST(BatchBoundaryTest, UnnestExpansionSpansChunks) {
  // 3 rows of 700-element lists: 2100 output rows, cut at kDefaultRows
  // in the middle of the second and third lists.
  std::vector<Row> nested;
  std::vector<Row> expected;
  for (int64_t r = 0; r < 3; ++r) {
    std::vector<Value> items;
    for (int64_t e = 0; e < 700; ++e) {
      items.push_back(Value::Int(r * 1000 + e));
      expected.push_back({Value::Int(r), Value::Int(r * 1000 + e)});
    }
    nested.push_back({Value::Int(r), Value::List(std::move(items))});
  }
  UnnestOperator unnest(Rows({"r", "items"}, nested), 1);
  EXPECT_EQ(BatchSizes(&unnest),
            std::vector<size_t>({RowBatch::kDefaultRows,
                                 RowBatch::kDefaultRows,
                                 2100 - 2 * RowBatch::kDefaultRows}));
  ExpectRows(&unnest, expected);
}

TEST(BatchBoundaryTest, SortOutputSpansChunks) {
  // 2 chunks plus 5 rows, keyed on a small domain so stability shows.
  const int64_t n = 2 * static_cast<int64_t>(RowBatch::kDefaultRows) + 5;
  std::vector<Row> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int((n - i) % 7), Value::Int(i)});
  }
  std::vector<Row> expected = rows;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Row& a, const Row& b) {
                     return a[0].int_value() < b[0].int_value();
                   });
  SortOperator sort(Rows({"k", "i"}, rows), {0});
  EXPECT_EQ(BatchSizes(&sort), std::vector<size_t>({RowBatch::kDefaultRows,
                                                    RowBatch::kDefaultRows,
                                                    5}));
  ExpectRows(&sort, expected);
}

TEST(BatchBoundaryTest, AggregateOutputSpansChunks) {
  // kDefaultRows + 300 groups of two rows each, in first-seen order.
  const int64_t groups = static_cast<int64_t>(RowBatch::kDefaultRows) + 300;
  std::vector<Row> rows;
  std::vector<Row> expected;
  for (int64_t g = 0; g < groups; ++g) {
    rows.push_back({Value::Int(g), Value::Int(1)});
    expected.push_back({Value::Int(g), Value::Int(2), Value::Int(g + 1)});
  }
  for (int64_t g = 0; g < groups; ++g) {
    rows.push_back({Value::Int(g), Value::Int(g)});
  }
  AggregateOperator agg(Rows({"g", "v"}, rows), {0},
                        {{AggFn::kCount, 0, "n"}, {AggFn::kSum, 1, "s"}});
  EXPECT_EQ(BatchSizes(&agg),
            std::vector<size_t>({RowBatch::kDefaultRows, 300}));
  ExpectRows(&agg, expected);
}

TEST(BatchBoundaryTest, UnionAllStaysExhaustedAfterEndOfStream) {
  // Pulls past the end must keep returning false, not index past the
  // last input.
  std::vector<OperatorPtr> inputs;
  inputs.push_back(Rows({"a"}, IntRows(2)));
  UnionAllOperator op(std::move(inputs));
  ASSERT_TRUE(op.Open().ok());
  RowBatch batch;
  for (bool expect_more : {true, false, false}) {
    auto more = op.NextBatch(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    EXPECT_EQ(*more, expect_more);
  }
  ExpectRows(&op, IntRows(2));
}

// ---------------------------------------------- Seeded differential --
// Random small tables composed under random operator trees. Each
// generated plan carries the rows it must produce, computed alongside it
// by plain loops over the inputs' expected rows, so no engine operator is
// its own oracle. Row *order* is asserted exactly.

/// A generated operator tree and its expected output.
struct Plan {
  OperatorPtr op;
  std::vector<Row> expected;
  size_t arity = 0;
};

Row Concat(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Plan RandomSource(Rng* rng) {
  Plan plan;
  plan.arity = 1 + rng->Uniform(3);
  const size_t n = rng->Uniform(60);  // includes empty relations
  std::vector<std::string> cols;
  for (size_t c = 0; c < plan.arity; ++c) {
    cols.push_back("c" + std::to_string(c));
  }
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (size_t c = 0; c < plan.arity; ++c) {
      // Small domain so joins and filters actually hit.
      row.push_back(Value::Int(static_cast<int64_t>(rng->Uniform(8))));
    }
    plan.expected.push_back(std::move(row));
  }
  plan.op = Rows(cols, plan.expected);
  return plan;
}

/// Projects `plan` onto `arity` columns (column c reads input c mod the
/// input arity) so it can join a union with that arity.
Plan AlignArity(Plan plan, size_t arity) {
  if (plan.arity == arity) return plan;
  std::vector<std::string> names;
  std::vector<ExprPtr> exprs;
  for (size_t c = 0; c < arity; ++c) {
    names.push_back("u" + std::to_string(c));
    exprs.push_back(Expr::Column(c % plan.arity));
  }
  for (Row& row : plan.expected) {
    Row out;
    for (size_t c = 0; c < arity; ++c) out.push_back(row[c % plan.arity]);
    row = std::move(out);
  }
  plan.op = std::make_unique<ProjectOperator>(
      std::move(plan.op), std::move(names), std::move(exprs));
  plan.arity = arity;
  return plan;
}

/// `kinds` is 6 for the original operator mix, 8 to add UnionAll and Sort.
Plan RandomTree(Rng* rng, int depth, size_t kinds) {
  if (depth == 0) return RandomSource(rng);
  switch (rng->Uniform(kinds)) {
    case 0: {  // Filter: random comparison against a small constant.
      Plan in = RandomTree(rng, depth - 1, kinds);
      const bool eq = rng->Chance(0.5);
      const int64_t k = static_cast<int64_t>(rng->Uniform(8));
      const size_t col = rng->Uniform(in.arity);
      auto pred = Expr::Binary(eq ? Expr::Op::kEq : Expr::Op::kLt,
                               Expr::Column(col), Expr::Const(Value::Int(k)));
      Plan out;
      out.arity = in.arity;
      std::copy_if(in.expected.begin(), in.expected.end(),
                   std::back_inserter(out.expected), [&](const Row& row) {
                     const int64_t v = row[col].int_value();
                     return eq ? v == k : v < k;
                   });
      out.op = std::make_unique<FilterOperator>(std::move(in.op),
                                                std::move(pred));
      return out;
    }
    case 1: {  // Project: random column picks (possibly duplicated).
      Plan in = RandomTree(rng, depth - 1, kinds);
      Plan out;
      out.arity = 1 + rng->Uniform(in.arity);
      std::vector<size_t> picks;
      std::vector<std::string> names;
      std::vector<ExprPtr> exprs;
      for (size_t c = 0; c < out.arity; ++c) {
        names.push_back("p" + std::to_string(c));
        picks.push_back(rng->Uniform(in.arity));
        exprs.push_back(Expr::Column(picks.back()));
      }
      for (const Row& row : in.expected) {
        Row projected;
        for (size_t pick : picks) projected.push_back(row[pick]);
        out.expected.push_back(std::move(projected));
      }
      out.op = std::make_unique<ProjectOperator>(
          std::move(in.op), std::move(names), std::move(exprs));
      return out;
    }
    case 2: {  // HashJoin on one random key pair per side.
      Plan l = RandomTree(rng, depth - 1, kinds);
      Plan r = RandomTree(rng, depth - 1, kinds);
      const size_t lk = rng->Uniform(l.arity);
      const size_t rk = rng->Uniform(r.arity);
      // Probe-major nested loop: each right row meets the matching left
      // rows in build (insertion) order.
      Plan out;
      out.arity = l.arity + r.arity;
      for (const Row& right : r.expected) {
        for (const Row& left : l.expected) {
          if (left[lk] == right[rk]) {
            out.expected.push_back(Concat(left, right));
          }
        }
      }
      out.op = std::make_unique<HashJoinOperator>(
          std::move(l.op), std::move(r.op),
          std::vector<std::pair<size_t, size_t>>{{lk, rk}});
      return out;
    }
    case 3: {  // BindJoin against a deterministic synthetic target.
      Plan in = RandomTree(rng, depth - 1, kinds);
      const size_t bind_col = rng->Uniform(in.arity);
      // 0 rows for odd keys, 2 rows for even: exercises both the no-match
      // drop and the fan-out.
      auto target = [](int64_t k) {
        if (k % 2 == 1) return std::vector<Row>{};
        return std::vector<Row>{{Value::Int(k * 10)}, {Value::Int(k * 10 + 1)}};
      };
      Plan out;
      out.arity = in.arity + 1;
      for (const Row& row : in.expected) {
        for (const Row& fetched : target(row[bind_col].int_value())) {
          out.expected.push_back(Concat(row, fetched));
        }
      }
      BindJoinOperator::Fetch fetch =
          [target](const Row& binding) -> Result<std::vector<Row>> {
        return target(binding[0].int_value());
      };
      out.op = std::make_unique<BindJoinOperator>(
          std::move(in.op), std::vector<size_t>{bind_col},
          std::vector<std::string>{"f"}, std::move(fetch), "synthetic");
      return out;
    }
    case 4: {  // Distinct: first occurrence wins.
      Plan in = RandomTree(rng, depth - 1, kinds);
      Plan out;
      out.arity = in.arity;
      std::set<Row> seen;
      for (const Row& row : in.expected) {
        if (seen.insert(row).second) out.expected.push_back(row);
      }
      out.op = std::make_unique<DistinctOperator>(std::move(in.op));
      return out;
    }
    case 5: {  // Limit at a boundary-ish cut.
      Plan in = RandomTree(rng, depth - 1, kinds);
      const size_t limit = rng->Uniform(40);
      Plan out;
      out.arity = in.arity;
      out.expected.assign(
          in.expected.begin(),
          in.expected.begin() +
              static_cast<std::ptrdiff_t>(std::min(limit, in.expected.size())));
      out.op = std::make_unique<LimitOperator>(std::move(in.op), limit);
      return out;
    }
    case 6: {  // UnionAll of 2-3 subtrees: concatenation.
      Plan out;
      std::vector<OperatorPtr> inputs;
      const size_t n = 2 + rng->Uniform(2);
      for (size_t i = 0; i < n; ++i) {
        Plan in = RandomTree(rng, depth - 1, kinds);
        if (i == 0) out.arity = in.arity;
        in = AlignArity(std::move(in), out.arity);
        out.expected.insert(out.expected.end(), in.expected.begin(),
                            in.expected.end());
        inputs.push_back(std::move(in.op));
      }
      out.op = std::make_unique<UnionAllOperator>(std::move(inputs));
      return out;
    }
    default: {  // Sort on one or two columns: stable.
      Plan in = RandomTree(rng, depth - 1, kinds);
      std::vector<size_t> keys{rng->Uniform(in.arity)};
      if (rng->Chance(0.5)) keys.push_back(rng->Uniform(in.arity));
      Plan out;
      out.arity = in.arity;
      out.expected = in.expected;
      std::stable_sort(out.expected.begin(), out.expected.end(),
                       [&keys](const Row& a, const Row& b) {
                         for (size_t c : keys) {
                           if (a[c].int_value() != b[c].int_value()) {
                             return a[c].int_value() < b[c].int_value();
                           }
                         }
                         return false;
                       });
      out.op = std::make_unique<SortOperator>(std::move(in.op), keys);
      return out;
    }
  }
}

TEST(BatchDifferentialTest, TwoHundredSeededPlans) {
  // The original six-operator mix, then the same seeds with UnionAll and
  // Sort added.
  for (size_t kinds : {6, 8}) {
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      Rng rng(seed);
      Plan plan = RandomTree(&rng, 1 + seed % 3, kinds);
      auto rows = Collect(plan.op.get());
      ASSERT_TRUE(rows.ok()) << "seed " << seed << ": " << rows.status();
      ASSERT_EQ(*rows, plan.expected)
          << kinds << " kinds, seed " << seed << ": engine returned "
          << rows->size() << " row(s), reference " << plan.expected.size()
          << "\n"
          << PlanToString(*plan.op);
    }
  }
}

TEST(OperatorTest, PlanToStringShowsTree) {
  auto filter = std::make_unique<FilterOperator>(
      Rows({"a"}, {}), Expr::Binary(Expr::Op::kEq, Expr::Column(0),
                                    Expr::Const(Value::Int(1))));
  std::string plan = PlanToString(*filter);
  EXPECT_NE(plan.find("Filter"), std::string::npos);
  EXPECT_NE(plan.find("rows"), std::string::npos);
}

}  // namespace
}  // namespace estocada::engine
