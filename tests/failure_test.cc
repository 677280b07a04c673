/// Failure-injection tests: errors raised deep inside delegated store
/// calls or engine operators must propagate as Status values — never
/// crash, never silently truncate results. The RecoveryTest half drives
/// the fault-tolerant serving ladder end to end: transient faults are
/// retried to success, a hard store outage fails over to an alternative
/// rewriting (answers validated against staging ground truth), an outage
/// with no alternative degrades to the staging area, and recovery closes
/// the breaker and resumes plan caching.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "engine/operator.h"
#include "estocada/estocada.h"
#include "runtime/query_server.h"
#include "stores/fault.h"

namespace estocada {
namespace {

using engine::CallbackScanOperator;
using engine::Operator;
using engine::OperatorPtr;
using engine::Row;
using engine::Value;

/// An operator that yields `good` rows (1..good) as one batch and fails
/// on the next call — the failure lands after a batch was delivered.
class FailAfterOperator final : public Operator {
 public:
  FailAfterOperator(size_t good, Status error)
      : good_(good), error_(std::move(error)) {}
  Status Open() override {
    delivered_ = false;
    return Status::OK();
  }
  Result<bool> NextBatch(engine::RowBatch* out) override {
    out->Reset(1);
    if (delivered_ || good_ == 0) return error_;
    for (size_t i = 1; i <= good_; ++i) {
      out->AppendRow({Value::Int(static_cast<int64_t>(i))});
    }
    delivered_ = true;
    return true;
  }
  std::vector<std::string> columns() const override { return {"x"}; }
  std::string label() const override { return "FailAfter"; }

 private:
  size_t good_;
  Status error_;
  bool delivered_ = false;
};

/// An operator whose Open fails.
class FailOpenOperator final : public Operator {
 public:
  Status Open() override { return Status::Unsupported("cannot open"); }
  Result<bool> NextBatch(engine::RowBatch* /*out*/) override {
    return Status::Internal("NextBatch after failed Open");
  }
  std::vector<std::string> columns() const override { return {"x"}; }
  std::string label() const override { return "FailOpen"; }
};

TEST(FailureInjectionTest, MidStreamErrorPropagatesThroughFilter) {
  auto src = std::make_unique<FailAfterOperator>(
      3, Status::Internal("disk on fire"));
  engine::FilterOperator op(std::move(src),
                            engine::Expr::Const(Value::Bool(true)));
  // The good rows arrive as a batch before the failure surfaces.
  ASSERT_TRUE(op.Open().ok());
  engine::RowBatch batch;
  auto first = op.NextBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(*first);
  EXPECT_EQ(batch.size(), 3u);
  auto second = op.NextBatch(&batch);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInternal);
  // A full drain fails as a whole rather than returning a truncated set.
  auto rows = Collect(&op);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
  EXPECT_NE(rows.status().message().find("disk on fire"),
            std::string::npos);
}

TEST(FailureInjectionTest, MidStreamErrorPropagatesThroughHashJoinBuild) {
  // The failing operator sits on the BUILD side: Open() must fail.
  auto left = std::make_unique<FailAfterOperator>(
      2, Status::Unsupported("connection reset"));
  auto right = std::make_unique<engine::RowsOperator>(
      std::vector<std::string>{"x"}, std::vector<Row>{{Value::Int(1)}});
  engine::HashJoinOperator join(std::move(left), std::move(right),
                                {{0, 0}});
  EXPECT_EQ(join.Open().code(), StatusCode::kUnsupported);
}

TEST(FailureInjectionTest, MidStreamErrorPropagatesThroughHashJoinProbe) {
  auto left = std::make_unique<engine::RowsOperator>(
      std::vector<std::string>{"x"}, std::vector<Row>{{Value::Int(1)}});
  auto right = std::make_unique<FailAfterOperator>(
      1, Status::Internal("probe side died"));
  engine::HashJoinOperator join(std::move(left), std::move(right),
                                {{0, 0}});
  // The first probe chunk joins and is delivered; the next pull fails.
  ASSERT_TRUE(join.Open().ok());
  engine::RowBatch batch;
  auto first = join.NextBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(*first);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(join.NextBatch(&batch).status().code(), StatusCode::kInternal);
  auto rows = Collect(&join);
  EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
}

TEST(FailureInjectionTest, OpenFailurePropagatesThroughPipelines) {
  OperatorPtr src = std::make_unique<FailOpenOperator>();
  src = std::make_unique<engine::SortOperator>(std::move(src),
                                               std::vector<size_t>{0});
  src = std::make_unique<engine::LimitOperator>(std::move(src), 10);
  EXPECT_EQ(src->Open().code(), StatusCode::kUnsupported);
}

TEST(FailureInjectionTest, AggregateSurfacesInputError) {
  auto src = std::make_unique<FailAfterOperator>(
      5, Status::Internal("late failure"));
  engine::AggregateOperator agg(std::move(src), {},
                                {{engine::AggFn::kCount, 0, "n"}});
  // Aggregate drains its input in Open.
  EXPECT_EQ(agg.Open().code(), StatusCode::kInternal);
}

TEST(FailureInjectionTest, BindJoinFetchFailureAfterSomeRows) {
  auto outer = std::make_unique<engine::RowsOperator>(
      std::vector<std::string>{"k"},
      std::vector<Row>{{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}});
  int calls = 0;
  engine::BindJoinOperator bind(
      std::move(outer), {0}, {"v"},
      [&calls](const Row& binding) -> Result<std::vector<Row>> {
        if (++calls == 3) return Status::NotFound("kv store shard down");
        return std::vector<Row>{{binding[0]}};
      },
      "kv");
  auto rows = Collect(&bind);
  EXPECT_EQ(rows.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 3);
}

TEST(FailureInjectionTest, SystemSurfacesStoreFailureOnDroppedContainer) {
  // Simulate operational failure: a fragment's physical container
  // disappears behind ESTOCADA's back (store admin dropped the table).
  pivot::Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 2).ok());
  stores::RelationalStore pg;
  Estocada sys;
  ASSERT_TRUE(sys.RegisterSchema(schema).ok());
  ASSERT_TRUE(sys.RegisterStore({"pg", catalog::StoreKind::kRelational, &pg,
                                 nullptr, nullptr, nullptr, nullptr})
                  .ok());
  ASSERT_TRUE(sys.LoadRow("R", {Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(sys.DefineFragment("F(a, b) :- R(a, b)", "pg").ok());
  ASSERT_TRUE(pg.DropTable("F").ok());  // Out-of-band destruction.
  auto r = sys.Query("q(a, b) :- R(a, b)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("'F'"), std::string::npos);
}

TEST(FailureInjectionTest, CorruptKvPayloadReportedNotCrashed) {
  pivot::Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 2).ok());
  stores::KeyValueStore kv;
  Estocada sys;
  ASSERT_TRUE(sys.RegisterSchema(schema).ok());
  ASSERT_TRUE(sys.RegisterStore({"kv", catalog::StoreKind::kKeyValue,
                                 nullptr, &kv, nullptr, nullptr, nullptr})
                  .ok());
  ASSERT_TRUE(sys.LoadRow("R", {Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(sys.DefineFragment("K(a, b) :- R(a, b)", "kv",
                                 {pivot::Adornment::kInput,
                                  pivot::Adornment::kFree})
                  .ok());
  // Out-of-band corruption of the stored payload.
  ASSERT_TRUE(kv.Put("K", "1", "this is not json").ok());
  auto r = sys.Query("q(b) :- R($a, b)", {{"$a", Value::Int(1)}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// --------------------------------------------------------------------------
// End-to-end recovery: the degradation ladder over a replicated layout.

/// R is replicated on two stores (relational + document), so one store's
/// outage leaves an alternative rewriting; S lives on the relational store
/// alone, so its outage can only degrade to the staging area.
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pivot::Schema schema;
    ASSERT_TRUE(schema.AddRelation("R", 2).ok());
    ASSERT_TRUE(schema.AddRelation("S", 2).ok());
    ASSERT_TRUE(sys_.RegisterSchema(schema).ok());
    ASSERT_TRUE(sys_.RegisterStore({"pg", catalog::StoreKind::kRelational,
                                    &pg_, nullptr, nullptr, nullptr, nullptr})
                    .ok());
    ASSERT_TRUE(sys_.RegisterStore({"doc", catalog::StoreKind::kDocument,
                                    nullptr, nullptr, &doc_, nullptr,
                                    nullptr})
                    .ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          sys_.LoadRow("R", {Value::Int(i), Value::Int(i % 5)}).ok());
      ASSERT_TRUE(
          sys_.LoadRow("S", {Value::Int(i), Value::Int(i * 2)}).ok());
    }
    ASSERT_TRUE(
        sys_.DefineFragment("F_rpg(a, b) :- R(a, b)", "pg", {}, {0}).ok());
    ASSERT_TRUE(
        sys_.DefineFragment("F_rdoc(a, b) :- R(a, b)", "doc", {}, {0}).ok());
    ASSERT_TRUE(sys_.DefineFragment("F_spg(a, b) :- S(a, b)", "pg").ok());
    pg_.AttachFaultInjector(&injector_, "pg");
    doc_.AttachFaultInjector(&injector_, "doc");
  }

  /// Fast-retry options so the tests don't sleep for real.
  static runtime::ServerOptions Options(uint64_t cooldown_micros = 200'000) {
    runtime::ServerOptions options;
    options.worker_threads = 1;
    options.retry.max_attempts = 6;
    options.retry.initial_backoff_micros = 1;
    options.retry.max_backoff_micros = 20;
    options.health.failure_threshold = 2;
    options.health.open_cooldown_micros = cooldown_micros;
    return options;
  }

  static std::multiset<std::string> Canon(const std::vector<Row>& rows) {
    std::multiset<std::string> out;
    for (const Row& r : rows) out.insert(engine::RowToString(r));
    return out;
  }

  /// The store whose fragment the cost-based choice picked for `result` —
  /// the outage tests knock out whichever one the planner prefers.
  static std::string PrimaryStore(const Estocada::QueryResult& result) {
    return result.rewriting_text.find("F_rpg") != std::string::npos ? "pg"
                                                                    : "doc";
  }

  Estocada sys_;
  stores::RelationalStore pg_;
  stores::DocumentStore doc_;
  stores::FaultInjector injector_{/*seed=*/42};
};

TEST_F(RecoveryTest, TransientFaultRetriedToSuccess) {
  runtime::QueryServer server(&sys_, Options());
  auto truth = sys_.EvaluateOverStaging("q(a, b) :- R(a, b)");
  ASSERT_TRUE(truth.ok());
  auto warm = server.Query("q(a, b) :- R(a, b)");
  ASSERT_TRUE(warm.ok());

  injector_.FailNextReads(PrimaryStore(*warm), 1);
  auto r = server.Query("q(a, b) :- R(a, b)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->attempts, 2);
  EXPECT_FALSE(r->degraded_to_staging);
  EXPECT_EQ(Canon(r->rows), Canon(*truth));
  EXPECT_GE(server.metrics().retries, 1u);
  // One failure is under the breaker threshold: nothing tripped.
  EXPECT_EQ(server.metrics().breaker_trips, 0u);
}

TEST_F(RecoveryTest, OutageFailsOverToReplicaRewriting) {
  runtime::QueryServer server(&sys_, Options());
  auto truth = sys_.EvaluateOverStaging("q(a, b) :- R(a, b)");
  ASSERT_TRUE(truth.ok());
  auto warm = server.Query("q(a, b) :- R(a, b)");
  ASSERT_TRUE(warm.ok());
  const std::string primary = PrimaryStore(*warm);

  injector_.SetOutage(primary, true);
  auto r = server.Query("q(a, b) :- R(a, b)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The replica rewriting answered — correct, not degraded.
  EXPECT_FALSE(r->degraded_to_staging);
  EXPECT_EQ(Canon(r->rows), Canon(*truth));
  EXPECT_NE(r->rewriting_text.find(primary == "pg" ? "F_rdoc" : "F_rpg"),
            std::string::npos);
  // Two failures tripped the breaker; the reroute rung then re-planned
  // around it immediately, without consuming another retry attempt.
  EXPECT_EQ(r->attempts, 2);
  EXPECT_GE(r->reroutes, 1);
  EXPECT_NE(std::find(r->excluded_stores.begin(), r->excluded_stores.end(),
                      primary),
            r->excluded_stores.end());
  EXPECT_EQ(server.health().state(primary), runtime::BreakerState::kOpen);
  EXPECT_GE(server.metrics().failovers, 1u);
  EXPECT_EQ(server.metrics().breaker_trips, 1u);
}

TEST_F(RecoveryTest, OutageWithoutAlternativeFallsBackToStaging) {
  runtime::QueryServer server(&sys_, Options());
  auto truth = sys_.EvaluateOverStaging("q(a, b) :- S(a, b)");
  ASSERT_TRUE(truth.ok());

  injector_.SetOutage("pg", true);
  auto r = server.Query("q(a, b) :- S(a, b)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // No rewriting survives the exclusion of pg — the staging area answers.
  EXPECT_TRUE(r->degraded_to_staging);
  EXPECT_EQ(Canon(r->rows), Canon(*truth));
  EXPECT_NE(r->plan_text.find("staging"), std::string::npos);
  EXPECT_GE(server.metrics().degraded, 1u);
  EXPECT_EQ(server.health().state("pg"), runtime::BreakerState::kOpen);
}

TEST_F(RecoveryTest, RecoveryClosesBreakerAndReCaches) {
  auto options = Options(/*cooldown_micros=*/500);
  runtime::QueryServer server(&sys_, options);
  auto truth = sys_.EvaluateOverStaging("q(a, b) :- R(a, b)");
  ASSERT_TRUE(truth.ok());
  auto warm = server.Query("q(a, b) :- R(a, b)");
  ASSERT_TRUE(warm.ok());
  const std::string primary = PrimaryStore(*warm);

  injector_.SetOutage(primary, true);
  auto during = server.Query("q(a, b) :- R(a, b)");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(Canon(during->rows), Canon(*truth));

  // The store comes back; after the cooldown the half-open probe admits it
  // and the first success closes the breaker.
  injector_.SetOutage(primary, false);
  std::this_thread::sleep_for(std::chrono::microseconds(2000));
  auto after = server.Query("q(a, b) :- R(a, b)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->degraded_to_staging);
  EXPECT_EQ(Canon(after->rows), Canon(*truth));
  EXPECT_TRUE(after->excluded_stores.empty());
  EXPECT_EQ(server.health().state(primary), runtime::BreakerState::kClosed);

  // Caching resumed under the settled health epoch: one re-plan, then hits.
  uint64_t hits_before = server.metrics().cache_hits;
  ASSERT_TRUE(server.Query("q(a, b) :- R(a, b)").ok());
  ASSERT_TRUE(server.Query("q(a, b) :- R(a, b)").ok());
  EXPECT_GT(server.metrics().cache_hits, hits_before);
}

}  // namespace
}  // namespace estocada
