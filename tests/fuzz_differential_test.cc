/// Tier-1 entry point of the randomized differential-testing subsystem
/// (src/testing): sweeps a few hundred generated scenarios through the
/// staging oracle and the ten metamorphic invariant families, plus unit
/// tests of the scenario generator and the failure shrinker.
///
/// Replay a failing seed directly:
///
///   FUZZ_REPLAY_SEED=12345 ./tests/fuzz_differential
///
/// (or `bench/soak_differential --seed=12345` for the verbose dump). See
/// TESTING.md for the full workflow.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "pivot/parser.h"
#include "testing/differential.h"
#include "testing/scenario.h"

namespace estocada::testing {
namespace {

/// Each shard covers a disjoint seed band so ctest runs them in parallel;
/// together they exceed the 200-scenario tier-1 floor.
constexpr size_t kSeedsPerShard = 60;

void ExpectSweepClean(uint64_t first_seed) {
  SweepReport sweep = RunSweep(first_seed, kSeedsPerShard);
  for (const SeedReport& f : sweep.failed) {
    ADD_FAILURE() << f.report;
  }
  EXPECT_EQ(sweep.failures, 0u) << sweep.Summary();
  EXPECT_EQ(sweep.scenarios, kSeedsPerShard);
  // Coverage: a sweep that silently skipped an invariant family would
  // still "pass"; the counters prove all ten families actually ran.
  EXPECT_GT(sweep.queries, 0u);
  EXPECT_GT(sweep.rewritings, 0u) << "invariant (a) never executed";
  EXPECT_GT(sweep.naive_comparisons, 0u) << "invariant (b) never compared";
  EXPECT_GT(sweep.chase_checks, 0u) << "invariant (c) never checked";
  EXPECT_GT(sweep.chaos_successes, 0u) << "invariant (d) never succeeded";
  EXPECT_GT(sweep.migration_checks, 0u) << "invariant (e) never checked";
  EXPECT_GT(sweep.autopilot_checks, 0u) << "invariant (f) never checked";
  EXPECT_GT(sweep.replication_checks, 0u) << "invariant (g) never checked";
  EXPECT_GT(sweep.partition_checks, 0u) << "invariant (h) never checked";
  EXPECT_GT(sweep.graph_checks, 0u) << "invariant (i) never checked";
  EXPECT_GT(sweep.lifting_checks, 0u) << "invariant (j) never checked";
  EXPECT_GT(sweep.lift_guard_fired, 0u) << "invariant (j) never hit the guard";
}

TEST(FuzzDifferential, SweepShard1) { ExpectSweepClean(1); }
TEST(FuzzDifferential, SweepShard2) { ExpectSweepClean(10001); }
TEST(FuzzDifferential, SweepShard3) { ExpectSweepClean(20001); }
TEST(FuzzDifferential, SweepShard4) { ExpectSweepClean(30001); }

/// FUZZ_REPLAY_SEED=N reruns one scenario with the full report on failure.
TEST(FuzzDifferential, ReplayEnvSeed) {
  const char* env = std::getenv("FUZZ_REPLAY_SEED");
  if (env == nullptr) GTEST_SKIP() << "set FUZZ_REPLAY_SEED=N to replay";
  uint64_t seed = std::strtoull(env, nullptr, 10);
  SeedReport rep = RunSeed(seed);
  EXPECT_TRUE(rep.outcome.ok()) << rep.report;
}

TEST(ScenarioGenerator, DeterministicPerSeed) {
  ScenarioConfig cfg;
  cfg.seed = 42;
  auto a = GenerateScenario(cfg);
  auto b = GenerateScenario(cfg);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->ToString(), b->ToString());
  cfg.seed = 43;
  auto c = GenerateScenario(cfg);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_NE(a->ToString(), c->ToString());
}

TEST(ScenarioGenerator, EverythingParsesAndValidates) {
  for (uint64_t seed : {1u, 2u, 3u, 17u, 99u}) {
    ScenarioConfig cfg;
    cfg.seed = seed;
    auto s = GenerateScenario(cfg);
    ASSERT_TRUE(s.ok()) << s.status();
    EXPECT_GE(s->queries.size(), cfg.min_queries);
    EXPECT_LE(s->queries.size(), cfg.max_queries);
    for (const FragmentSpec& f : s->fragments) {
      auto v = pivot::ParseQuery(f.view_text);
      ASSERT_TRUE(v.ok()) << f.view_text << ": " << v.status();
    }
    for (const QuerySpec& q : s->queries) {
      auto cq = pivot::ParseQuery(q.text);
      ASSERT_TRUE(cq.ok()) << q.text << ": " << cq.status();
      EXPECT_TRUE(cq->Validate().ok()) << q.text;
    }
  }
}

TEST(ScenarioGenerator, EveryRelationHasIdentityFragment) {
  ScenarioConfig cfg;
  cfg.seed = 11;
  auto s = GenerateScenario(cfg);
  ASSERT_TRUE(s.ok()) << s.status();
  // The answerability guarantee rests on one all-free fragment per
  // relation; count fragments whose adornments are empty or all-free.
  size_t all_free = 0;
  for (const FragmentSpec& f : s->fragments) {
    bool free = true;
    for (pivot::Adornment a : f.adornments) {
      if (a != pivot::Adornment::kFree) free = false;
    }
    if (free) ++all_free;
  }
  EXPECT_GE(all_free, s->staging.size());
}

TEST(Shrinker, PassingScenarioIsLeftAlone) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  auto s = GenerateScenario(cfg);
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_TRUE(CheckScenario(*s).ok());
  ShrinkResult r = ShrinkScenario(*s, "naive-vs-pacb");
  EXPECT_EQ(r.steps, 0u);
  EXPECT_EQ(r.scenario.ToString(), s->ToString());
}

TEST(Shrinker, ReducesInjectedFailureToOneQuery) {
  ScenarioConfig cfg;
  cfg.seed = 5;
  auto s = GenerateScenario(cfg);
  ASSERT_TRUE(s.ok()) << s.status();
  // Inject a deterministic failure: a query over an unregistered relation
  // makes the staging oracle error out ("oracle" mismatch).
  s->queries.push_back({"q(v0) :- fz.no_such_relation(v0)", {}});
  ScenarioOutcome outcome = CheckScenario(*s);
  ASSERT_FALSE(outcome.ok());
  ASSERT_EQ(outcome.mismatches[0].invariant, "oracle");

  ShrinkResult r = ShrinkScenario(*s, "oracle");
  EXPECT_GT(r.steps, 0u);
  // The injected query is the only one the failure needs.
  EXPECT_EQ(r.scenario.queries.size(), 1u);
  EXPECT_EQ(r.scenario.queries[0].text, "q(v0) :- fz.no_such_relation(v0)");
  // The shrunk scenario must still fail the same way.
  ScenarioOutcome shrunk = CheckScenario(r.scenario);
  ASSERT_FALSE(shrunk.ok());
  EXPECT_EQ(shrunk.mismatches[0].invariant, "oracle");
}

TEST(HarnessApi, OutcomeCountsAllFamilies) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  auto s = GenerateScenario(cfg);
  ASSERT_TRUE(s.ok()) << s.status();
  ScenarioOutcome outcome = CheckScenario(*s);
  EXPECT_TRUE(outcome.ok()) << outcome.mismatches[0].invariant << ": "
                            << outcome.mismatches[0].detail;
  EXPECT_GT(outcome.queries_checked, 0u);
  EXPECT_GT(outcome.rewritings_executed, 0u);
  EXPECT_GT(outcome.chase_checks, 0u);
  EXPECT_GT(outcome.migration_checks, 0u);
}

TEST(HarnessApi, FamiliesCanBeDisabled) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  auto s = GenerateScenario(cfg);
  ASSERT_TRUE(s.ok()) << s.status();
  HarnessOptions opts;
  opts.check_rewritings = false;
  opts.check_naive = false;
  opts.check_chase = false;
  opts.check_chaos = false;
  opts.check_migration = false;
  opts.check_autopilot = false;
  opts.check_replication = false;
  opts.check_partition = false;
  opts.check_graph = false;
  opts.check_lifting = false;
  ScenarioOutcome outcome = CheckScenario(*s, opts);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.rewritings_executed, 0u);
  EXPECT_EQ(outcome.naive_comparisons, 0u);
  EXPECT_EQ(outcome.chase_checks, 0u);
  EXPECT_EQ(outcome.chaos_successes + outcome.chaos_errors, 0u);
  EXPECT_EQ(outcome.migration_checks, 0u);
  EXPECT_EQ(outcome.autopilot_checks, 0u);
  EXPECT_EQ(outcome.replication_checks, 0u);
  EXPECT_EQ(outcome.partition_checks, 0u);
  EXPECT_EQ(outcome.graph_checks, 0u);
  EXPECT_EQ(outcome.lifting_checks, 0u);
}

}  // namespace
}  // namespace estocada::testing
