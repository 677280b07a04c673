/// End-to-end benchmark of the Autopilot (src/tuner): the autonomous
/// self-tuning daemon that closes the advisor -> migration loop.
///
/// Three legs, each against a fresh marketplace deployment:
///
///  1. CONVERGENCE — twin systems (tuned + never-tuned baseline) serve the
///     same query stream, validated answer-for-answer against each other.
///     The workload *shifts mid-run*: lookup-heavy (carts living in the
///     document store) -> join-heavy (the §II personalized-search
///     bottleneck). The Autopilot daemon must converge to the better
///     layout on its own both times — no operator input — and the warm
///     p50 after convergence must beat the never-tuned baseline.
///
///  2. COST MODEL LIES — the deployed parallel store is ~7x more
///     expensive than the advisor's blueprint believes. The launch looks
///     great on paper; the post-cutover measurement catches the
///     regression, reverts the fragment, and blacklists the shape. Zero
///     incorrect answers throughout.
///
///  3. CHAOS — >= 10% of reads fail on every store while client threads
///     validate answers and the daemon keeps tuning. Guardrails
///     (cooldown, blacklist, equivalent-fragment suppression) must keep
///     the launch count bounded: no migration livelock.
///
/// Emits BENCH_autopilot.json; exits non-zero when acceptance fails.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "stores/fault.h"
#include "tuner/tuner.h"

namespace estocada::bench {
namespace {

using engine::Row;
using engine::Value;
using migration::MigrationManager;
using runtime::QueryServer;
using runtime::ServerOptions;
using stores::FaultInjector;
using stores::FaultPlan;
using tuner::Autopilot;
using tuner::AutopilotOptions;

workload::MarketplaceConfig MainConfig() {
  workload::MarketplaceConfig cfg;
  cfg.num_users = 400;
  cfg.num_products = 120;
  cfg.num_orders = 1500;
  cfg.num_visits = 3000;
  return cfg;
}

workload::MarketplaceConfig SmallConfig() {
  workload::MarketplaceConfig cfg;
  cfg.num_users = 200;
  cfg.num_products = 60;
  cfg.num_orders = 800;
  cfg.num_visits = 1600;
  return cfg;
}

/// The layout every leg starts from: reasonable, but not tuned for
/// either traffic phase — carts sit in the document store (the advisor
/// will want them keyed in redis under lookup traffic) and the
/// personalized-search join is computed from base fragments every time.
void DefineInitialLayout(MarketplaceSystem* m) {
  BenchCheck(m->sys.DefineFragment("F_users(u, n, c) :- mk.users(u, n, c)",
                                   "postgres", {}, {0}),
             "users");
  BenchCheck(m->sys.DefineFragment(
                 "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)", "postgres",
                 {}, {1, 2}),
             "orders");
  BenchCheck(m->sys.DefineFragment(
                 "F_prod(p, n, cat, pr) :- mk.products(p, n, cat, pr)",
                 "postgres", {}, {0, 2}),
             "products");
  BenchCheck(m->sys.DefineFragment("F_carts(u, c) :- mk.carts(u, c)",
                                   "mongodb", {}, {0}),
             "carts");
  BenchCheck(m->sys.DefineFragment("F_visits(u, p, d) :- mk.visits(u, p, d)",
                                   "spark", {}, {0, 1}),
             "visits");
}

ServerOptions ChaosServerOptions() {
  ServerOptions options;
  options.fault_tolerant = true;
  options.retry.max_attempts = 10;
  options.retry.initial_backoff_micros = 20;
  options.retry.max_backoff_micros = 2'000;
  options.retry.deadline_micros = 0;
  options.health.failure_threshold = 3;
  options.health.open_cooldown_micros = 10'000;
  return options;
}

std::set<std::string> Canon(const std::vector<Row>& rows) {
  std::set<std::string> out;
  for (const Row& r : rows) out.insert(engine::RowToString(r));
  return out;
}

workload::WorkloadMix LookupMix() {
  workload::WorkloadMix mix;
  mix.cart_lookup = 0.60;
  mix.user_city = 0.30;
  mix.orders_of_user = 0.10;
  mix.personalized_search = 0;
  mix.products_in_category = 0;
  return mix;
}

workload::WorkloadMix JoinMix() {
  workload::WorkloadMix mix;
  mix.cart_lookup = 0.10;
  mix.user_city = 0.05;
  mix.orders_of_user = 0.05;
  mix.personalized_search = 0.75;
  mix.products_in_category = 0.05;
  return mix;
}

struct TwinCounters {
  uint64_t answered = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
};

/// Serves `n` identical draws on both servers and cross-validates every
/// answer: the never-tuned twin doubles as the correctness oracle for
/// whatever layout the Autopilot has moved the tuned system to.
void DriveTwin(QueryServer* tuned, QueryServer* baseline,
               const workload::MarketplaceData& data,
               const workload::WorkloadMix& mix, int n, uint64_t seed,
               TwinCounters* c) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    auto q = workload::DrawQuery(data, mix, &rng);
    auto rt = tuned->Query(q.text, q.parameters);
    auto rb = baseline->Query(q.text, q.parameters);
    ++c->answered;
    if (!rt.ok() || !rb.ok()) {
      ++c->failed;
    } else if (Canon(rt->rows) != Canon(rb->rows)) {
      ++c->mismatches;
    }
  }
}

/// Waits until the daemon has harvested every launch and stopped finding
/// new work (no launch for ~0.4s of ticks). Returns false on deadline —
/// the no-livelock acceptance for the daemon legs.
bool AwaitQuiescence(Autopilot* pilot, int deadline_sec) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(deadline_sec);
  uint64_t stable_launches = pilot->metrics().launches;
  int stable_polls = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto m = pilot->metrics();
    if (pilot->in_flight() == 0 && m.launches == stable_launches) {
      if (++stable_polls >= 40) return true;
    } else {
      stable_polls = 0;
      stable_launches = m.launches;
    }
  }
  return false;
}

/// Leg 1: autonomous convergence across a mid-run workload shift, twin
/// systems validating each other.
bool RunConvergenceLeg(BenchJson* json) {
  bool ok = true;
  auto tuned = MarketplaceSystem::Create(MainConfig());
  auto base = MarketplaceSystem::Create(MainConfig());
  if (tuned == nullptr || base == nullptr) {
    std::fprintf(stderr, "FAIL: marketplace setup\n");
    return false;
  }
  DefineInitialLayout(tuned.get());
  DefineInitialLayout(base.get());
  QueryServer tuned_server(&tuned->sys);
  QueryServer base_server(&base->sys);
  MigrationManager manager(&tuned_server);

  AutopilotOptions opt;
  opt.advisor.min_count = 40;       // Only the dominant shapes qualify.
  opt.advisor.min_mean_cost = 5.0;  // Doc-store lookups cost ~13.
  opt.cooldown_ticks = 20;
  opt.tick_period_micros = 5'000;
  Autopilot pilot(&tuned_server, &manager, opt);
  pilot.Start();

  std::printf("== leg 1: convergence across a workload shift ==\n");
  TwinCounters traffic;

  // Phase A: lookup-heavy. The daemon should move the hot lookup shapes
  // onto the key-value store while the stream is still being served.
  DriveTwin(&tuned_server, &base_server, tuned->data, LookupMix(), 600,
            /*seed=*/101, &traffic);
  if (!AwaitQuiescence(&pilot, 60)) {
    std::fprintf(stderr, "FAIL: phase A never quiesced (livelock?)\n");
    ok = false;
  }
  auto m = pilot.metrics();
  const uint64_t phase_a_launches = m.launches;
  const uint64_t phase_a_completions = m.completions;
  std::printf("phase A (lookup-heavy): %s\n", m.ToString().c_str());
  if (phase_a_completions < 1) {
    std::fprintf(stderr, "FAIL: phase A: no autonomous convergence\n");
    ok = false;
  }
  const double lookup_cost_tuned =
      RunWorkloadCost(&tuned->sys, tuned->data, LookupMix(), 200, 7) / 200;
  const double lookup_cost_base =
      RunWorkloadCost(&base->sys, base->data, LookupMix(), 200, 7) / 200;

  // Phase B: the workload shifts under the daemon's feet — the §II
  // personalized-search join dominates. The evidence for the old pattern
  // fades; the advisor flips to join-heavy; the daemon materializes the
  // join in the parallel store.
  DriveTwin(&tuned_server, &base_server, tuned->data, JoinMix(), 600,
            /*seed=*/202, &traffic);
  if (!AwaitQuiescence(&pilot, 60)) {
    std::fprintf(stderr, "FAIL: phase B never quiesced (livelock?)\n");
    ok = false;
  }
  m = pilot.metrics();
  std::printf("phase B (join-heavy):   %s\n", m.ToString().c_str());
  if (m.completions <= phase_a_completions) {
    std::fprintf(stderr,
                 "FAIL: phase B: no convergence after the workload shift\n");
    ok = false;
  }
  if (m.regressions != 0 || m.reverts != 0) {
    std::fprintf(stderr, "FAIL: honest cost model still saw regressions\n");
    ok = false;
  }
  // Stop the daemon before the warm measurement so a mid-measurement
  // cutover cannot blur the percentile comparison.
  pilot.Stop();

  // Warm comparison on the shifted workload: identical draws, metrics
  // reset, queries interleaved so machine noise hits both servers alike.
  tuned_server.ResetMetrics();
  base_server.ResetMetrics();
  DriveTwin(&tuned_server, &base_server, tuned->data, JoinMix(), 500,
            /*seed=*/303, &traffic);
  const double p50_tuned = tuned_server.metrics().p50_micros();
  const double p50_base = base_server.metrics().p50_micros();
  const double warm_cost_tuned =
      RunWorkloadCost(&tuned->sys, tuned->data, JoinMix(), 200, 9) / 200;
  const double warm_cost_base =
      RunWorkloadCost(&base->sys, base->data, JoinMix(), 200, 9) / 200;

  std::printf("traffic: %llu answered, %llu failed, %llu mismatches\n",
              static_cast<unsigned long long>(traffic.answered),
              static_cast<unsigned long long>(traffic.failed),
              static_cast<unsigned long long>(traffic.mismatches));
  std::printf("lookup cost/query: tuned %.2f vs baseline %.2f\n",
              lookup_cost_tuned, lookup_cost_base);
  std::printf("warm cost/query:   tuned %.2f vs baseline %.2f\n",
              warm_cost_tuned, warm_cost_base);
  std::printf("warm p50:          tuned %.1fus vs baseline %.1fus\n",
              p50_tuned, p50_base);

  if (traffic.failed != 0 || traffic.mismatches != 0) {
    std::fprintf(stderr, "FAIL: tuned system disagreed with the baseline\n");
    ok = false;
  }
  if (lookup_cost_tuned >= lookup_cost_base) {
    std::fprintf(stderr, "FAIL: no lookup-phase improvement\n");
    ok = false;
  }
  if (warm_cost_tuned >= warm_cost_base) {
    std::fprintf(stderr, "FAIL: no warm cost improvement\n");
    ok = false;
  }
  if (p50_tuned >= p50_base) {
    std::fprintf(stderr, "FAIL: warm p50 does not beat the baseline\n");
    ok = false;
  }

  json->Add("convergence_answered", traffic.answered);
  json->Add("convergence_mismatches", traffic.mismatches);
  json->Add("convergence_failed", traffic.failed);
  json->Add("convergence_launches", m.launches);
  json->Add("convergence_completions", m.completions);
  json->Add("convergence_phase_a_launches", phase_a_launches);
  json->Add("convergence_regressions", m.regressions);
  json->Add("convergence_lookup_cost_tuned", lookup_cost_tuned);
  json->Add("convergence_lookup_cost_baseline", lookup_cost_base);
  json->Add("convergence_warm_cost_tuned", warm_cost_tuned);
  json->Add("convergence_warm_cost_baseline", warm_cost_base);
  json->Add("convergence_warm_p50_tuned_us", p50_tuned);
  json->Add("convergence_warm_p50_baseline_us", p50_base);
  return ok;
}

/// Leg 2: the deployed parallel store costs ~7x the advisor's blueprint.
/// The seeded regression must be caught, reverted, and blacklisted with
/// zero incorrect answers.
bool RunLyingCostModelLeg(BenchJson* json) {
  bool ok = true;
  // per_operation 400 vs the blueprint's 60: every probe of a fragment
  // placed there is ~7x the advisor's promise.
  auto m = MarketplaceSystem::Create(
      SmallConfig(), stores::CostProfile{/*per_operation=*/400.0,
                                         /*per_row_scanned=*/0.01,
                                         /*per_index_lookup=*/0.6,
                                         /*per_row_returned=*/0.05});
  if (m == nullptr) {
    std::fprintf(stderr, "FAIL: marketplace setup\n");
    return false;
  }
  DefineInitialLayout(m.get());
  QueryServer server(&m->sys);
  MigrationManager manager(&server);

  AutopilotOptions opt;
  opt.advisor.min_count = 8;
  opt.advisor.min_mean_cost = 5.0;
  opt.cooldown_ticks = 2;
  // The SLO knob that catches this lie: materializing the join IS a
  // marginal win even on the expensive spark (one 400-cost probe instead
  // of a join that includes one), so a plain >= check would wave it
  // through. Autonomous cutovers must *pay for themselves*: demand 25%.
  opt.min_realized_improvement = 0.25;
  Autopilot pilot(&server, &manager, opt);

  std::printf("== leg 2: cost model lies (expensive parallel store) ==\n");
  const char* join_q =
      "q(o, p) :- mk.orders(o, $uid, p, t), mk.visits($uid, p, d)";
  auto drive = [&](int n) {
    for (int i = 0; i < n; ++i) {
      auto r = server.Query(join_q, {{"$uid", Value::Int(i % 50)}});
      BenchCheck(r.status(), "join traffic");
    }
  };
  drive(24);
  BenchCheck(pilot.TickOnce(), "tick");
  // Harvest the launch (ticking until the migration lands).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (pilot.in_flight() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    BenchCheck(pilot.TickOnce(), "tick");
  }
  auto metrics = pilot.metrics();
  std::printf("%s\n", metrics.ToString().c_str());
  for (const tuner::Decision& d : pilot.decision_log()) {
    std::printf("  %s\n", d.ToString().c_str());
  }

  if (metrics.launches != 1 || metrics.regressions != 1 ||
      metrics.reverts != 1 || metrics.blacklist_size != 1 ||
      metrics.completions != 0) {
    std::fprintf(stderr,
                 "FAIL: expected exactly launch+regression+revert+blacklist\n");
    ok = false;
  }
  if (m->sys.catalog().GetFragment("F_auto_0").ok()) {
    std::fprintf(stderr, "FAIL: regressed fragment still in the catalog\n");
    ok = false;
  }
  // Blacklisted: more of the same traffic must not relaunch.
  drive(8);
  BenchCheck(pilot.TickOnce(), "tick");
  metrics = pilot.metrics();
  if (metrics.launches != 1 || metrics.skipped_blacklist < 1) {
    std::fprintf(stderr, "FAIL: blacklist did not stick\n");
    ok = false;
  }
  // Zero incorrect answers: the reverted layout still serves the truth.
  uint64_t incorrect = 0;
  for (int uid = 0; uid < 8; ++uid) {
    std::map<std::string, Value> params{{"$uid", Value::Int(uid)}};
    auto truth = m->sys.EvaluateOverStaging(join_q, params);
    auto served = server.Query(join_q, params);
    BenchCheck(truth.status(), "truth");
    BenchCheck(served.status(), "served");
    if (Canon(served->rows) != Canon(*truth)) ++incorrect;
  }
  if (incorrect != 0) {
    std::fprintf(stderr, "FAIL: %llu incorrect answers after revert\n",
                 static_cast<unsigned long long>(incorrect));
    ok = false;
  }

  json->Add("lie_launches", metrics.launches);
  json->Add("lie_regressions", metrics.regressions);
  json->Add("lie_reverts", metrics.reverts);
  json->Add("lie_blacklist_size", metrics.blacklist_size);
  json->Add("lie_skipped_blacklist", metrics.skipped_blacklist);
  json->Add("lie_incorrect", incorrect);
  return ok;
}

/// Leg 3: the daemon tunes under >= 10% injected faults while clients
/// validate every answer. Guardrails must bound the launch count.
bool RunChaosLeg(BenchJson* json) {
  constexpr double kFaultRate = 0.10;
  constexpr int kClients = 2;
  bool ok = true;
  auto m = MarketplaceSystem::Create(SmallConfig());
  if (m == nullptr) {
    std::fprintf(stderr, "FAIL: marketplace setup\n");
    return false;
  }
  DefineInitialLayout(m.get());

  // Ground truth before the chaos starts (staging is fault-free anyway).
  struct Probe {
    std::string text;
    std::map<std::string, Value> params;
    std::set<std::string> truth;
  };
  std::vector<Probe> probes;
  for (int u = 0; u < 12; ++u) {
    for (const char* text : {workload::MarketplaceQueries::CartByUser(),
                             workload::MarketplaceQueries::UserCity(),
                             workload::MarketplaceQueries::OrdersOfUser()}) {
      Probe p{text, {{"$uid", Value::Int(u)}}, {}};
      auto t = m->sys.EvaluateOverStaging(p.text, p.params);
      BenchCheck(t.status(), "ground truth");
      p.truth = Canon(*t);
      probes.push_back(std::move(p));
    }
  }

  FaultInjector injector{/*seed=*/20260808};
  m->postgres.AttachFaultInjector(&injector, "postgres");
  m->redis.AttachFaultInjector(&injector, "redis");
  m->mongodb.AttachFaultInjector(&injector, "mongodb");
  m->spark.AttachFaultInjector(&injector, "spark");
  m->solr.AttachFaultInjector(&injector, "solr");
  FaultPlan plan;
  plan.transient_fault_rate = kFaultRate;
  for (const char* s : {"postgres", "redis", "mongodb", "spark", "solr"}) {
    injector.SetPlan(s, plan);
  }

  QueryServer server(&m->sys, ChaosServerOptions());
  MigrationManager manager(&server);
  AutopilotOptions opt;
  opt.advisor.min_count = 8;
  opt.advisor.min_mean_cost = 5.0;
  opt.cooldown_ticks = 10;
  opt.tick_period_micros = 5'000;
  // Small batches + deep retry budget: the same envelope bench_migration
  // proves out under this fault rate.
  opt.migration.batch_rows = 8;
  opt.migration.max_retries = 100000;
  opt.migration.retry_backoff_micros = 50;
  Autopilot pilot(&server, &manager, opt);

  std::printf("== leg 3: tuning under %d%% faults + %d clients ==\n",
              static_cast<int>(kFaultRate * 100), kClients);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> incorrect{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        const Probe& p = probes[i % probes.size()];
        auto r = server.Query(p.text, p.params);
        ++answered;
        if (!r.ok()) {
          ++failed;
        } else if (Canon(r->rows) != p.truth) {
          ++incorrect;
        }
        i += kClients;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  pilot.Start();
  const bool quiesced = AwaitQuiescence(&pilot, 60);
  pilot.Stop();
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  for (const char* s : {"postgres", "redis", "mongodb", "spark", "solr"}) {
    injector.SetPlan(s, FaultPlan{});
  }

  auto metrics = pilot.metrics();
  std::printf("%s\n", metrics.ToString().c_str());
  std::printf("traffic: %llu answered, %llu failed, %llu incorrect\n",
              static_cast<unsigned long long>(answered.load()),
              static_cast<unsigned long long>(failed.load()),
              static_cast<unsigned long long>(incorrect.load()));

  if (!quiesced) {
    std::fprintf(stderr, "FAIL: daemon never quiesced under faults\n");
    ok = false;
  }
  if (metrics.launches < 1 || metrics.completions < 1) {
    std::fprintf(stderr, "FAIL: no migration completed under faults\n");
    ok = false;
  }
  // No livelock: three hot lookup shapes can warrant at most one cutover
  // each; cooldown + blacklist + equivalent-fragment suppression must
  // keep retries from snowballing past that.
  if (metrics.launches > 6) {
    std::fprintf(stderr, "FAIL: %llu launches — migration livelock\n",
                 static_cast<unsigned long long>(metrics.launches));
    ok = false;
  }
  if (failed.load() != 0 || incorrect.load() != 0) {
    std::fprintf(stderr, "FAIL: chaos traffic saw %llu failed / %llu "
                 "incorrect answers\n",
                 static_cast<unsigned long long>(failed.load()),
                 static_cast<unsigned long long>(incorrect.load()));
    ok = false;
  }

  json->Add("chaos_fault_rate", kFaultRate);
  json->Add("chaos_answered", answered.load());
  json->Add("chaos_failed", failed.load());
  json->Add("chaos_incorrect", incorrect.load());
  json->Add("chaos_launches", metrics.launches);
  json->Add("chaos_completions", metrics.completions);
  json->Add("chaos_aborts", metrics.aborts);
  json->Add("chaos_reverts", metrics.reverts);
  return ok;
}

int Run() {
  BenchJson json("autopilot");
  const bool convergence = RunConvergenceLeg(&json);
  const bool lie = RunLyingCostModelLeg(&json);
  const bool chaos = RunChaosLeg(&json);
  json.Add("accepted_convergence", static_cast<uint64_t>(convergence));
  json.Add("accepted_cost_model_lies", static_cast<uint64_t>(lie));
  json.Add("accepted_chaos", static_cast<uint64_t>(chaos));
  json.Write();
  const bool ok = convergence && lie && chaos;
  std::printf("%s\n", ok ? "ACCEPTED: autonomous convergence, regression "
                           "revert, bounded chaos tuning"
                         : "REJECTED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace estocada::bench

int main() { return estocada::bench::Run(); }
