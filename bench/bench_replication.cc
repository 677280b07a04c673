/// Chaos benchmark: K-way fragment replication as availability. The hot
/// marketplace fragments (users, orders) are replicated K=3 across three
/// relational instances ("postgres"/"pg2"/"pg3"); the rest of the layout
/// is the standard single-placement hybrid. Phases:
///
///  * healthy baseline — closed-loop workload mix, no faults;
///  * sequential kill — each replica instance hard-killed in turn, then a
///    double kill leaving one survivor: every answer is validated against
///    the staging ground truth, and staging fallback is *forbidden* while
///    at least one replica is healthy (that is the acceptance bar, not
///    just a statistic);
///  * triple kill — all three instances down: answers must still be
///    correct, now via the degradation ladder's staging bottom;
///  * self-healing — live writes race an outage, the stale replica is
///    rebuilt by repairer ticks under traffic, and the healed deployment
///    must converge to fresh, digest-identical, verified replicas;
///  * unreplicated control — the same layout without replicas shows what
///    the outage costs when only rewriting multiplicity is left.
///
/// Emits BENCH_replication.json; scripts/bench_compare.py gates the
/// zero-valued robustness counters against bench/baselines/replication.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/strings.h"
#include "replication/repairer.h"
#include "runtime/query_server.h"
#include "stores/fault.h"

namespace estocada::bench {
namespace {

using ::estocada::StrCat;
using engine::Row;
using engine::Value;
using pivot::Adornment;
using replication::ReplicaRepairer;
using runtime::MetricsSnapshot;
using runtime::QueryServer;
using runtime::ServerOptions;
using stores::FaultInjector;

constexpr char kUsersQuery[] = "q(u, n, c) :- mk.users(u, n, c)";

workload::MarketplaceConfig Config() {
  workload::MarketplaceConfig cfg;
  cfg.num_users = 300;
  cfg.num_products = 100;
  cfg.num_orders = 1200;
  cfg.num_visits = 3000;
  return cfg;
}

/// The single-placement part of the layout, shared by the replicated
/// deployment and the unreplicated control.
void DefineUnreplicatedTail(Estocada* sys) {
  BenchCheck(sys->DefineFragment("F_carts(u, c) :- mk.carts(u, c)", "redis",
                                 {Adornment::kInput, Adornment::kFree}),
             "carts");
  BenchCheck(sys->DefineFragment(
                 "F_prod(p, n, cat, pr) :- mk.products(p, n, cat, pr)",
                 "mongodb", {}, {0, 2}),
             "products");
  BenchCheck(sys->DefineFragment("F_visits(u, p, d) :- mk.visits(u, p, d)",
                                 "spark", {}, {0, 1}),
             "visits");
  BenchCheck(sys->DefineFragment("F_terms(p, w) :- mk.prodterms(p, w)",
                                 "solr",
                                 {Adornment::kFree, Adornment::kInput}),
             "terms");
}

/// Marketplace deployment with two extra relational instances and the hot
/// fragments replicated K=3 across the relational trio.
struct ReplicatedFixture {
  std::unique_ptr<MarketplaceSystem> m;
  stores::RelationalStore pg2;
  stores::RelationalStore pg3;
  FaultInjector injector{/*seed=*/20260808};

  static std::unique_ptr<ReplicatedFixture> Create() {
    auto f = std::make_unique<ReplicatedFixture>();
    f->m = MarketplaceSystem::Create(Config());
    if (f->m == nullptr) {
      std::fprintf(stderr, "marketplace setup failed\n");
      std::abort();
    }
    BenchCheck(f->m->sys.RegisterStore({"pg2",
                                        catalog::StoreKind::kRelational,
                                        &f->pg2, nullptr, nullptr, nullptr,
                                        nullptr}),
               "pg2");
    BenchCheck(f->m->sys.RegisterStore({"pg3",
                                        catalog::StoreKind::kRelational,
                                        &f->pg3, nullptr, nullptr, nullptr,
                                        nullptr}),
               "pg3");
    BenchCheck(f->m->sys.DefineReplicatedFragment(
                   "F_users(u, n, c) :- mk.users(u, n, c)",
                   {"postgres", "pg2", "pg3"}, {}, {0}),
               "users x3");
    BenchCheck(f->m->sys.DefineReplicatedFragment(
                   "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)",
                   {"postgres", "pg2", "pg3"}, {}, {1, 2}),
               "orders x3");
    DefineUnreplicatedTail(&f->m->sys);
    f->m->postgres.AttachFaultInjector(&f->injector, "postgres");
    f->pg2.AttachFaultInjector(&f->injector, "pg2");
    f->pg3.AttachFaultInjector(&f->injector, "pg3");
    f->m->redis.AttachFaultInjector(&f->injector, "redis");
    f->m->mongodb.AttachFaultInjector(&f->injector, "mongodb");
    f->m->spark.AttachFaultInjector(&f->injector, "spark");
    f->m->solr.AttachFaultInjector(&f->injector, "solr");
    return f;
  }
};

ServerOptions Options() {
  ServerOptions options;
  options.fault_tolerant = true;
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_micros = 20;
  options.retry.max_backoff_micros = 2'000;
  options.retry.deadline_micros = 0;
  options.health.failure_threshold = 3;
  options.health.open_cooldown_micros = 20'000;
  return options;
}

std::set<std::string> Canon(const std::vector<Row>& rows) {
  std::set<std::string> out;
  for (const Row& r : rows) out.insert(engine::RowToString(r));
  return out;
}

/// Shapes over the replicated fragments, validated against ground truth
/// in every outage phase.
struct Shape {
  std::string text;
  std::map<std::string, Value> params;
};

std::vector<Shape> ReplicatedShapes() {
  std::vector<Shape> shapes;
  for (int u = 0; u < 8; ++u) {
    shapes.push_back({workload::MarketplaceQueries::OrdersOfUser(),
                      {{"$uid", Value::Int(u)}}});
    shapes.push_back({workload::MarketplaceQueries::UserCity(),
                      {{"$uid", Value::Int(u)}}});
  }
  return shapes;
}

struct PhaseResult {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  /// Answers that fell back to staging — forbidden while a replica lives.
  uint64_t degraded = 0;
  uint64_t reroutes = 0;
};

/// Serves every shape, validating rows against the staging truth.
PhaseResult RunShapes(QueryServer* server, Estocada* sys,
                      const std::vector<Shape>& shapes) {
  PhaseResult out;
  server->ResetMetrics();
  for (const Shape& s : shapes) {
    auto truth = sys->EvaluateOverStaging(s.text, s.params);
    BenchCheck(truth.status(), "ground truth");
    auto r = server->Query(s.text, s.params);
    if (!r.ok()) {
      ++out.failed;
      continue;
    }
    ++out.ok;
    if (Canon(r->rows) != Canon(*truth)) ++out.mismatches;
    if (r->degraded_to_staging) ++out.degraded;
  }
  out.reroutes = server->metrics().reroutes;
  return out;
}

void AddPhaseJson(BenchJson* json, const std::string& prefix,
                  const PhaseResult& p) {
  json->Add(prefix + "_ok", p.ok);
  json->Add(prefix + "_failed", p.failed);
  json->Add(prefix + "_mismatches", p.mismatches);
  json->Add(prefix + "_degraded", p.degraded);
  json->Add(prefix + "_reroutes", p.reroutes);
}

void PrintPhase(const char* name, const PhaseResult& p) {
  std::printf("%-18s %6llu ok %5llu failed %5llu wrong %5llu degraded "
              "%5llu reroutes\n",
              name, static_cast<unsigned long long>(p.ok),
              static_cast<unsigned long long>(p.failed),
              static_cast<unsigned long long>(p.mismatches),
              static_cast<unsigned long long>(p.degraded),
              static_cast<unsigned long long>(p.reroutes));
}

int Run() {
  std::unique_ptr<ReplicatedFixture> fixture = ReplicatedFixture::Create();
  ReplicatedFixture& f = *fixture;
  Estocada& sys = f.m->sys;
  const std::vector<Shape> shapes = ReplicatedShapes();
  BenchJson json("replication");
  json.Add("replication_factor", static_cast<uint64_t>(3));
  json.Add("shapes_per_phase", static_cast<uint64_t>(shapes.size()));

  QueryServer server(&sys, Options());
  bool pass = true;

  // -------------------------------------------------- healthy baseline --
  std::printf("== K=3 replication under sequential kills ==\n");
  PhaseResult healthy = RunShapes(&server, &sys, shapes);
  PrintPhase("healthy", healthy);
  AddPhaseJson(&json, "healthy", healthy);
  pass = pass && healthy.failed == 0 && healthy.mismatches == 0 &&
         healthy.degraded == 0;

  // -------------------------------------------------- sequential kills --
  // Each instance of the trio dies in turn; the replicated shapes must
  // keep answering correctly out of the sibling replicas, never out of
  // the staging area.
  for (const char* victim : {"postgres", "pg2", "pg3"}) {
    f.injector.SetOutage(victim, true);
    PhaseResult p = RunShapes(&server, &sys, shapes);
    std::string name = StrCat("kill_", victim);
    PrintPhase(name.c_str(), p);
    AddPhaseJson(&json, name, p);
    pass = pass && p.failed == 0 && p.mismatches == 0 && p.degraded == 0;
    f.injector.SetOutage(victim, false);
    server.health().Reset();
  }

  // The same kill sweep under 10% transient read faults on the whole
  // trio: retries and sibling re-routes absorb the noise. The gate here
  // is correctness — staging fallback is possible only in the rare
  // window where every surviving breaker is open at once, i.e. when no
  // replica is healthy by the breaker's own definition.
  stores::FaultPlan noisy;
  noisy.transient_fault_rate = 0.10;
  for (const char* s : {"postgres", "pg2", "pg3"}) f.injector.SetPlan(s, noisy);
  for (const char* victim : {"postgres", "pg2", "pg3"}) {
    f.injector.SetOutage(victim, true);
    PhaseResult p = RunShapes(&server, &sys, shapes);
    std::string name = StrCat("faulty_kill_", victim);
    PrintPhase(name.c_str(), p);
    AddPhaseJson(&json, name, p);
    pass = pass && p.failed == 0 && p.mismatches == 0;
    f.injector.SetOutage(victim, false);
    server.health().Reset();
  }
  for (const char* s : {"postgres", "pg2", "pg3"}) {
    f.injector.SetPlan(s, stores::FaultPlan{});
  }

  // Double kill: one survivor carries all the replicated traffic.
  f.injector.SetOutage("postgres", true);
  f.injector.SetOutage("pg2", true);
  PhaseResult doublekill = RunShapes(&server, &sys, shapes);
  PrintPhase("kill_two", doublekill);
  AddPhaseJson(&json, "doublekill", doublekill);
  pass = pass && doublekill.failed == 0 && doublekill.mismatches == 0 &&
         doublekill.degraded == 0;

  // Triple kill: no replica left — now (and only now) the staging bottom
  // of the ladder answers, still correctly.
  f.injector.SetOutage("pg3", true);
  PhaseResult triplekill = RunShapes(&server, &sys, shapes);
  PrintPhase("kill_all", triplekill);
  AddPhaseJson(&json, "triplekill", triplekill);
  pass = pass && triplekill.failed == 0 && triplekill.mismatches == 0 &&
         triplekill.degraded > 0;
  f.injector.SetOutage("postgres", false);
  f.injector.SetOutage("pg2", false);
  f.injector.SetOutage("pg3", false);
  server.health().Reset();

  // ------------------------------------- self-healing under live load --
  // Writes race a pg3 outage (the fan-out skips the dead instance and its
  // placements go stale), clients keep reading, then repairer ticks heal
  // the deployment back to fresh, digest-identical, verified replicas.
  std::printf("\n== self-healing: writes + outage + repair under load ==\n");
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> heal_client_failures{0};
  std::atomic<uint64_t> heal_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        auto r = server.Query(kUsersQuery);
        heal_reads.fetch_add(1);
        if (!r.ok()) heal_client_failures.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  f.injector.SetOutage("pg3", true);
  for (int i = 0; i < 20; ++i) {
    Row row = {Value::Int(700'000 + i), Value::Str(StrCat("user", i)),
               Value::Str(StrCat("city", i % 7))};
    BenchCheck(server.InsertRow("mk.users", row), "insert under outage");
  }
  f.injector.SetOutage("pg3", false);

  replication::RepairOptions ropts;
  ropts.retry_backoff_micros = 20;
  ReplicaRepairer repairer(&server, ropts);
  uint64_t rebuilds = 0;
  bool converged = false;
  for (int i = 0; i < 200 && !converged; ++i) {
    auto n = repairer.Tick();
    BenchCheck(n.status(), "repair tick");
    rebuilds += *n;
    auto users = sys.catalog().GetFragment("F_users");
    auto orders = sys.catalog().GetFragment("F_orders");
    BenchCheck(users.status(), "users descriptor");
    BenchCheck(orders.status(), "orders descriptor");
    converged = true;
    for (const catalog::StorageDescriptor* desc : {*users, *orders}) {
      const catalog::ShardState& shard = desc->shards[0];
      for (size_t i = 0; i < shard.replicas.size(); ++i) {
        if (!shard.replica_available(i)) converged = false;
      }
    }
    if (!converged) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  // The healed replicas must be verified truth and digest-identical —
  // re-admission of a divergent container is the one unforgivable sin.
  uint64_t digest_mismatch = 0;
  for (const char* frag : {"F_users", "F_orders"}) {
    std::vector<uint64_t> digests;
    for (size_t i = 0; i < 3; ++i) {
      if (!sys.VerifyReplica(frag, 0, i).ok()) ++digest_mismatch;
      auto d = sys.ReplicaDigest(frag, 0, i);
      BenchCheck(d.status(), "digest");
      digests.push_back(*d);
    }
    if (digests[0] != digests[1] || digests[1] != digests[2]) {
      ++digest_mismatch;
    }
  }
  std::printf("healed: %llu rebuilds, %llu reads (%llu failed), "
              "converged=%d, digest_mismatches=%llu, server rebuild "
              "counter=%llu\n",
              static_cast<unsigned long long>(rebuilds),
              static_cast<unsigned long long>(heal_reads.load()),
              static_cast<unsigned long long>(heal_client_failures.load()),
              converged ? 1 : 0,
              static_cast<unsigned long long>(digest_mismatch),
              static_cast<unsigned long long>(
                  server.metrics().replica_rebuilds));
  json.Add("heal_rebuilds", rebuilds);
  json.Add("heal_replica_rebuilds_counter", server.metrics().replica_rebuilds);
  json.Add("heal_reroutes_counter", server.metrics().reroutes);
  json.Add("heal_reads", heal_reads.load());
  json.Add("heal_client_failures", heal_client_failures.load());
  json.Add("heal_unconverged", static_cast<uint64_t>(converged ? 0 : 1));
  json.Add("heal_digest_mismatch", digest_mismatch);
  pass = pass && heal_client_failures.load() == 0 && converged &&
         rebuilds >= 1 && digest_mismatch == 0;

  // ---------------------------------------------- unreplicated control --
  // Same layout, no replicas: the same postgres outage now costs staging
  // fallback for every users/orders shape — the value of K=3 in one line.
  std::printf("\n== unreplicated control: the same outage without K=3 ==\n");
  std::unique_ptr<MarketplaceSystem> control =
      MarketplaceSystem::Create(Config());
  if (control == nullptr) {
    std::fprintf(stderr, "control setup failed\n");
    std::abort();
  }
  BenchCheck(control->sys.DefineFragment(
                 "F_users(u, n, c) :- mk.users(u, n, c)", "postgres", {}, {0}),
             "control users");
  BenchCheck(control->sys.DefineFragment(
                 "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)", "postgres",
                 {}, {1, 2}),
             "control orders");
  DefineUnreplicatedTail(&control->sys);
  FaultInjector control_injector{/*seed=*/7};
  control->postgres.AttachFaultInjector(&control_injector, "postgres");
  QueryServer control_server(&control->sys, Options());
  control_injector.SetOutage("postgres", true);
  PhaseResult unreplicated = RunShapes(&control_server, &control->sys, shapes);
  PrintPhase("control_outage", unreplicated);
  json.Add("unreplicated_outage_degraded", unreplicated.degraded);
  json.Add("unreplicated_outage_mismatches", unreplicated.mismatches);
  pass = pass && unreplicated.degraded > 0 && unreplicated.mismatches == 0;

  json.Write();
  std::printf("\nacceptance: 0 wrong answers, 0 staging fallbacks while a "
              "replica lives, healed digests identical -> %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace estocada::bench

int main() { return estocada::bench::Run(); }
