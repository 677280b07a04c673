/// Chaos benchmark of the online migration engine (src/migration): a live
/// re-fragmentation under concurrent traffic AND injected store faults.
///
/// Scenario: the §II cart-lookup query starts on an *unindexed* relational
/// fragment (every lookup scans). The migration engine rebuilds the carts
/// fragment as a key-value fragment on redis — backfill, delta catch-up
/// (an updater thread keeps inserting carts mid-flight), verification
/// against the staging truth, atomic cutover, retirement of the old
/// fragment — while:
///
///  * client threads hammer the serving path and validate every answer
///    against precomputed ground truth (acceptance: ZERO incorrect and
///    ZERO failed answers), and
///  * a FaultInjector fails >= 10% of reads on every store, including the
///    migration target (acceptance: the migration still completes,
///    absorbing the faults with its retry/pause envelope).
///
/// Afterwards the same workload is re-measured fault-free: the report
/// includes the post-cutover speedup (simulated cost, deterministic).
/// Emits BENCH_migration.json; exits non-zero when acceptance fails.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "migration/migration.h"
#include "pivot/parser.h"
#include "stores/fault.h"

namespace estocada::bench {
namespace {

using engine::Row;
using engine::Value;
using migration::MigrationManager;
using migration::MigrationOptions;
using migration::MigrationSpec;
using migration::MigrationStage;
using migration::MigrationStatus;
using pivot::Adornment;
using runtime::QueryServer;
using runtime::ServerOptions;
using stores::FaultInjector;
using stores::FaultPlan;

constexpr double kFaultRate = 0.10;
constexpr int kClients = 4;
constexpr int kProbeUsers = 16;

workload::MarketplaceConfig Config() {
  workload::MarketplaceConfig cfg;
  cfg.num_users = 400;
  cfg.num_products = 120;
  cfg.num_orders = 1500;
  cfg.num_visits = 3000;
  return cfg;
}

/// Deliberately mis-tuned starting layout: carts on an unindexed
/// relational fragment, so every cart lookup is a scan. The migration's
/// job is to fix exactly this.
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
                                   "postgres", {}, /*index_positions=*/{}),
             "carts (unindexed: the migration's reason to exist)");
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

/// Mean simulated cost of the cart-lookup workload (deterministic: the
/// cost model, not the clock).
double CartLookupCost(Estocada* sys, int probes) {
  double total = 0;
  for (int u = 0; u < probes; ++u) {
    auto r = sys->Query(workload::MarketplaceQueries::CartByUser(),
                        {{"$uid", Value::Int(u)}});
    BenchCheck(r.status(), "cart lookup cost probe");
    total += r->simulated_cost();
  }
  return total / probes;
}

int Run() {
  std::unique_ptr<MarketplaceSystem> m = MarketplaceSystem::Create(Config());
  if (m == nullptr) {
    std::fprintf(stderr, "marketplace setup failed\n");
    return 1;
  }
  DefineInitialLayout(m.get());

  FaultInjector injector{/*seed=*/20260806};
  m->postgres.AttachFaultInjector(&injector, "postgres");
  m->redis.AttachFaultInjector(&injector, "redis");
  m->mongodb.AttachFaultInjector(&injector, "mongodb");
  m->spark.AttachFaultInjector(&injector, "spark");
  m->solr.AttachFaultInjector(&injector, "solr");

  BenchJson json("migration");
  json.Add("injected_fault_rate", kFaultRate);
  json.Add("clients", static_cast<uint64_t>(kClients));

  // Fault-free cost of the old layout (the "before" of the speedup).
  const double pre_cost = CartLookupCost(&m->sys, kProbeUsers);

  // Ground truth for the probe queries the chaos clients validate. The
  // mid-flight updater only inserts carts for uids >= 900000, so these
  // answers are stable throughout.
  struct Probe {
    std::string text;
    std::map<std::string, Value> params;
    std::set<std::string> truth;
  };
  std::vector<Probe> probes;
  for (int u = 0; u < kProbeUsers; ++u) {
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

  QueryServer server(&m->sys, ChaosServerOptions());

  // >= 10% of reads on EVERY store fail, including the migration target.
  FaultPlan plan;
  plan.transient_fault_rate = kFaultRate;
  for (const char* s : {"postgres", "redis", "mongodb", "spark", "solr"}) {
    injector.SetPlan(s, plan);
  }

  // Small batches keep per-batch fault exposure low (each KV append reads
  // before writing); the deep retry budget absorbs the rest.
  MigrationOptions options;
  options.batch_rows = 8;
  options.max_rows_per_sec = 2000;  // ~0.2s of migration runway.
  options.max_retries = 100000;
  options.retry_backoff_micros = 50;

  MigrationSpec spec;
  auto view = pivot::ParseQuery("F_carts_kv(u, c) :- mk.carts(u, c)");
  BenchCheck(view.status(), "target view");
  spec.view.query = *view;
  spec.view.adornments = {Adornment::kInput, Adornment::kFree};
  spec.store_name = "redis";
  spec.retire = {"F_carts"};

  std::printf("== live re-fragmentation under %d%% faults + %d clients ==\n",
              static_cast<int>(kFaultRate * 100), kClients);
  MigrationManager manager(&server);
  auto id = manager.Start(spec, options);
  BenchCheck(id.status(), "start migration");

  std::atomic<bool> migration_done{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> incorrect{0};

  // Client threads: validate every answer until the migration terminates
  // (and at least one full probe pass). The short think time between
  // queries matters: a zero-gap closed loop holds the server's shared
  // lock back-to-back, and the platform rwlock lets readers starve the
  // migration's exclusive-lock batches indefinitely.
  const auto client_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      do {
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
      } while ((!migration_done.load(std::memory_order_acquire) ||
                i < probes.size()) &&
               std::chrono::steady_clock::now() < client_deadline);
    });
  }
  // Updater thread: carts for fresh uids land mid-migration, exercising
  // delta capture + catch-up without disturbing the probe truths.
  std::thread updater([&] {
    int64_t uid = 900000;
    while (!migration_done.load(std::memory_order_acquire)) {
      Status st = server.InsertRow(
          "mk.carts", {Value::Int(uid), Value::List({Value::Int(uid % 7)})});
      if (!st.ok()) {
        std::fprintf(stderr, "updater insert failed: %s\n",
                     st.ToString().c_str());
        std::abort();
      }
      ++uid;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Watchdog: if the migration wedges, abort it so the bench reports a
  // rejection instead of hanging.
  while (std::chrono::steady_clock::now() < client_deadline) {
    auto status = manager.GetStatus(*id);
    BenchCheck(status.status(), "status poll");
    if (status->stage == MigrationStage::kRetired ||
        status->stage == MigrationStage::kAborted) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  (void)manager.Abort(*id);  // No-op when already terminal.
  auto final_status = manager.Wait(*id);
  migration_done.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  updater.join();
  BenchCheck(final_status.status(), "wait");
  const MigrationStatus& ms = *final_status;

  // Quiesce the chaos and measure the new layout.
  for (const char* s : {"postgres", "redis", "mongodb", "spark", "solr"}) {
    injector.SetPlan(s, FaultPlan{});
  }
  const double post_cost = CartLookupCost(&m->sys, kProbeUsers);
  const double speedup = post_cost > 0 ? pre_cost / post_cost : 0;

  std::printf("migration: %s\n", ms.ToString().c_str());
  std::printf("traffic:   %llu answered, %llu failed, %llu incorrect\n",
              static_cast<unsigned long long>(answered.load()),
              static_cast<unsigned long long>(failed.load()),
              static_cast<unsigned long long>(incorrect.load()));
  std::printf("cart lookup cost: %.1f -> %.1f (speedup %.1fx)\n", pre_cost,
              post_cost, speedup);

  json.Add("stage", std::string(migration::StageName(ms.stage)));
  json.Add("chaos_answered", answered.load());
  json.Add("chaos_failed", failed.load());
  json.Add("chaos_incorrect", incorrect.load());
  json.Add("rows_copied", ms.metrics.rows_copied);
  json.Add("batches", ms.metrics.batches);
  json.Add("throttle_stalls", ms.metrics.throttle_stalls);
  json.Add("deltas_captured", ms.metrics.deltas_captured);
  json.Add("deltas_replayed", ms.metrics.deltas_replayed);
  json.Add("rebuilds", ms.metrics.rebuilds);
  json.Add("target_retries", ms.metrics.target_retries);
  json.Add("breaker_pauses", ms.metrics.breaker_pauses);
  json.Add("cutover_epoch", ms.metrics.cutover_epoch);
  json.Add("pre_cutover_cart_cost", pre_cost);
  json.Add("post_cutover_cart_cost", post_cost);
  json.Add("post_cutover_speedup", speedup);
  json.Write();

  // ------------------------------------------------------- acceptance --
  bool ok = true;
  if (ms.stage != MigrationStage::kRetired) {
    std::fprintf(stderr, "FAIL: migration did not retire: %s\n",
                 ms.ToString().c_str());
    ok = false;
  }
  if (failed.load() != 0 || incorrect.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: traffic saw %llu failed / %llu incorrect answers\n",
                 static_cast<unsigned long long>(failed.load()),
                 static_cast<unsigned long long>(incorrect.load()));
    ok = false;
  }
  if (speedup <= 1.0) {
    std::fprintf(stderr, "FAIL: no post-cutover speedup (%.2fx)\n", speedup);
    ok = false;
  }
  Status verify = m->sys.VerifyFragment("F_carts_kv");
  if (!verify.ok()) {
    std::fprintf(stderr, "FAIL: post-cutover verification: %s\n",
                 verify.ToString().c_str());
    ok = false;
  }
  std::printf("%s\n", ok ? "ACCEPTED: zero failed, zero incorrect, "
                           "post-cutover speedup achieved"
                         : "REJECTED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace estocada::bench

int main() { return estocada::bench::Run(); }
