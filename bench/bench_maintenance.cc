/// Ablation A1 (beyond the paper's demo, supporting its "fragments are
/// materialized views" design): incremental view maintenance vs. full
/// re-materialization when the application keeps inserting data after the
/// fragments exist. The delta rule makes per-tuple maintenance cost
/// proportional to the *delta*, not the dataset — the property that makes
/// LAV fragments viable for live systems.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.h"

namespace estocada::bench {
namespace {

using engine::Value;

std::unique_ptr<MarketplaceSystem> MakeSystem(size_t orders) {
  workload::MarketplaceConfig cfg;
  cfg.num_users = 400;
  cfg.num_products = 100;
  cfg.num_orders = orders;
  cfg.num_visits = 2 * orders;
  auto m = MarketplaceSystem::Create(cfg);
  BenchCheck(m->sys.DefineFragment(
                 "F_orders(o, u, p, t) :- mk.orders(o, u, p, t)", "postgres",
                 {}, {1}),
             "orders");
  BenchCheck(m->sys.DefineFragment(
                 "F_pjoin(u, p) :- mk.orders(o, u, p, t), mk.visits(u, p, d)",
                 "spark"),
             "pjoin");
  return m;
}

/// Incremental: InsertRow maintains both fragments via the delta rule.
void BM_IncrementalInsert(benchmark::State& state) {
  auto m = MakeSystem(static_cast<size_t>(state.range(0)));
  int64_t next_oid = 1000000;
  for (auto _ : state) {
    Status st = m->sys.InsertRow(
        "mk.orders", {Value::Int(next_oid++), Value::Int(next_oid % 400),
                      Value::Int(next_oid % 100), Value::Real(9.5)});
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel("delta maintenance");
}
BENCHMARK(BM_IncrementalInsert)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMicrosecond);

/// Baseline: the same insert followed by dropping + re-materializing the
/// join fragment (what a system without maintenance must do).
void BM_FullRematerialization(benchmark::State& state) {
  auto m = MakeSystem(static_cast<size_t>(state.range(0)));
  int64_t next_oid = 1000000;
  for (auto _ : state) {
    Status st = m->sys.LoadRow(
        "mk.orders", {Value::Int(next_oid++), Value::Int(next_oid % 400),
                      Value::Int(next_oid % 100), Value::Real(9.5)});
    if (st.ok()) st = m->sys.DropFragment("F_pjoin");
    if (st.ok()) {
      st = m->sys.DefineFragment(
          "F_pjoin(u, p) :- mk.orders(o, u, p, t), mk.visits(u, p, d)",
          "spark");
    }
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel("drop + rebuild");
}
BENCHMARK(BM_FullRematerialization)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMicrosecond);

/// Times both strategies at 2,000 and 8,000 orders, prints the table and
/// writes BENCH_maintenance.json: delta µs per insert at each size, the
/// rebuild/delta ratio at each size, and the 8,000/2,000 delta ratio —
/// ratios taken in one run, so they compare across machines.
void PrintSummary() {
  std::printf("\n== A1 (ablation): incremental fragment maintenance vs "
              "rebuild ==\n");
  std::printf("%8s | %18s %18s | %8s\n", "orders", "delta (us/insert)",
              "rebuild (us/insert)", "ratio");
  BenchJson json("maintenance");
  double delta_us_at_2000 = 0;
  for (size_t orders : {2000, 8000}) {
    auto inc = MakeSystem(orders);
    auto reb = MakeSystem(orders);
    auto time_us = [](auto&& fn, int reps) {
      auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < reps; ++i) fn(i);
      auto stop = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::micro>(stop - start)
                 .count() /
             reps;
    };
    double inc_us = time_us(
        [&](int i) {
          BenchCheck(inc->sys.InsertRow(
                         "mk.orders",
                         {Value::Int(2000000 + i), Value::Int(i % 400),
                          Value::Int(i % 100), Value::Real(1.0)}),
                     "inc insert");
        },
        200);
    double reb_us = time_us(
        [&](int i) {
          BenchCheck(reb->sys.LoadRow(
                         "mk.orders",
                         {Value::Int(2000000 + i), Value::Int(i % 400),
                          Value::Int(i % 100), Value::Real(1.0)}),
                     "load");
          BenchCheck(reb->sys.DropFragment("F_pjoin"), "drop");
          BenchCheck(reb->sys.DefineFragment(
                         "F_pjoin(u, p) :- mk.orders(o, u, p, t), "
                         "mk.visits(u, p, d)",
                         "spark"),
                     "rebuild");
        },
        5);
    std::printf("%8zu | %18.1f %18.0f | %7.1fx\n", orders, inc_us, reb_us,
                reb_us / inc_us);
    const std::string at = std::to_string(orders);
    json.Add("delta_" + at + "_us", inc_us);
    json.Add("rebuild_over_delta_" + at, reb_us / inc_us);
    if (orders == 2000) {
      delta_us_at_2000 = inc_us;
    } else {
      json.Add("delta_8000_over_2000", inc_us / delta_us_at_2000);
    }
  }
  std::printf("(delta maintenance scales with the affected rows; rebuild "
              "re-joins the whole dataset per insert.)\n");
  json.Write();
}

}  // namespace
}  // namespace estocada::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  estocada::bench::PrintSummary();
  return 0;
}
