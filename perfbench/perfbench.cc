/// End-to-end benchmark program: one workload per run, served by a
/// runtime::QueryServer over the marketplace hybrid layout, from a single
/// closed-loop client thread.
///
///   perfbench --workload <serve_warm|adhoc_rewrite|join_ingest>
///             --seed <n> --seconds <s> --trace <0|1> [--check <0|1>]
///             [--trace-out <file>]
///
/// --trace 0 runs one trial: set-up, warm-up, the timed loop for --seconds,
/// then (with --check 1, the default) the staging-oracle check. It prints
/// human-readable lines and, as the last line of stdout, one JSON object
/// with the trial's raw latency samples, its set-up time, host-probe time,
/// store cost per read and peak RSS. perfbench/run.py runs ten such trials
/// as separate processes and pools them into the end-to-end metrics.
/// --trace 1 replays the operation sequence through the public layer
/// functions, records a span around each call, and prints the per-layer
/// metrics as the result object {correct, attempted, failed, metrics}.
/// perfbench/README.md lists the workloads, the metrics and which layer
/// metric should move which end-to-end metric.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "estocada/estocada.h"
#include "pivot/parser.h"
#include "rewriting/planner.h"
#include "runtime/canonical.h"
#include "runtime/plan_cache.h"
#include "runtime/query_server.h"
#include "workload/marketplace.h"

namespace estocada::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using engine::Row;
using engine::Value;
using pivot::Adornment;
using Params = std::map<std::string, Value>;
using QueryResult = Estocada::QueryResult;

/// The marketplace database is the same for every seed; --seed drives the
/// traffic (which queries, which keys, which inserted rows). Holding the
/// data fixed keeps each Zipf-head user's order count, and so the latency
/// tail, the same across seeds.
constexpr uint64_t kDataSeed = 42;
/// Worker threads of the parallel store. One: on a small shared host a
/// scan fanned out over several threads waits on whichever thread the
/// host runs last, which made join_ingest's read latency swing by 2x from
/// one process to the next.
constexpr size_t kSparkWorkers = 1;
/// Capacity reserved, and touched, for each latency sample buffer up
/// front, so that peak RSS does not grow with the number of operations a
/// faster program gets through (about 8x serve_warm's reads per trial).
constexpr size_t kSampleCap = size_t{1} << 19;
/// Reads per shape the staging oracle re-checks: the first kOracleFirst,
/// plus up to kOracleHead by the Zipf-head users 0 and 1.
constexpr int kOracleFirst = 6;
constexpr int kOracleHead = 4;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what, st);
}

// ------------------------------------------------------------ workloads --

enum Shape { kCart, kCity, kOrders, kSearch, kCategory, kNumShapes };

const char* ShapeName(int s) {
  static const char* kNames[] = {"cart_lookup", "user_city", "orders_of_user",
                                 "personalized_search",
                                 "products_in_category"};
  return kNames[s];
}

const char* ShapeText(int s) {
  using Q = workload::MarketplaceQueries;
  switch (s) {
    case kCart: return Q::CartByUser();
    case kCity: return Q::UserCity();
    case kOrders: return Q::OrdersOfUser();
    case kSearch: return Q::PersonalizedSearch();
    default: return Q::ProductsInCategory();
  }
}

bool ShapeHasUser(int s) { return s != kCategory; }
bool ShapeHasCategory(int s) { return s == kSearch || s == kCategory; }

struct Workload {
  const char* name;
  size_t users, products, orders, visits;
  /// Layout includes the materialized join F_pjoin.
  bool pjoin;
  /// Constants inlined into each query text instead of `$` parameters,
  /// keys drawn without replacement: every read is a new query text.
  bool inline_constants;
  double mix[kNumShapes];
  /// Share of the timed loop's operations that insert a new row beside the
  /// reads (join_ingest: 10%).
  double write_share;
  /// Share of the measuring time spent, after the reads, in a phase that
  /// only inserts rows. Read-only workloads use it to time writes against
  /// their layout without putting writes among their reads.
  double write_phase;
  /// The first `window` reads after warm-up form the count window: every
  /// count-based metric (store cost, hit rate, pacb and store counts) is
  /// taken over it, so it repeats exactly for a seed. A run always
  /// completes the window, even past --seconds, and likewise at least
  /// `write_window` inserts of the write phase.
  size_t window;
  size_t write_window;
};

const Workload kWorkloads[] = {
    {"serve_warm", 800, 200, 3000, 8000, true, false,
     {0.30, 0.25, 0.20, 0.13, 0.12}, 0, 0.15, 20000, 20},
    {"adhoc_rewrite", 800, 200, 3000, 8000, true, true,
     {0.08, 0.08, 0.12, 0.70, 0.02}, 0, 0.15, 2000, 20},
    {"join_ingest", 2000, 500, 8000, 20000, false, false,
     {0, 0, 0, 1.0, 0}, 0.10, 0, 500, 0},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

workload::MarketplaceConfig DataConfig(const Workload& w) {
  workload::MarketplaceConfig cfg;
  cfg.seed = kDataSeed;
  cfg.num_users = w.users;
  cfg.num_products = w.products;
  cfg.num_orders = w.orders;
  cfg.num_visits = w.visits;
  cfg.zipf_theta = 0.8;
  return cfg;
}

/// One client operation: a read (query text + parameters) or an insert.
struct Op {
  bool write = false;
  int shape = kCart;
  int64_t uid = -1;  ///< Key user of a read (-1: none), for oracle sampling.
  std::string text;
  Params params;
  std::string relation;
  Row row;
};

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  for (size_t pos = s->find(from); pos != std::string::npos;
       pos = s->find(from, pos + to.size())) {
    s->replace(pos, from.size(), to);
  }
}

/// Deterministic, endless operation sequence of one workload and seed.
class OpStream {
 public:
  OpStream(const Workload& w, const workload::MarketplaceData& data,
           uint64_t seed)
      : w_(w), data_(data), rng_(seed), next_oid_(w.orders) {
    for (int s = 0; s < kNumShapes; ++s) {
      double total = 0;
      for (size_t k = 0; k < NumKeys(s); ++k) {
        total += KeyWeight(s, k);
        key_cdf_[s].push_back(total);
      }
      for (double& c : key_cdf_[s]) c /= total;
    }
    if (w_.inline_constants) BuildKeyOrders();
  }

  Op Next() {
    if (rng_.NextDouble() < w_.write_share) return NextWrite();
    double total = 0;
    for (double m : w_.mix) total += m;
    double draw = rng_.NextDouble() * total;
    int shape = 0;
    while (shape + 1 < kNumShapes && (draw -= w_.mix[shape]) >= 0) ++shape;
    auto [uid, cat] =
        w_.inline_constants ? NextUnusedKey(shape) : DrawKey(shape);
    return MakeRead(shape, ShapeHasUser(shape) ? uid : -1,
                    ShapeHasCategory(shape) ? cat : -1, w_.inline_constants);
  }

  /// An insert of a new mk.orders or mk.visits row, drawn as the
  /// generator draws the data: user and product Zipf(theta) by rank, and
  /// orders against visits in the data's own ratio.
  Op NextWrite() {
    Op op;
    op.write = true;
    const double theta = data_.config.zipf_theta;
    auto uid = static_cast<int64_t>(rng_.Zipf(w_.users, theta));
    auto pid = static_cast<int64_t>(rng_.Zipf(w_.products, theta));
    const double orders = static_cast<double>(w_.orders);
    if (rng_.Chance(orders / (orders + static_cast<double>(w_.visits)))) {
      op.relation = "mk.orders";
      const Row& product =
          data_.staging.at("mk.products").rows[static_cast<size_t>(pid)];
      op.row = {Value::Int(next_oid_++), Value::Int(uid), Value::Int(pid),
                product[3]};
    } else {
      op.relation = "mk.visits";
      op.row = {Value::Int(uid), Value::Int(pid),
                Value::Int(static_cast<int64_t>(rng_.Uniform(365)))};
    }
    return op;
  }

  /// A read with the given keys; with `inline_constants` the keys are
  /// spelled into the text, otherwise bound as `$uid` / `$cat`.
  static Op MakeRead(int shape, int64_t uid, int64_t cat,
                     bool inline_constants) {
    Op op;
    op.shape = shape;
    op.uid = uid;
    op.text = ShapeText(shape);
    std::string cat_name = "cat" + std::to_string(cat);
    if (inline_constants) {
      ReplaceAll(&op.text, "$uid", std::to_string(uid));
      ReplaceAll(&op.text, "$cat", "'" + cat_name + "'");
    } else {
      if (uid >= 0) op.params["$uid"] = Value::Int(uid);
      if (cat >= 0) op.params["$cat"] = Value::Str(cat_name);
    }
    return op;
  }

 private:
  static constexpr size_t kKeyBlock = 500;

  size_t NumCategories() const { return data_.config.num_categories; }

  /// Keys of `shape` are numbered user-major: k = user * categories + cat
  /// (a shape without users or categories has one value of that part).
  size_t NumKeys(int shape) const {
    return (ShapeHasUser(shape) ? w_.users : 1) *
           (ShapeHasCategory(shape) ? NumCategories() : 1);
  }
  std::pair<int64_t, int64_t> KeyAt(int shape, size_t k) const {
    size_t cats = ShapeHasCategory(shape) ? NumCategories() : 1;
    return {static_cast<int64_t>(k / cats), static_cast<int64_t>(k % cats)};
  }
  /// Users are Zipf-popular by rank (user 0 most); categories uniform.
  double KeyWeight(int shape, size_t k) const {
    if (!ShapeHasUser(shape)) return 1;
    auto user = static_cast<double>(KeyAt(shape, k).first);
    return std::pow(user + 1, -data_.config.zipf_theta);
  }

  /// The (user, category) key of a read of `shape`, by systematic
  /// sampling in blocks of kKeyBlock draws per shape over the shape's
  /// Zipf-weighted keys: within a block each key appears within one of its
  /// expected count, in random order. Plain independent draws would let
  /// the number of reads of the few heaviest keys (the head users' answers
  /// are by far the largest) swing store cost and tail latency from seed
  /// to seed.
  std::pair<int64_t, int64_t> DrawKey(int shape) {
    std::vector<std::pair<int64_t, int64_t>>& block = key_block_[shape];
    size_t& pos = block_pos_[shape];
    if (pos == block.size()) {
      const std::vector<double>& cdf = key_cdf_[shape];
      const double offset = rng_.NextDouble();
      block.clear();
      for (size_t i = 0; i < kKeyBlock; ++i) {
        double x = (static_cast<double>(i) + offset) / kKeyBlock;
        block.push_back(KeyAt(
            shape, static_cast<size_t>(
                       std::lower_bound(cdf.begin(), cdf.end() - 1, x) -
                       cdf.begin())));
      }
      for (size_t i = kKeyBlock - 1; i > 0; --i) {
        std::swap(block[i], block[rng_.Uniform(i + 1)]);
      }
      pos = 0;
    }
    return block[pos++];
  }

  /// Per shape, every (user, category) key of the shape in a Zipf-weighted
  /// random order (Efraimidis-Spirakis: sort by -ln(U)/weight), so keys
  /// are drawn without replacement and popular users come early.
  void BuildKeyOrders() {
    for (int s = 0; s < kNumShapes; ++s) {
      std::vector<std::pair<double, size_t>> keyed;
      for (size_t k = 0; k < NumKeys(s); ++k) {
        double r = -std::log(1.0 - rng_.NextDouble()) / KeyWeight(s, k);
        keyed.push_back({r, k});
      }
      std::sort(keyed.begin(), keyed.end());
      for (const auto& [r, k] : keyed) key_order_[s].push_back(KeyAt(s, k));
    }
  }

  /// Next key of `shape` in its order; starts over when exhausted (the
  /// orders are longer than the plan and canonicalization caches, so a
  /// repeated text has long been evicted).
  std::pair<int64_t, int64_t> NextUnusedKey(int shape) {
    size_t& pos = key_pos_[shape];
    auto key = key_order_[shape][pos];
    pos = (pos + 1) % key_order_[shape].size();
    return key;
  }

  const Workload& w_;
  const workload::MarketplaceData& data_;
  Rng rng_;
  int64_t next_oid_;
  std::vector<double> key_cdf_[kNumShapes];
  std::vector<std::pair<int64_t, int64_t>> key_block_[kNumShapes];
  size_t block_pos_[kNumShapes] = {};
  std::vector<std::pair<int64_t, int64_t>> key_order_[kNumShapes];
  size_t key_pos_[kNumShapes] = {};
};

/// Warm-up: one pass over every shape the workload reads. With `$`
/// parameters that is every distinct text of the run. With inlined
/// constants the keys lie outside the data (user `users`, category
/// "cat<num_categories>"), so no warm-up text recurs in the run and the
/// plan cache starts cold.
std::vector<Op> WarmupOps(const Workload& w) {
  std::vector<Op> ops;
  for (int s = 0; s < kNumShapes; ++s) {
    if (w.mix[s] <= 0) continue;
    int64_t uid = w.inline_constants ? static_cast<int64_t>(w.users) : 1;
    int64_t cat = w.inline_constants
                      ? static_cast<int64_t>(DataConfig(w).num_categories)
                      : 0;
    ops.push_back(OpStream::MakeRead(s, ShapeHasUser(s) ? uid : -1,
                                     ShapeHasCategory(s) ? cat : -1,
                                     w.inline_constants));
  }
  return ops;
}

// --------------------------------------------------------------- tracing --

/// In-memory span recorder. A span's self time is its duration minus the
/// durations of its children (children of one span never overlap: the
/// client is single-threaded).
class Tracer {
 public:
  struct Span {
    const char* name;
    int32_t parent;
    uint64_t op;
    Clock::time_point start, end;
  };

  Tracer() { spans_.reserve(1 << 20); }

  int32_t Begin(const char* name, int32_t parent, uint64_t op) {
    spans_.push_back({name, parent, op, Clock::now(), {}});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end = Clock::now(); }

  /// Runs `fn` inside a span named `name`.
  template <typename Fn>
  auto Traced(const char* name, int32_t parent, uint64_t op, Fn&& fn) {
    int32_t id = Begin(name, parent, op);
    auto out = fn();
    End(id);
    return out;
  }

  /// Self time (µs) of every span, grouped by name.
  std::map<std::string, std::vector<double>> SelfMicros() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = MicrosBetween(spans_[i].start, spans_[i].end);
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        self[static_cast<size_t>(spans_[i].parent)] -=
            MicrosBetween(spans_[i].start, spans_[i].end);
      }
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(self[i]);
    }
    return out;
  }

  /// Writes one JSON object per span (times in ns from the first span).
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const Clock::time_point t0 =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    auto ns = [&](Clock::time_point t) {
      return static_cast<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
              .count());
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"op\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.name, s.parent, static_cast<unsigned long long>(s.op),
                   ns(s.start), ns(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- system --

/// The five marketplace stores, the facade over them and the server.
struct System {
  workload::MarketplaceData data;
  stores::RelationalStore postgres;
  stores::KeyValueStore redis;
  stores::DocumentStore mongodb;
  stores::ParallelStore spark{kSparkWorkers};
  stores::TextStore solr;
  Estocada sys;
  std::unique_ptr<runtime::QueryServer> server;
};

struct FragmentSpec {
  const char* view;
  const char* store;
  std::vector<Adornment> adornments;
  std::vector<size_t> indexes;
};

/// bench_engine's hybrid placement: 7 fragments, plus F_pjoin (the §II
/// materialized purchases ⋈ browsing ⋈ catalog join) when `pjoin`.
std::vector<FragmentSpec> Layout(bool pjoin) {
  const Adornment in = Adornment::kInput;
  const Adornment free = Adornment::kFree;
  std::vector<FragmentSpec> out = {
      {"F_users(u, n, c) :- mk.users(u, n, c)", "postgres", {}, {0}},
      {"F_orders(o, u, p, t) :- mk.orders(o, u, p, t)", "postgres", {}, {1, 2}},
      {"F_prod(p, n, cat, pr) :- mk.products(p, n, cat, pr)", "mongodb", {},
       {0, 2}},
      {"F_carts(u, c) :- mk.carts(u, c)", "redis", {in, free}, {}},
      {"F_profile(u, n, c) :- mk.users(u, n, c)", "redis", {in, free, free},
       {}},
      {"F_visits(u, p, d) :- mk.visits(u, p, d)", "spark", {}, {}},
      {"F_terms(p, w) :- mk.prodterms(p, w)", "solr", {free, in}, {}},
  };
  if (pjoin) {
    out.push_back({"F_pjoin(u, cat, p, n) :- mk.orders(o, u, p, t), "
                   "mk.visits(u, p, d), mk.products(p, n, cat, pr)",
                   "spark", {in, in, free, free}, {}});
  }
  return out;
}

/// Builds the deployment: data, staging, fragments, server. When `tracer`
/// is set, each DefineFragment is recorded as a "rewriting.materialize"
/// span.
std::unique_ptr<System> BuildSystem(const Workload& w, Tracer* tracer) {
  auto s = std::make_unique<System>();
  auto data = workload::GenerateMarketplace(DataConfig(w));
  if (!data.ok()) Die("generate marketplace", data.status());
  s->data = std::move(*data);
  using catalog::StoreKind;
  Check(s->sys.RegisterSchema(s->data.schema), "register schema");
  Check(s->sys.RegisterStore({"postgres", StoreKind::kRelational, &s->postgres,
                              nullptr, nullptr, nullptr, nullptr}),
        "register postgres");
  Check(s->sys.RegisterStore({"redis", StoreKind::kKeyValue, nullptr,
                              &s->redis, nullptr, nullptr, nullptr}),
        "register redis");
  Check(s->sys.RegisterStore({"mongodb", StoreKind::kDocument, nullptr,
                              nullptr, &s->mongodb, nullptr, nullptr}),
        "register mongodb");
  Check(s->sys.RegisterStore({"spark", StoreKind::kParallel, nullptr, nullptr,
                              nullptr, &s->spark, nullptr}),
        "register spark");
  Check(s->sys.RegisterStore({"solr", StoreKind::kText, nullptr, nullptr,
                              nullptr, nullptr, &s->solr}),
        "register solr");
  Check(s->sys.LoadStaging(s->data.staging), "load staging");
  for (FragmentSpec& f : Layout(w.pjoin)) {
    int32_t span = tracer ? tracer->Begin("rewriting.materialize", -1, 0) : -1;
    Check(s->sys.DefineFragment(f.view, f.store, std::move(f.adornments),
                                std::move(f.indexes)),
          f.view);
    if (tracer) tracer->End(span);
  }
  runtime::ServerOptions options;
  options.worker_threads = 1;  // Query() runs on the client's thread.
  s->server = std::make_unique<runtime::QueryServer>(&s->sys, options);
  return s;
}

// ------------------------------------------------------------ host probe --

/// Times a fixed piece of reference work between operations, at most once
/// per kProbeGap: FNV-1a hashing of keys cut from a fixed byte buffer, an
/// open-addressing insert of each hash into a fixed table, and a sort of a
/// fixed array. Every buffer is allocated once, in the constructor, and
/// together they fit in 32 KiB, so the work neither allocates nor depends
/// on the state of the program's heap: its median time measures how fast
/// the host ran. On a shared machine that speed drifts by tens of percent
/// within minutes, and it dips for bursts of a few hundred milliseconds, so
/// each time is scaled to what it would have been had the probe taken
/// kReferenceUs: an operation's time by the probe samples around it
/// (LocalSpeed), set-up and the traced run's layer times by the trial's
/// median (see README.md).
class HostProbe {
 public:
  HostProbe()
      : bytes_(kBytes), table_(kSlots), unsorted_(kSortN), sorted_(kSortN) {
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (unsigned char& b : bytes_) b = static_cast<unsigned char>(Lcg(&x));
    for (uint64_t& v : unsorted_) v = Lcg(&x);
    samples_.reserve(1 << 16);
    at_.reserve(1 << 16);
  }

  void MaybeSample() {
    if (Clock::now() >= next_) Sample();
  }

  void Sample() {
    auto t0 = Clock::now();
    sink_ += ReferenceWork();
    auto t1 = Clock::now();
    samples_.push_back(MicrosBetween(t0, t1));
    at_.push_back(t1);
    next_ = t1 + kProbeGap;
  }

  double MedianUs() const;

  /// Speed() of the median of the kLocal probe samples nearest in time to
  /// `t`. Call Freeze() once sampling is over.
  double LocalSpeed(Clock::time_point t) const {
    auto it = std::lower_bound(at_.begin(), at_.end(), t);
    size_t i = static_cast<size_t>(it - at_.begin());
    return local_speed_[std::min(i, local_speed_.size() - 1)];
  }

  void Freeze();

  /// Factor that scales a time measured while the probe's median was
  /// `probe_us` to the reference host speed.
  static double Speed(double probe_us) { return kReferenceUs / probe_us; }

 private:
  static constexpr auto kProbeGap = std::chrono::milliseconds(4);
  /// Probe samples per local median: about 100 ms of the trial.
  static constexpr size_t kLocal = 25;
  /// About the probe's median on the host the README's figures come from,
  /// so that scaled times read close to raw ones.
  static constexpr double kReferenceUs = 80.0;
  static constexpr size_t kBytes = 8192, kKeyLen = 32;
  static constexpr size_t kSlots = 1024, kSortN = 1024;

  static uint64_t Lcg(uint64_t* x) {
    *x = *x * 6364136223846793005ULL + 1442695040888963407ULL;
    return *x >> 33;
  }

  uint64_t ReferenceWork() {
    std::fill(table_.begin(), table_.end(), 0);
    uint64_t sum = 0;
    for (size_t k = 0; k + kKeyLen <= kBytes; k += kKeyLen / 2) {
      uint64_t h = 1469598103934665603ULL;
      for (size_t i = 0; i < kKeyLen; ++i) {
        h = (h ^ bytes_[k + i]) * 1099511628211ULL;
      }
      size_t slot = h & (kSlots - 1);
      while (table_[slot] != 0 && table_[slot] != (h | 1)) {
        slot = (slot + 1) & (kSlots - 1);
      }
      table_[slot] = h | 1;
      sum += slot;
    }
    std::copy(unsorted_.begin(), unsorted_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    return sum + sorted_[kSortN / 2];
  }

  std::vector<unsigned char> bytes_;
  std::vector<uint64_t> table_, unsorted_, sorted_;
  std::vector<double> samples_;
  std::vector<Clock::time_point> at_;  ///< End of each sample.
  std::vector<double> local_speed_;    ///< Per sample, see LocalSpeed.
  Clock::time_point next_;
  uint64_t sink_ = 0;
};

// ------------------------------------------------------------ statistics --

/// Quantile `q` of `v` (nearest rank; sorts `v`).
double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v->size() - 1));
  return (*v)[idx];
}

/// Median of a copy of `v`.
double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double HostProbe::MedianUs() const { return Median(samples_); }

void HostProbe::Freeze() {
  const size_t n = samples_.size();
  local_speed_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    size_t lo = i >= kLocal / 2 ? i - kLocal / 2 : 0;
    lo = std::min(lo, n > kLocal ? n - kLocal : 0);
    const size_t hi = std::min(n, lo + kLocal);
    local_speed_[i] = Speed(Median(std::vector<double>(
        samples_.begin() + static_cast<std::ptrdiff_t>(lo),
        samples_.begin() + static_cast<std::ptrdiff_t>(hi))));
  }
}

std::vector<Row> AsSet(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// Counts accumulated over the count window.
struct WindowCounts {
  size_t reads = 0;
  double cost = 0;
  uint64_t rows_from_stores = 0;
  uint64_t rows_out = 0;
  std::map<std::string, stores::StoreStats> per_store;

  void Add(const QueryResult& r) {
    ++reads;
    cost += r.simulated_cost();
    rows_from_stores += r.rows_from_stores;
    rows_out += r.rows.size();
    for (const auto& [store, st] : r.runtime_stats.per_store) {
      per_store[store].Add(st);
    }
  }
};

/// Reads picked for the staging-oracle check: the first kOracleFirst of
/// each shape and up to kOracleHead per shape by the Zipf-head users 0, 1.
class OracleSample {
 public:
  void Offer(const Op& op) {
    if (op.write) return;
    if (first_[op.shape] < kOracleFirst) {
      ++first_[op.shape];
      ops_.push_back(op);
    } else if (op.uid >= 0 && op.uid <= 1 && head_[op.shape] < kOracleHead) {
      ++head_[op.shape];
      ops_.push_back(op);
    }
  }

  /// Re-asks the server for each sampled read and compares the answer, as
  /// a set, against Estocada::EvaluateOverStaging. Returns mismatches.
  size_t Check(runtime::QueryServer* server) const {
    size_t bad = 0;
    for (const Op& op : ops_) {
      auto got = server->Query(op.text, op.params);
      Result<std::vector<Row>> want = Status::OK();
      Status st = server->WithReadLock([&](const Estocada& sys) {
        want = sys.EvaluateOverStaging(op.text, op.params);
        return want.status();
      });
      if (!got.ok() || !st.ok() || AsSet(got->rows) != AsSet(*want)) {
        ++bad;
        std::printf("oracle mismatch (%s): %s %s\n", ShapeName(op.shape),
                    op.text.c_str(),
                    got.ok() ? "" : got.status().ToString().c_str());
      }
    }
    std::printf("oracle: %zu sampled reads checked, %zu mismatches\n",
                ops_.size(), bad);
    return bad;
  }

 private:
  std::vector<Op> ops_;
  int first_[kNumShapes] = {};
  int head_[kNumShapes] = {};
};

// ----------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double PeakRssMb() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintCacheStats(const char* when, const runtime::PlanCache::Stats& st) {
  std::printf("plan cache %s: hits=%llu misses=%llu entries=%zu\n", when,
              static_cast<unsigned long long>(st.hits),
              static_cast<unsigned long long>(st.misses), st.entries);
}

double HitRate(const runtime::PlanCache::Stats& before,
               const runtime::PlanCache::Stats& after) {
  double hits = static_cast<double>(after.hits - before.hits);
  double misses = static_cast<double>(after.misses - before.misses);
  return hits + misses == 0 ? 0 : hits / (hits + misses);
}

/// What the closed loop hands back: operation counts and the plan-cache
/// stats at the moment the count window closed.
struct LoopResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  runtime::PlanCache::Stats window_end;
};

/// The single client's closed loop: takes operations from `stream` until
/// the read part of `seconds` has passed and the count window (the first
/// `w.window` reads) is complete, then, on a workload with a write phase,
/// inserts rows until the rest of `seconds` has passed and at least
/// `w.write_window` inserts are done. `serve(op, in_window)` runs one
/// operation and returns false when it failed. Each read is offered to
/// `oracle`.
template <typename Serve>
LoopResult ClosedLoop(const Workload& w, OpStream* stream, double seconds,
                      runtime::QueryServer* server, OracleSample* oracle,
                      HostProbe* probe, Serve serve) {
  LoopResult out;
  const auto start = Clock::now();
  auto after = [&](double share) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds * share));
  };
  const auto reads_end = after(1 - w.write_phase);
  size_t reads = 0;
  while (reads < w.window || Clock::now() < reads_end) {
    probe->MaybeSample();
    Op op = stream->Next();
    ++out.attempted;
    const bool in_window = !op.write && reads < w.window;
    if (!op.write) {
      oracle->Offer(op);
      ++reads;
    }
    if (!serve(std::move(op), in_window)) ++out.failed;
    if (in_window && reads == w.window) out.window_end = server->cache_stats();
  }
  if (w.write_phase <= 0) return out;
  const auto writes_end = after(1);
  for (size_t writes = 0; writes < w.write_window || Clock::now() < writes_end;
       ++writes) {
    probe->MaybeSample();
    ++out.attempted;
    if (!serve(stream->NextWrite(), false)) ++out.failed;
  }
  return out;
}

// ------------------------------------------------------- untraced run --

/// Prints `v` as a JSON array of microseconds, to nanoseconds or nine
/// significant digits, whichever is finer.
void PrintSamples(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\": [", key);
  for (size_t i = 0; i < v.size(); ++i) {
    std::printf(v[i] < 1e6 ? "%s%.9g" : "%s%.3f", i == 0 ? "" : ",", v[i]);
  }
  std::printf("]");
}

/// One trial: set-up, warm-up, then the closed loop for `seconds`. With
/// `check`, the staging oracle re-checks sampled reads afterwards, after
/// every insert of the trial. The last line of stdout is the trial's
/// record: latency samples raw and scaled by the host probe around each,
/// raw set-up time, the host probe's median and the factor that scales
/// set-up by it, the store cost per read over the count window, peak RSS
/// and the operation counts. run.py pools ten of them.
int RunTrial(const Workload& w, uint64_t seed, double seconds, bool check) {
  HostProbe probe;
  for (int j = 0; j < 50; ++j) probe.Sample();
  std::vector<double> read_us, write_us;
  std::vector<Clock::time_point> read_at, write_at;
  for (std::vector<double>* v : {&read_us, &write_us}) {
    v->resize(kSampleCap);  // Touches the pages; clear() keeps them.
    v->clear();
  }
  for (std::vector<Clock::time_point>* v : {&read_at, &write_at}) {
    v->resize(kSampleCap);
    v->clear();
  }
  auto t0 = Clock::now();
  std::unique_ptr<System> s = BuildSystem(w, nullptr);
  runtime::QueryServer& server = *s->server;
  PrintCacheStats("before warm-up", server.cache_stats());
  for (const Op& op : WarmupOps(w)) {
    auto r = server.Query(op.text, op.params);
    if (!r.ok()) Die("warm-up query", r.status());
  }
  const double setup_s = MicrosBetween(t0, Clock::now()) / 1e6;
  const runtime::PlanCache::Stats warm = server.cache_stats();
  PrintCacheStats("after warm-up", warm);

  OpStream stream(w, s->data, seed);
  OracleSample oracle;
  WindowCounts window;
  std::map<std::string, std::vector<double>> by_class;
  const LoopResult loop = ClosedLoop(
      w, &stream, seconds, &server, &oracle, &probe,
      [&](Op op, bool in_window) {
        if (op.write) {
          auto t0 = Clock::now();
          Status st = server.InsertRow(op.relation, std::move(op.row));
          auto t1 = Clock::now();
          write_us.push_back(MicrosBetween(t0, t1));
          write_at.push_back(t1);
          by_class[op.relation].push_back(write_us.back());
          return st.ok();
        }
        auto t0 = Clock::now();
        auto r = server.Query(op.text, op.params);
        auto t1 = Clock::now();
        if (!r.ok()) return false;
        read_us.push_back(MicrosBetween(t0, t1));
        read_at.push_back(t1);
        by_class[ShapeName(op.shape)].push_back(read_us.back());
        if (in_window) window.Add(*r);
        return true;
      });
  PrintCacheStats("end of count window", loop.window_end);
  for (auto& [name, us] : by_class) {
    std::printf("%-22s n=%-7zu p50=%10.1fus p99=%10.1fus\n", name.c_str(),
                us.size(), Quantile(&us, 0.5), Quantile(&us, 0.99));
  }
  std::printf("ops=%llu reads=%zu writes=%zu window=%zu hit_rate=%.4f\n",
              static_cast<unsigned long long>(loop.attempted), read_us.size(),
              write_us.size(), w.window, HitRate(warm, loop.window_end));
  const bool correct =
      loop.failed == 0 && (!check || oracle.Check(&server) == 0);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"setup_s\": %.9f, \"probe_us\": %.6f, "
              "\"time_scale\": %.9f, \"cost_per_read\": %.17g, "
              "\"peak_rss_mb\": %.6f, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(loop.attempted),
              static_cast<unsigned long long>(loop.failed), setup_s,
              probe.MedianUs(), HostProbe::Speed(probe.MedianUs()),
              window.reads == 0
                  ? 0.0
                  : window.cost / static_cast<double>(window.reads),
              PeakRssMb());
  probe.Freeze();
  auto scaled = [&](const std::vector<double>& us,
                    const std::vector<Clock::time_point>& at) {
    std::vector<double> out(us.size());
    for (size_t i = 0; i < us.size(); ++i) {
      out[i] = us[i] * probe.LocalSpeed(at[i]);
    }
    return out;
  };
  PrintSamples("read_us", read_us);
  std::printf(", ");
  PrintSamples("write_us", write_us);
  std::printf(", ");
  PrintSamples("read_scaled_us", scaled(read_us, read_at));
  std::printf(", ");
  PrintSamples("write_scaled_us", scaled(write_us, write_at));
  std::printf("}\n");
  return 0;
}

// --------------------------------------------------------- traced run --

/// Replays reads through the public layer functions in the order the
/// server calls them, recording one span per call:
///   op
///   ├─ runtime.canonicalize   text memo + RemapParameters
///   │  └─ pivot.parse          ParseQuery + Canonicalize, on a memo miss
///   ├─ runtime.plan_cache      PlanCache::Lookup (+ Insert on a miss)
///   ├─ pacb.rewrite            Rewriter::Rewrite, on a miss
///   ├─ rewriting.translate     Planner::PlanRewritings
///   └─ engine.execute          Estocada::ExecutePlanned under WithReadLock
/// Writes record op → rewriting.insert (Estocada::InsertRow under
/// WithAdminLock).
class Replay {
 public:
  Replay(System* s, Tracer* tracer, const pacb::Rewriter* rewriter)
      : s_(s), tracer_(tracer), rewriter_(rewriter) {}

  /// `rewrite_stats` receives the rewriter's counters when the plan
  /// cache missed.
  Result<QueryResult> Read(const Op& op, uint64_t id,
                           std::optional<pacb::RewriterStats>* rewrite_stats) {
    const int32_t root = tracer_->Begin("op", -1, id);
    Result<QueryResult> result = ReadSpans(op, id, root, rewrite_stats);
    tracer_->End(root);
    return result;
  }

  Status Write(Op op, uint64_t id) {
    const int32_t root = tracer_->Begin("op", -1, id);
    Status st = tracer_->Traced("rewriting.insert", root, id, [&] {
      return s_->server->WithAdminLock([&](Estocada* sys) {
        return sys->InsertRow(op.relation, std::move(op.row));
      });
    });
    tracer_->End(root);
    return st;
  }

 private:
  Result<QueryResult> ReadSpans(
      const Op& op, uint64_t id, int32_t root,
      std::optional<pacb::RewriterStats>* rewrite_stats) {
    Tracer& t = *tracer_;
    const int32_t canon_span = t.Begin("runtime.canonicalize", root, id);
    std::shared_ptr<const runtime::CanonicalQuery> canonical;
    if (auto it = canon_.find(op.text); it != canon_.end()) {
      canonical = it->second;
    } else {
      auto parsed = t.Traced("pivot.parse", canon_span, id,
                             [&]() -> Result<runtime::CanonicalQuery> {
                               ESTOCADA_ASSIGN_OR_RETURN(
                                   pivot::ConjunctiveQuery q,
                                   pivot::ParseQuery(op.text));
                               return runtime::Canonicalize(q);
                             });
      if (!parsed.ok()) {
        t.End(canon_span);
        return parsed.status();
      }
      canonical = std::make_shared<const runtime::CanonicalQuery>(
          std::move(*parsed));
      if (canon_.size() >= kCanonCap) canon_.clear();
      canon_.emplace(op.text, canonical);
    }
    Params params = runtime::RemapParameters(*canonical, op.params);
    t.End(canon_span);

    const uint64_t epoch = s_->sys.catalog_epoch();
    runtime::PlanCache::CachedRewritings cached = t.Traced(
        "runtime.plan_cache", root, id,
        [&] { return cache_.Lookup(canonical->key, epoch); });
    if (cached == nullptr) {
      auto rewritten = t.Traced("pacb.rewrite", root, id, [&] {
        return rewriter_->Rewrite(canonical->query);
      });
      if (!rewritten.ok()) return rewritten.status();
      *rewrite_stats = rewritten->stats;
      cached = std::make_shared<const pacb::RewritingResult>(
          std::move(*rewritten));
      t.Traced("runtime.plan_cache", root, id, [&] {
        cache_.Insert(canonical->key, epoch, cached);
        return 0;
      });
    }
    auto plans = t.Traced("rewriting.translate", root, id, [&] {
      return rewriting::Planner(&s_->sys.catalog(), nullptr)
          .PlanRewritings(*cached, params);
    });
    if (!plans.ok()) return plans.status();
    Result<QueryResult> result = Status::OK();
    Status st = t.Traced("engine.execute", root, id, [&] {
      return s_->server->WithReadLock([&](const Estocada& sys) {
        result = sys.ExecutePlanned(std::move(*plans), canonical->query,
                                    params);
        return result.status();
      });
    });
    if (!st.ok()) return st;
    return result;
  }

  static constexpr size_t kCanonCap = 4096;  // As the server's memo.
  System* s_;
  Tracer* tracer_;
  const pacb::Rewriter* rewriter_;
  runtime::PlanCache cache_;
  std::unordered_map<std::string,
                     std::shared_ptr<const runtime::CanonicalQuery>>
      canon_;
};

/// Per-rewrite pacb counters summed over the count window.
struct RewriteCounts {
  size_t rewrites = 0;
  double considered = 0, verified = 0, backchase_atoms = 0, found = 0;

  void Add(const pacb::RewriterStats& st) {
    ++rewrites;
    considered += static_cast<double>(st.candidates_considered);
    verified += static_cast<double>(st.candidates_verified);
    backchase_atoms += static_cast<double>(st.backchase_atoms);
    found += static_cast<double>(st.rewritings_found);
  }
};

int RunTraced(const Workload& w, uint64_t seed, double seconds,
              const std::string& trace_out) {
  Tracer tracer;
  std::unique_ptr<System> s = BuildSystem(w, &tracer);
  runtime::QueryServer& server = *s->server;

  // The replay's own rewriter, built like the facade builds its own.
  const int32_t prep = tracer.Begin("pacb.prepare", -1, 0);
  pacb::Rewriter rewriter(s->sys.catalog().dataset_schema(),
                          s->sys.catalog().AllViews());
  Check(rewriter.Prepare(), "prepare rewriter");
  tracer.End(prep);

  Replay replay(s.get(), &tracer, &rewriter);
  RewriteCounts rewrites;
  uint64_t op_id = 0;
  size_t replay_mismatches = 0;
  std::vector<double> untraced_us, traced_us;

  WindowCounts window;
  // Rewrites are counted over the warm-up and the count window: on
  // serve_warm the warm-up's are the only ones.
  auto read = [&](const Op& op, bool in_window, bool warmup) {
    ++op_id;
    // The two executions alternate which goes first, so neither gains
    // from running on caches the other warmed.
    Result<QueryResult> served = Status::OK(), replayed = Status::OK();
    std::optional<pacb::RewriterStats> rewrite_stats;
    double served_us = 0, replayed_us = 0;
    for (int leg = 0; leg < 2; ++leg) {
      auto t0 = Clock::now();
      if ((leg == 0) == (op_id % 2 == 0)) {
        served = server.Query(op.text, op.params);
        served_us = MicrosBetween(t0, Clock::now());
      } else {
        replayed = replay.Read(op, op_id, &rewrite_stats);
        replayed_us = MicrosBetween(t0, Clock::now());
      }
    }
    if (!served.ok() || !replayed.ok() ||
        AsSet(served->rows) != AsSet(replayed->rows)) {
      ++replay_mismatches;
      return false;
    }
    untraced_us.push_back(served_us);
    traced_us.push_back(replayed_us);
    if (rewrite_stats && (warmup || in_window)) rewrites.Add(*rewrite_stats);
    if (in_window) window.Add(*served);
    return true;
  };

  for (const Op& op : WarmupOps(w)) read(op, false, true);
  const runtime::PlanCache::Stats warm = server.cache_stats();
  server.ResetMetrics();

  // With run.py's seed, the sequence of the untraced run's first trial.
  OpStream stream(w, s->data, seed);
  OracleSample oracle;
  HostProbe probe;
  const LoopResult loop =
      ClosedLoop(w, &stream, seconds, &server, &oracle, &probe,
                 [&](Op op, bool in_window) {
                   if (!op.write) return read(op, in_window, false);
                   return replay.Write(std::move(op), ++op_id).ok();
                 });
  const runtime::MetricsSnapshot server_metrics = server.metrics();
  const bool correct = oracle.Check(&server) == 0 && loop.failed == 0 &&
                       replay_mismatches == 0;
  if (!trace_out.empty() && !tracer.Write(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  }

  std::map<std::string, std::vector<double>> self = tracer.SelfMicros();
  const double speed = HostProbe::Speed(probe.MedianUs());
  auto median_of = [&](const char* name, double scale) {
    scale *= speed;
    auto it = self.find(name);
    std::printf("%-28s %zu spans\n", name,
                it == self.end() ? size_t{0} : it->second.size());
    return it == self.end() ? 0 : Median(it->second) * scale;
  };
  auto per = [](double num, double den) { return den == 0 ? 0 : num / den; };
  const double reads = static_cast<double>(window.reads);
  const double n_rewrites = static_cast<double>(rewrites.rewrites);

  std::vector<Metric> m = {
      {"pivot.parse_us", median_of("pivot.parse", 1), "us"},
      {"runtime.canonicalize_us", median_of("runtime.canonicalize", 1), "us"},
      {"runtime.plan_cache_us", median_of("runtime.plan_cache", 1), "us"},
      {"runtime.plan_cache_hit_rate", HitRate(warm, loop.window_end),
       "ratio"},
      {"runtime.retries", static_cast<double>(server_metrics.retries), "count"},
      {"runtime.degraded", static_cast<double>(server_metrics.degraded),
       "count"},
      {"pacb.rewrite_us", median_of("pacb.rewrite", 1), "us"},
      {"pacb.candidates_verified", per(rewrites.verified, n_rewrites),
       "count/rewrite"},
      {"pacb.backchase_atoms", per(rewrites.backchase_atoms, n_rewrites),
       "count/rewrite"},
      {"pacb.rewritings_per_candidate",
       per(rewrites.found, rewrites.considered),
       "ratio"},
      {"pacb.prepare_ms", median_of("pacb.prepare", 1e-3), "ms"},
      {"rewriting.materialize_ms", median_of("rewriting.materialize", 1e-3),
       "ms"},
      {"rewriting.translate_us", median_of("rewriting.translate", 1), "us"},
      {"rewriting.insert_us", median_of("rewriting.insert", 1), "us"},
      {"engine.execute_us", median_of("engine.execute", 1), "us"},
      {"engine.rows_in_per_row_out",
       per(static_cast<double>(window.rows_from_stores),
           static_cast<double>(window.rows_out)),
       "ratio"},
  };
  for (const char* store : {"postgres", "redis", "mongodb", "spark", "solr"}) {
    const stores::StoreStats st = window.per_store.count(store)
                                      ? window.per_store.at(store)
                                      : stores::StoreStats{};
    std::string p = std::string("stores.") + store;
    m.push_back({p + ".ops_per_read",
                 per(static_cast<double>(st.operations), reads), "count/read"});
    m.push_back({p + ".rows_scanned_per_read",
                 per(static_cast<double>(st.rows_scanned), reads),
                 "count/read"});
    m.push_back({p + ".cost_per_read", per(st.simulated_cost, reads),
                 "cost/read"});
  }
  m.push_back({"trace.overhead_pct",
               (per(Median(traced_us), Median(untraced_us)) - 1) * 100, "%"});
  std::printf("ops=%llu traced reads=%zu replay mismatches=%zu\n",
              static_cast<unsigned long long>(loop.attempted), traced_us.size(),
              replay_mismatches);
  PrintResult(correct, loop.attempted, loop.failed, m);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_warm|adhoc_rewrite|"
               "join_ingest> --seed <n> --seconds <s> --trace <0|1> "
               "[--check <0|1>] [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]).rfind("--", 0) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return Usage();
  }
  const Workload* w = FindWorkload(args["workload"]);
  if (w == nullptr) return Usage();
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage();
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0)) return Usage();
  const std::string trace = args["trace"];
  if (trace != "0" && trace != "1") return Usage();
  const std::string check = args.count("check") ? args["check"] : "1";
  if (check != "0" && check != "1") return Usage();
  std::printf("workload=%s seed=%llu seconds=%g trace=%s\n", w->name,
              static_cast<unsigned long long>(seed), seconds, trace.c_str());
  return trace == "1" ? RunTraced(*w, seed, seconds, args["trace-out"])
                      : RunTrial(*w, seed, seconds, check == "1");
}

}  // namespace estocada::perfbench

int main(int argc, char** argv) {
  return estocada::perfbench::Main(argc, argv);
}
