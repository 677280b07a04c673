#include "testing/differential.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "chase/chase.h"
#include "chase/homomorphism.h"
#include "common/rng.h"
#include "common/strings.h"
#include "estocada/estocada.h"
#include "migration/migration.h"
#include "pacb/naive.h"
#include "pacb/rewriter.h"
#include "pivot/parser.h"
#include "replication/repairer.h"
#include "runtime/canonical.h"
#include "runtime/query_server.h"
#include "stores/fault.h"
#include "tuner/tuner.h"

namespace estocada::testing {

namespace {

using engine::Row;
using pivot::ConjunctiveQuery;

/// Order-insensitive canonical form of a result set.
std::multiset<std::string> Canon(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& r : rows) out.insert(engine::RowToString(r));
  return out;
}

/// Compact two-sided diff: counts plus up to three rows unique to each
/// side (shrunk scenarios keep the full picture; mismatch details stay
/// readable).
std::string DiffRows(const std::multiset<std::string>& expected,
                     const std::multiset<std::string>& actual) {
  std::vector<std::string> missing, extra;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  auto head = [](const std::vector<std::string>& v) {
    std::string out;
    for (size_t i = 0; i < v.size() && i < 3; ++i) {
      out += (i ? ", " : "") + v[i];
    }
    if (v.size() > 3) out += ", ...";
    return out;
  };
  return StrCat("expected ", expected.size(), " rows, got ", actual.size(),
                "; missing {", head(missing), "}; extra {", head(extra), "}");
}

/// One full six-store deployment of a scenario.
struct Deployment {
  stores::RelationalStore relational;
  stores::KeyValueStore kv;
  stores::DocumentStore document;
  stores::ParallelStore parallel{2};
  stores::TextStore text;
  stores::GraphStore graph;
  Estocada sys;

  Status Build(const Scenario& s) {
    ESTOCADA_RETURN_NOT_OK(sys.RegisterSchema(s.schema));
    ESTOCADA_RETURN_NOT_OK(
        sys.RegisterStore({kRelationalStore, catalog::StoreKind::kRelational,
                           &relational, nullptr, nullptr, nullptr, nullptr}));
    ESTOCADA_RETURN_NOT_OK(
        sys.RegisterStore({kKeyValueStore, catalog::StoreKind::kKeyValue,
                           nullptr, &kv, nullptr, nullptr, nullptr}));
    ESTOCADA_RETURN_NOT_OK(
        sys.RegisterStore({kDocumentStore, catalog::StoreKind::kDocument,
                           nullptr, nullptr, &document, nullptr, nullptr}));
    ESTOCADA_RETURN_NOT_OK(
        sys.RegisterStore({kParallelStore, catalog::StoreKind::kParallel,
                           nullptr, nullptr, nullptr, &parallel, nullptr}));
    ESTOCADA_RETURN_NOT_OK(
        sys.RegisterStore({kTextStore, catalog::StoreKind::kText, nullptr,
                           nullptr, nullptr, nullptr, &text}));
    ESTOCADA_RETURN_NOT_OK(
        sys.RegisterStore({kGraphStore, catalog::StoreKind::kGraph, nullptr,
                           nullptr, nullptr, nullptr, nullptr, &graph}));
    ESTOCADA_RETURN_NOT_OK(sys.LoadStaging(s.staging));
    for (const FragmentSpec& f : s.fragments) {
      ESTOCADA_RETURN_NOT_OK(
          sys.DefineFragment(f.view_text, f.store, f.adornments));
    }
    return sys.PrepareRewriter();
  }

  void AttachChaos(stores::FaultInjector* injector) {
    relational.AttachFaultInjector(injector, kRelationalStore);
    kv.AttachFaultInjector(injector, kKeyValueStore);
    document.AttachFaultInjector(injector, kDocumentStore);
    parallel.AttachFaultInjector(injector, kParallelStore);
    text.AttachFaultInjector(injector, kTextStore);
    graph.AttachFaultInjector(injector, kGraphStore);
  }
};

/// Fisher–Yates permutation of the body driven by the scenario seed, plus
/// a variable renaming — the metamorphic transformation of invariant (c).
ConjunctiveQuery PermuteQuery(const ConjunctiveQuery& q, uint64_t seed) {
  ConjunctiveQuery perm = q.RenameVariables("p_");
  Rng rng(seed);
  for (size_t i = perm.body.size(); i > 1; --i) {
    std::swap(perm.body[i - 1], perm.body[rng.Uniform(i)]);
  }
  return perm;
}

/// Family (j)'s guard probe: a self-join on the key of a relation with a
/// key EGD that selects two different values of one non-key column. The
/// EGD equates the two constants, so the chase fails on the text and the
/// lifted form merges two parameters. Nullopt when no relation has such a
/// column with two distinct liftable values.
std::optional<QuerySpec> KeyClashProbe(const Scenario& s,
                                       const std::set<pivot::Constant>& named) {
  for (const pivot::Dependency& d : s.schema.dependencies()) {
    if (!d.is_egd() || d.label().rfind("key:", 0) != 0) continue;
    const pivot::Atom& left = d.egd.body[0];
    auto pos = std::find(left.terms.begin(), left.terms.end(), d.egd.left);
    auto staged = s.staging.find(left.relation);
    if (pos == left.terms.end() || staged == s.staging.end()) continue;
    const size_t j = static_cast<size_t>(pos - left.terms.begin());
    std::vector<pivot::Constant> values;
    for (const Row& row : staged->second.rows) {
      pivot::Constant c = row[j].ToConstant();
      if (c.is_null() || named.count(c) > 0 ||
          std::find(values.begin(), values.end(), c) != values.end()) {
        continue;
      }
      values.push_back(std::move(c));
      if (values.size() == 2) break;
    }
    if (values.size() < 2) continue;
    ConjunctiveQuery q;
    q.name = "q";
    q.head = {pivot::Term::Var("k")};
    for (size_t side = 0; side < 2; ++side) {
      pivot::Atom a;
      a.relation = left.relation;
      a.terms.push_back(pivot::Term::Var("k"));
      for (size_t m = 1; m < left.terms.size(); ++m) {
        a.terms.push_back(m == j ? pivot::Term::Const(values[side])
                                 : pivot::Term::Var(StrCat("v", side, m)));
      }
      q.body.push_back(std::move(a));
    }
    return QuerySpec{q.ToString(), {}};
  }
  return std::nullopt;
}

/// `q` with every liftable body constant replaced by another value found
/// at one of its positions in the staged data, distinct constants by
/// distinct values: a text of the same lifted shape. Nullopt when some
/// constant has no such replacement.
std::optional<std::string> SameShapeText(const ConjunctiveQuery& q,
                                         const Scenario& s,
                                         const std::set<pivot::Constant>& named) {
  std::map<pivot::Constant, pivot::Constant> replacement;
  std::set<pivot::Constant> used;
  ConjunctiveQuery out = q;
  for (pivot::Atom& a : out.body) {
    auto staged = s.staging.find(a.relation);
    for (size_t m = 0; m < a.terms.size(); ++m) {
      pivot::Term& t = a.terms[m];
      if (!t.is_constant() || t.constant().is_null() ||
          named.count(t.constant()) > 0) {
        continue;
      }
      auto it = replacement.find(t.constant());
      if (it == replacement.end() && staged != s.staging.end()) {
        for (const Row& row : staged->second.rows) {
          pivot::Constant c = row[m].ToConstant();
          if (c.is_null() || c == t.constant() || named.count(c) > 0 ||
              used.count(c) > 0) {
            continue;
          }
          used.insert(c);
          it = replacement.emplace(t.constant(), std::move(c)).first;
          break;
        }
      }
      if (it == replacement.end()) return std::nullopt;
      t = pivot::Term::Const(it->second);
    }
  }
  return out.ToString();
}

/// `result` with each lifted parameter of `lifted` replaced by its value.
pacb::RewritingResult SubstituteLifted(const runtime::CanonicalQuery& lifted,
                                       pacb::RewritingResult result) {
  for (pacb::Rewriting& rw : result.rewritings) {
    for (pivot::Atom& a : rw.query.body) {
      for (pivot::Term& t : a.terms) {
        if (!t.is_variable()) continue;
        auto it = lifted.lifted.find(t.var_name());
        if (it != lifted.lifted.end()) {
          t = pivot::Term::Const(it->second.ToConstant());
        }
      }
    }
  }
  return result;
}

std::string KeysText(const std::vector<std::string>& keys) {
  std::string out = "{";
  for (const std::string& k : keys) out += k + "; ";
  return out + "}";
}

}  // namespace

Result<Estocada::QueryResult> ExecutePlanAt(
    const Estocada& system, const rewriting::PlanSet& plans, size_t index,
    const pivot::ConjunctiveQuery& query) {
  if (index >= plans.plans.size()) {
    return Status::InvalidArgument(StrCat("plan index ", index,
                                          " out of range (",
                                          plans.plans.size(), " plans)"));
  }
  ESTOCADA_ASSIGN_OR_RETURN(
      rewriting::PlannedQuery plan,
      rewriting::Translator(&system.catalog())
          .Plan(plans.plans[index].rewriting, plans.parameters,
                plans.constraints));
  rewriting::PlanSet one;
  one.plans.push_back(std::move(plan));
  one.rewriting_result = plans.rewriting_result;
  one.parameters = plans.parameters;
  one.constraints = plans.constraints;
  return system.ExecutePlanned(std::move(one), query, plans.parameters);
}

ScenarioOutcome CheckScenario(const Scenario& s,
                              const HarnessOptions& options) {
  ScenarioOutcome out;
  out.seed = s.seed;
  auto fail = [&](std::string invariant, std::string detail) {
    out.mismatches.push_back({std::move(invariant), std::move(detail)});
  };

  Deployment dep;
  if (Status st = dep.Build(s); !st.ok()) {
    fail("setup", st.ToString());
    return out;
  }

  // View definitions for the rewriter-level invariants (b) and (c).
  std::vector<pacb::ViewDefinition> views;
  for (const FragmentSpec& f : s.fragments) {
    auto vq = pivot::ParseQuery(f.view_text);
    if (!vq.ok()) {
      fail("setup", StrCat("view '", f.view_text,
                           "' does not parse: ", vq.status().ToString()));
      return out;
    }
    views.push_back({std::move(*vq), f.adornments});
  }
  std::optional<pacb::Rewriter> pacb_rewriter;
  std::optional<pacb::NaiveChaseBackchase> naive;
  if (options.check_naive) {
    pacb_rewriter.emplace(s.schema, views);
    naive.emplace(s.schema, views);
    if (Status st = pacb_rewriter->Prepare(); !st.ok()) {
      fail("setup", StrCat("rewriter prepare: ", st.ToString()));
      return out;
    }
    if (Status st = naive->Prepare(); !st.ok()) {
      fail("setup", StrCat("naive prepare: ", st.ToString()));
      return out;
    }
  }
  std::vector<pivot::Dependency> chase_deps;
  if (options.check_chase) {
    chase_deps = s.schema.dependencies();
    auto fwd = pacb::CompileViewConstraints(
        views, pacb::ViewConstraintDirection::kForward);
    if (!fwd.ok()) {
      fail("setup", StrCat("view constraints: ", fwd.status().ToString()));
      return out;
    }
    chase_deps.insert(chase_deps.end(), fwd->begin(), fwd->end());
  }

  // Per-query staging oracles, kept for the chaos phase.
  std::vector<std::optional<std::multiset<std::string>>> oracles(
      s.queries.size());

  for (size_t qi = 0; qi < s.queries.size(); ++qi) {
    const QuerySpec& qs = s.queries[qi];
    auto cq = pivot::ParseQuery(qs.text);
    if (!cq.ok()) {
      fail("generator",
           StrCat("query '", qs.text, "': ", cq.status().ToString()));
      continue;
    }
    auto oracle = dep.sys.EvaluateOverStaging(qs.text, qs.parameters);
    if (!oracle.ok()) {
      fail("oracle",
           StrCat("query '", qs.text, "': ", oracle.status().ToString()));
      continue;
    }
    std::multiset<std::string> expected = Canon(*oracle);
    oracles[qi] = expected;
    ++out.queries_checked;

    // ---- (a) every PACB rewriting answers like the oracle. ----
    if (options.check_rewritings) {
      Estocada::PipelineReport report;
      auto plans =
          dep.sys.Plan({*cq, cq->ToString(), qs.parameters}, &report);
      if (!plans.ok()) {
        // A values clash, like an empty set, leaves no rewriting to run.
        if (plans.status().code() == StatusCode::kNoRewriting ||
            report.values_clash) {
          ++out.skipped_unanswerable;
        } else {
          fail("plan",
               StrCat("query '", qs.text, "': ", plans.status().ToString()));
        }
      } else {
        for (size_t idx = 0; idx < plans->plans.size(); ++idx) {
          auto res = ExecutePlanAt(dep.sys, *plans, idx, *cq);
          if (!res.ok()) {
            fail("rewriting-oracle",
                 StrCat("query '", qs.text, "' rewriting #", idx,
                        " failed to execute: ", res.status().ToString()));
            continue;
          }
          ++out.rewritings_executed;
          if (Canon(res->rows) != expected) {
            fail("rewriting-oracle",
                 StrCat("query '", qs.text, "' rewriting [",
                        res->rewriting_text, "] via plan #", idx, ": ",
                        DiffRows(expected, Canon(res->rows))));
          }
        }
      }
    }

    // ---- (b) naive C&B agrees with PACB on small universal plans. ----
    if (options.check_naive) {
      pacb::RewriterOptions ropts;
      ropts.max_rewritings = 128;
      ropts.naive_max_subset = options.naive_max_subset;
      auto a = pacb_rewriter->Rewrite(*cq, ropts);
      if (a.ok() &&
          a->stats.universal_plan_atoms <=
              options.max_universal_plan_for_naive) {
        auto b = naive->Rewrite(*cq, ropts);
        if (!b.ok()) {
          fail("naive-vs-pacb", StrCat("query '", qs.text, "': naive C&B: ",
                                       b.status().ToString()));
        } else {
          size_t cap = options.naive_max_subset == 0
                           ? a->stats.universal_plan_atoms
                           : options.naive_max_subset;
          pacb::RewritingResult small;
          for (const pacb::Rewriting& rw : a->rewritings) {
            if (rw.query.body.size() <= cap) small.rewritings.push_back(rw);
          }
          auto keys_pacb = runtime::RewritingSetKeys(small);
          auto keys_naive = runtime::RewritingSetKeys(*b);
          ++out.naive_comparisons;
          if (keys_pacb != keys_naive) {
            std::string listing = "pacb={";
            for (const auto& k : keys_pacb) listing += k + "; ";
            listing += "} naive={";
            for (const auto& k : keys_naive) listing += k + "; ";
            listing += "}";
            fail("naive-vs-pacb",
                 StrCat("query '", qs.text, "': rewriting sets differ: ",
                        listing));
          }
        }
      }
    }

    // ---- (c) chase idempotence + permutation invariance. ----
    if (options.check_chase && out.chase_checks < options.max_chase_queries) {
      chase::Instance inst;
      pivot::FrozenBody frozen = pivot::FreezeBody(*cq);
      Status st = inst.InsertAll(frozen.atoms);
      chase::ChaseStats st1;
      if (st.ok()) st = RunChase(chase_deps, &inst, {}, &st1);
      if (!st.ok() || !st1.reached_fixpoint) {
        fail("chase", StrCat("query '", qs.text, "': chase did not settle: ",
                             st.ok() ? "no fixpoint" : st.ToString()));
      } else {
        ++out.chase_checks;
        chase::ChaseStats st2;
        Status again = RunChase(chase_deps, &inst, {}, &st2);
        if (!again.ok() || st2.tgd_fires != 0 || st2.egd_merges != 0) {
          fail("chase-idempotence",
               StrCat("query '", qs.text, "': re-chase fired ", st2.tgd_fires,
                      " TGDs / ", st2.egd_merges, " EGD merges"));
        }
        ConjunctiveQuery perm = PermuteQuery(*cq, s.seed + qi);
        chase::Instance inst2;
        pivot::FrozenBody frozen2 = pivot::FreezeBody(perm);
        Status stp = inst2.InsertAll(frozen2.atoms);
        chase::ChaseStats stp1;
        if (stp.ok()) stp = RunChase(chase_deps, &inst2, {}, &stp1);
        if (!stp.ok() || !stp1.reached_fixpoint) {
          fail("chase", StrCat("query '", qs.text,
                               "' (permuted): chase did not settle"));
        } else if (!chase::HomomorphicallyEquivalent(inst, inst2)) {
          fail("chase-permutation",
               StrCat("query '", qs.text,
                      "': chase results of the original and the permuted "
                      "body are not homomorphically equivalent\noriginal:\n",
                      inst.ToString(), "permuted:\n", inst2.ToString()));
        }
      }
    }
  }

  // ---- (j) lifting invariance: constants lifted into parameters change
  // neither the rewriting set nor the answer. ----
  if (options.check_lifting) {
    runtime::ServerOptions sopts;
    sopts.worker_threads = 1;
    runtime::QueryServer server(&dep.sys, sopts);
    const std::set<pivot::Constant>& named = dep.sys.named_constants();
    std::vector<QuerySpec> probes;
    for (size_t qi = 0; qi < s.queries.size(); ++qi) {
      if (oracles[qi].has_value()) probes.push_back(s.queries[qi]);
    }
    if (auto clash = KeyClashProbe(s, named)) probes.push_back(*clash);
    // Served through the server, compared with the text's own oracle.
    auto serve = [&](const std::string& text,
                     const std::map<std::string, engine::Value>& params) {
      auto res = server.Query(text, params);
      auto oracle = dep.sys.EvaluateOverStaging(text, params);
      if (!res.ok() || !oracle.ok()) {
        fail("lifting-invariance",
             StrCat("query '", text, "': served ",
                    res.ok() ? "ok" : res.status().ToString(), ", oracle ",
                    oracle.ok() ? "ok" : oracle.status().ToString()));
      } else if (Canon(res->rows) != Canon(*oracle)) {
        fail("lifting-invariance",
             StrCat("query '", text, "' served with lifted constants: ",
                    DiffRows(Canon(*oracle), Canon(res->rows))));
      }
    };
    for (const QuerySpec& qs : probes) {
      auto cq = pivot::ParseQuery(qs.text);
      if (!cq.ok()) continue;  // Reported as "generator" above.
      runtime::CanonicalQuery lifted = runtime::CanonicalizeLifted(*cq, named);
      if (lifted.lifted.empty()) continue;
      ++out.lifting_checks;

      // The rewriting set, with the lifted values substituted back, is the
      // text's own — or the merge guard rejects it.
      auto lifted_set = dep.sys.RewritePrepared(lifted.query);
      auto own_set = dep.sys.RewritePrepared(*cq);
      if (lifted_set.ok() &&
          !pacb::ParametersSurvive(lifted.query, *lifted_set)) {
        ++out.lift_guard_fired;
      } else if (lifted_set.ok() != own_set.ok() ||
                 (!own_set.ok() &&
                  lifted_set.status().code() != own_set.status().code())) {
        fail("lifting-invariance",
             StrCat("query '", qs.text, "': lifted rewrite ",
                    lifted_set.ok() ? "ok" : lifted_set.status().ToString(),
                    ", own rewrite ",
                    own_set.ok() ? "ok" : own_set.status().ToString()));
      } else if (own_set.ok()) {
        auto keys_lifted = runtime::RewritingSetKeys(
            SubstituteLifted(lifted, std::move(*lifted_set)));
        auto keys_own = runtime::RewritingSetKeys(*own_set);
        if (keys_lifted != keys_own) {
          fail("lifting-invariance",
               StrCat("query '", qs.text, "': rewriting sets differ: lifted=",
                      KeysText(keys_lifted), " own=", KeysText(keys_own)));
        }
      }

      serve(qs.text, qs.parameters);
      // Another text of the same shape reuses the cached plan.
      if (auto other = SameShapeText(*cq, s, named)) {
        const uint64_t hits = server.cache_stats().hits;
        serve(*other, qs.parameters);
        if (server.cache_stats().hits == hits) {
          fail("lifting-invariance",
               StrCat("query '", *other, "' missed the plan cache entry of '",
                      qs.text, "'"));
        }
      }
    }
  }

  // ---- (d) chaos: degradation ladder stays oracle-correct. ----
  if (options.check_chaos) {
    Deployment chaos;
    if (Status st = chaos.Build(s); !st.ok()) {
      fail("setup", StrCat("chaos deployment: ", st.ToString()));
      return out;
    }
    stores::FaultInjector injector(s.seed ^ 0x9e3779b97f4a7c15ULL);
    stores::FaultPlan plan;
    plan.transient_fault_rate = options.chaos_fault_rate;
    for (const char* store :
         {kRelationalStore, kKeyValueStore, kDocumentStore, kParallelStore,
          kTextStore}) {
      injector.SetPlan(store, plan);
    }
    chaos.AttachChaos(&injector);
    runtime::ServerOptions sopts;
    sopts.worker_threads = 1;
    sopts.fault_tolerant = true;
    sopts.retry.max_attempts = 5;
    sopts.retry.initial_backoff_micros = 1;
    sopts.retry.max_backoff_micros = 16;
    sopts.health.failure_threshold = 2;
    sopts.health.open_cooldown_micros = 50;
    sopts.backoff_jitter_seed = s.seed;
    runtime::QueryServer server(&chaos.sys, sopts);
    for (size_t qi = 0; qi < s.queries.size(); ++qi) {
      if (!oracles[qi].has_value()) continue;
      const QuerySpec& qs = s.queries[qi];
      auto res = server.Query(qs.text, qs.parameters);
      if (!res.ok()) {
        // The ladder may legitimately give up (retry budget, no surviving
        // rewriting mid-probe); invariant (d) only constrains successes.
        ++out.chaos_errors;
        continue;
      }
      ++out.chaos_successes;
      if (Canon(res->rows) != *oracles[qi]) {
        fail("chaos-correctness",
             StrCat("query '", qs.text, "' (degraded_to_staging=",
                    res->degraded_to_staging ? "yes" : "no", ", attempts=",
                    res->attempts, "): ",
                    DiffRows(*oracles[qi], Canon(res->rows))));
      }
    }
  }

  // ---- (e) migration: answers invariant across live re-fragmentation. ----
  if (options.check_migration) {
    // Migration target: an identity view of one seed-chosen base relation
    // (skipping access-pattern relations, whose free identity view cannot
    // be snapshotted), built as a fresh relational fragment retiring
    // nothing — semantics must be unchanged at every stage.
    std::vector<const pivot::RelationSignature*> candidates;
    for (const auto& [name, sig] : s.schema.relations()) {
      if (!sig.HasAccessPattern() && sig.arity() > 0) {
        candidates.push_back(&sig);
      }
    }
    if (!candidates.empty()) {
      const pivot::RelationSignature& rel =
          *candidates[s.seed % candidates.size()];
      std::string head, body;
      for (size_t i = 0; i < rel.arity(); ++i) {
        head += (i ? ", v" : "v") + std::to_string(i);
      }
      std::string view_text =
          StrCat("F_mig(", head, ") :- ", rel.name, "(", head, ")");

      Deployment mig;
      if (Status st = mig.Build(s); !st.ok()) {
        fail("setup", StrCat("migration deployment: ", st.ToString()));
        return out;
      }
      runtime::ServerOptions sopts;
      sopts.worker_threads = 1;
      runtime::QueryServer server(&mig.sys, sopts);

      auto check_all = [&](const char* when) {
        for (size_t qi = 0; qi < s.queries.size(); ++qi) {
          if (!oracles[qi].has_value()) continue;
          const QuerySpec& qs = s.queries[qi];
          auto res = server.Query(qs.text, qs.parameters);
          if (!res.ok()) {
            fail("migration-invariance",
                 StrCat("query '", qs.text, "' ", when, " migration of ",
                        rel.name, ": ", res.status().ToString()));
            continue;
          }
          ++out.migration_checks;
          if (Canon(res->rows) != *oracles[qi]) {
            fail("migration-invariance",
                 StrCat("query '", qs.text, "' ", when, " migration of ",
                        rel.name, ": ",
                        DiffRows(*oracles[qi], Canon(res->rows))));
          }
        }
      };

      auto vq = pivot::ParseQuery(view_text);
      if (!vq.ok()) {
        fail("setup", StrCat("migration view '", view_text,
                             "': ", vq.status().ToString()));
        return out;
      }
      migration::MigrationSpec spec;
      spec.view.query = std::move(*vq);
      spec.store_name = kRelationalStore;
      migration::MigrationOptions mopts;
      mopts.batch_rows = 3;  // Several backfill batches per run.
      migration::MigrationEngine engine(&server, spec, mopts);

      check_all("before");
      if (Status st = engine.RunUntil(migration::MigrationStage::kCatchingUp);
          !st.ok()) {
        fail("migration-invariance",
             StrCat("migration of ", rel.name,
                    " failed to backfill: ", st.ToString()));
      } else {
        check_all("during");
        if (Status st2 = engine.Run(); !st2.ok()) {
          fail("migration-invariance",
               StrCat("migration of ", rel.name,
                      " failed to cut over: ", st2.ToString()));
        } else {
          check_all("after");
        }
      }
    }
  }

  // ---- (f) autopilot: autonomous tuning is invisible to readers. ----
  if (options.check_autopilot) {
    Deployment autop;
    if (Status st = autop.Build(s); !st.ok()) {
      fail("setup", StrCat("autopilot deployment: ", st.ToString()));
      return out;
    }
    runtime::ServerOptions sopts;
    sopts.worker_threads = 1;
    runtime::QueryServer server(&autop.sys, sopts);
    migration::MigrationManager manager(&server);
    tuner::AutopilotOptions topts;
    // The most aggressive configuration the knobs allow: act on a single
    // observation of any shape, skip the dominance gate, and bias the
    // prediction to zero so every enumerable candidate clears the
    // improvement threshold. Most of those cutovers then fail the
    // post-cutover measurement and get reverted — exactly the machinery
    // this family stresses. A tuner-disabled twin would serve the
    // staging oracle's answers, so checking against the oracle IS the
    // tuned-vs-untuned comparison.
    topts.advisor.min_count = 1;
    topts.advisor.min_mean_cost = 0.0;
    topts.advisor.require_dominant_pattern = false;
    topts.min_cost_improvement = 0.0;
    topts.cost_model_bias = 0.0;
    topts.cooldown_ticks = 0;
    topts.max_concurrent_migrations = 2;
    topts.migration.batch_rows = 3;
    tuner::Autopilot pilot(&server, &manager, topts);

    // Pass 1 feeds the workload log and records which queries the
    // serving path could answer before any tuning.
    std::vector<bool> answerable(s.queries.size(), false);
    auto check_pass = [&](const char* when, bool before) {
      for (size_t qi = 0; qi < s.queries.size(); ++qi) {
        if (!oracles[qi].has_value()) continue;
        const QuerySpec& qs = s.queries[qi];
        auto res = server.Query(qs.text, qs.parameters);
        if (!res.ok()) {
          // Unanswerable before tuning is the scenario's problem, not the
          // tuner's; becoming unanswerable *because of* tuning is a bug.
          if (!before && answerable[qi]) {
            fail("autopilot-equivalence",
                 StrCat("query '", qs.text, "' became unanswerable ", when,
                        " tuning: ", res.status().ToString()));
          }
          continue;
        }
        if (before) answerable[qi] = true;
        ++out.autopilot_checks;
        if (Canon(res->rows) != *oracles[qi]) {
          fail("autopilot-equivalence",
               StrCat("query '", qs.text, "' ", when, " tuning: ",
                      DiffRows(*oracles[qi], Canon(res->rows))));
        }
      }
    };
    check_pass("before", /*before=*/true);
    // Tick until quiescent: nothing in flight and a full pass that
    // launched nothing. Bounded — guardrails failing to converge is
    // itself a finding.
    uint64_t prev_launches = ~uint64_t{0};
    bool quiesced = false;
    for (int i = 0; i < 200; ++i) {
      if (Status st = pilot.TickOnce(); !st.ok()) {
        fail("autopilot-equivalence", StrCat("tick: ", st.ToString()));
        break;
      }
      uint64_t launches = pilot.metrics().launches;
      if (pilot.in_flight() == 0 && launches == prev_launches) {
        quiesced = true;
        break;
      }
      prev_launches = launches;
      if (pilot.in_flight() > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!quiesced) {
      fail("autopilot-equivalence",
           StrCat("no quiescence after 200 ticks: ",
                  pilot.metrics().ToString()));
    }
    check_pass("after", /*before=*/false);
  }

  // ---- (g) replication: the serving replica is invisible to readers. ----
  if (options.check_replication) {
    // Replicate the identity view of one seed-chosen base relation across
    // three dedicated same-kind store instances, after removing every
    // scenario fragment whose view mentions the relation — the replica set
    // is then the *only* source for it, so killing replicas genuinely
    // forces which instance serves. Answers must stay byte-identical to
    // the staging oracle through every kill, through a write taken while
    // one replica is down, and after the self-healing rebuild that
    // follows — with no staging fallback while a replica is healthy.
    std::vector<const pivot::RelationSignature*> candidates;
    for (const auto& [name, sig] : s.schema.relations()) {
      if (!sig.HasAccessPattern() && sig.arity() > 0) {
        candidates.push_back(&sig);
      }
    }
    if (!candidates.empty()) {
      const pivot::RelationSignature& rel =
          *candidates[(s.seed / 3) % candidates.size()];
      Scenario rs = s;
      rs.fragments.clear();
      for (const FragmentSpec& f : s.fragments) {
        auto vq = pivot::ParseQuery(f.view_text);
        bool mentions = false;
        if (vq.ok()) {
          for (const pivot::Atom& a : vq->body) {
            if (a.relation == rel.name) {
              mentions = true;
              break;
            }
          }
        }
        if (!mentions) rs.fragments.push_back(f);
      }

      Deployment rep;
      if (Status st = rep.Build(rs); !st.ok()) {
        fail("setup", StrCat("replication deployment: ", st.ToString()));
        return out;
      }
      const char* kReplicas[3] = {"rep_a", "rep_b", "rep_c"};
      stores::RelationalStore backends[3];
      stores::FaultInjector injector(s.seed ^ 0xc2b2ae3d27d4eb4fULL);
      for (int i = 0; i < 3; ++i) {
        if (Status st = rep.sys.RegisterStore(
                {kReplicas[i], catalog::StoreKind::kRelational, &backends[i],
                 nullptr, nullptr, nullptr, nullptr});
            !st.ok()) {
          fail("setup",
               StrCat("replica store ", kReplicas[i], ": ", st.ToString()));
          return out;
        }
        backends[i].AttachFaultInjector(&injector, kReplicas[i]);
      }

      std::string head;
      for (size_t i = 0; i < rel.arity(); ++i) {
        head += (i ? ", v" : "v") + std::to_string(i);
      }
      std::string view_text =
          StrCat("F_rep(", head, ") :- ", rel.name, "(", head, ")");
      std::string probe_text =
          StrCat("QRep(", head, ") :- ", rel.name, "(", head, ")");

      runtime::ServerOptions sopts;
      sopts.worker_threads = 1;
      sopts.fault_tolerant = true;
      sopts.retry.max_attempts = 8;
      sopts.retry.initial_backoff_micros = 1;
      sopts.retry.max_backoff_micros = 16;
      sopts.health.failure_threshold = 2;
      sopts.health.open_cooldown_micros = 100;
      sopts.backoff_jitter_seed = s.seed;
      runtime::QueryServer server(&rep.sys, sopts);
      if (Status st = server.DefineReplicatedFragment(
              view_text, {kReplicas[0], kReplicas[1], kReplicas[2]});
          !st.ok()) {
        fail("setup", StrCat("replicated fragment: ", st.ToString()));
        return out;
      }
      auto probe_oracle = rep.sys.EvaluateOverStaging(probe_text, {});
      if (!probe_oracle.ok()) {
        fail("oracle", StrCat("replication probe: ",
                              probe_oracle.status().ToString()));
        return out;
      }
      std::multiset<std::string> expected_probe = Canon(*probe_oracle);

      // `forced` names the only replica allowed to serve (its siblings are
      // down); `fast_path` additionally forbids the staging fallback —
      // asserted only for the probe, whose replicated fragment always has
      // a live placement in these phases.
      auto check = [&](const std::string& text,
                       const std::map<std::string, engine::Value>& params,
                       const std::multiset<std::string>& expected,
                       const std::string& when, const char* forced,
                       bool fast_path) {
        auto res = server.Query(text, params);
        if (!res.ok()) {
          fail("replication-invariance", StrCat("query '", text, "' ", when,
                                                ": ",
                                                res.status().ToString()));
          return;
        }
        ++out.replication_checks;
        if (Canon(res->rows) != expected) {
          fail("replication-invariance",
               StrCat("query '", text, "' ", when, ": ",
                      DiffRows(expected, Canon(res->rows))));
        }
        if (fast_path && res->degraded_to_staging) {
          fail("replication-invariance",
               StrCat("query '", text, "' ", when,
                      " fell back to staging with a healthy replica live"));
        }
        if (forced != nullptr) {
          for (const char* r : kReplicas) {
            if (r != forced && res->runtime_stats.per_store.count(r) > 0) {
              fail("replication-invariance",
                   StrCat("query '", text, "' ", when, ": dead replica ", r,
                          " served rows"));
            }
          }
        }
      };

      check(probe_text, {}, expected_probe, "with all replicas healthy",
            nullptr, /*fast_path=*/true);

      // Force each replica in turn by killing its two siblings: the
      // survivor must serve every answer, byte-identically.
      for (int keep = 0; keep < 3; ++keep) {
        for (int i = 0; i < 3; ++i) {
          injector.SetOutage(kReplicas[i], i != keep);
        }
        std::string when = StrCat("with only ", kReplicas[keep], " alive");
        check(probe_text, {}, expected_probe, when, kReplicas[keep],
              /*fast_path=*/true);
        for (size_t qi = 0; qi < s.queries.size(); ++qi) {
          if (!oracles[qi].has_value()) continue;
          check(s.queries[qi].text, s.queries[qi].parameters, *oracles[qi],
                when, kReplicas[keep], /*fast_path=*/false);
        }
      }
      for (int i = 0; i < 3; ++i) injector.SetOutage(kReplicas[i], false);

      // Kill one replica, take a write while it is down, revive it, and
      // let the repairer's scan rebuild it (backfill, digest verify,
      // atomic re-admission). The rebuilt replica must then serve the
      // post-write truth on its own.
      auto staged = rs.staging.find(rel.name);
      if (staged != rs.staging.end() && !staged->second.rows.empty()) {
        injector.SetOutage(kReplicas[0], true);
        engine::Row fresh = staged->second.rows.front();
        fresh[0] = engine::Value::Int(
            static_cast<int64_t>(1'000'000 + s.seed % 1000));
        if (Status st = server.InsertRow(rel.name, fresh); !st.ok()) {
          fail("replication-invariance",
               StrCat("insert into ", rel.name, " with ", kReplicas[0],
                      " down: ", st.ToString()));
        } else if (auto fo = rep.sys.EvaluateOverStaging(probe_text, {});
                   !fo.ok()) {
          fail("oracle",
               StrCat("probe after insert: ", fo.status().ToString()));
        } else {
          expected_probe = Canon(*fo);
          check(probe_text, {}, expected_probe,
                StrCat("after a write with ", kReplicas[0], " down"), nullptr,
                /*fast_path=*/true);
          injector.SetOutage(kReplicas[0], false);
          replication::ReplicaRepairer repairer(&server);
          size_t repaired = 0;
          bool tick_failed = false;
          for (int t = 0; t < 50 && repaired == 0; ++t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            auto fixed = repairer.Tick();
            if (!fixed.ok()) {
              fail("replication-invariance",
                   StrCat("repair tick: ", fixed.status().ToString()));
              tick_failed = true;
              break;
            }
            repaired = *fixed;
          }
          if (!tick_failed && repaired == 0) {
            fail("replication-invariance",
                 StrCat("stale replica ", kReplicas[0],
                        " was never repaired after reviving"));
          } else if (repaired > 0) {
            injector.SetOutage(kReplicas[1], true);
            injector.SetOutage(kReplicas[2], true);
            check(probe_text, {}, expected_probe,
                  "served alone by the rebuilt replica", kReplicas[0],
                  /*fast_path=*/true);
            injector.SetOutage(kReplicas[1], false);
            injector.SetOutage(kReplicas[2], false);
          }
        }
      }
    }
  }

  // ---- (h) partitioning: the shard layout is invisible to readers. ----
  if (options.check_partition) {
    // Re-home 1–3 seed-chosen base relations onto partitioned identity
    // fragments (hash and range, N ∈ {2, 4, 8}) across dedicated store
    // instances, after removing every scenario fragment that mentions
    // them — the shard set is then the *only* source for those relations,
    // so answers genuinely exercise scatter-gather (and single-shard
    // pruning when the key is bound). Fragment 0 additionally replicates
    // every shard 2-way for the chaos leg: killing one store per shard
    // must be invisible (the sibling serves), a write taken while a shard
    // replica is down leaves that replica stale, and the per-shard
    // rebuild must heal it to serve the post-write truth alone.
    std::vector<const pivot::RelationSignature*> candidates;
    for (const auto& [name, sig] : s.schema.relations()) {
      if (!sig.HasAccessPattern() && sig.arity() > 0) {
        candidates.push_back(&sig);
      }
    }
    if (!candidates.empty()) {
      // Seed divisors differ from (g)'s to decorrelate the choices.
      const size_t n_part =
          1 + (s.seed / 11) % std::min<size_t>(3, candidates.size());
      std::vector<const pivot::RelationSignature*> chosen;
      const size_t start = (s.seed / 5) % candidates.size();
      for (size_t k = 0; k < n_part; ++k) {
        chosen.push_back(candidates[(start + k) % candidates.size()]);
      }

      Scenario ps = s;
      ps.fragments.clear();
      for (const FragmentSpec& f : s.fragments) {
        auto vq = pivot::ParseQuery(f.view_text);
        bool mentions = false;
        if (vq.ok()) {
          for (const pivot::Atom& a : vq->body) {
            for (const pivot::RelationSignature* rel : chosen) {
              if (a.relation == rel->name) mentions = true;
            }
          }
        }
        if (!mentions) ps.fragments.push_back(f);
      }

      Deployment part;
      if (Status st = part.Build(ps); !st.ok()) {
        fail("setup", StrCat("partition deployment: ", st.ToString()));
        return out;
      }
      // Dedicated shard backends (stable addresses; up to 8 shards x 2
      // replicas per fragment).
      std::deque<stores::RelationalStore> backends;
      stores::FaultInjector injector(s.seed ^ 0x9e3779b97f4a7c15ULL);
      struct PartFragment {
        std::string probe_text;
        size_t arity = 0;
        std::string relation;
        size_t shards = 0;
        size_t replicas_per_shard = 1;
        /// Store names, [shard][replica].
        std::vector<std::vector<std::string>> stores;
      };
      std::vector<PartFragment> frags;
      bool setup_failed = false;
      for (size_t k = 0; k < chosen.size() && !setup_failed; ++k) {
        const pivot::RelationSignature& rel = *chosen[k];
        const size_t shard_counts[3] = {2, 4, 8};
        PartFragment pf;
        pf.relation = rel.name;
        pf.arity = rel.arity();
        pf.shards = shard_counts[(s.seed / (7 + 3 * k)) % 3];
        pf.replicas_per_shard = (k == 0) ? 2 : 1;
        for (size_t sh = 0; sh < pf.shards; ++sh) {
          std::vector<std::string> replica_stores;
          for (size_t r = 0; r < pf.replicas_per_shard; ++r) {
            std::string store_name = StrCat("part", k, "_s", sh, "_r", r);
            backends.emplace_back();
            if (Status st = part.sys.RegisterStore(
                    {store_name, catalog::StoreKind::kRelational,
                     &backends.back(), nullptr, nullptr, nullptr, nullptr});
                !st.ok()) {
              fail("setup",
                   StrCat("shard store ", store_name, ": ", st.ToString()));
              setup_failed = true;
              break;
            }
            backends.back().AttachFaultInjector(&injector, store_name);
            replica_stores.push_back(std::move(store_name));
          }
          if (setup_failed) break;
          pf.stores.push_back(std::move(replica_stores));
        }
        if (setup_failed) break;
        std::string head;
        for (size_t i = 0; i < rel.arity(); ++i) {
          head += (i ? ", v" : "v") + std::to_string(i);
        }
        pf.probe_text =
            StrCat("QPart", k, "(", head, ") :- ", rel.name, "(", head, ")");
        frags.push_back(std::move(pf));
      }
      if (setup_failed) return out;

      runtime::ServerOptions sopts;
      sopts.worker_threads = 1;
      sopts.fault_tolerant = true;
      sopts.retry.max_attempts = 8;
      sopts.retry.initial_backoff_micros = 1;
      sopts.retry.max_backoff_micros = 16;
      sopts.health.failure_threshold = 2;
      sopts.health.open_cooldown_micros = 100;
      sopts.backoff_jitter_seed = s.seed;
      runtime::QueryServer server(&part.sys, sopts);
      for (size_t k = 0; k < frags.size(); ++k) {
        const PartFragment& pf = frags[k];
        std::string head;
        for (size_t i = 0; i < pf.arity; ++i) {
          head += (i ? ", v" : "v") + std::to_string(i);
        }
        std::string view_text = StrCat("F_part", k, "(", head, ") :- ",
                                       pf.relation, "(", head, ")");
        // Range partitioning needs N-1 strictly ascending split points;
        // quantiles of the distinct staged key values provide them when
        // the domain is large enough, else the fragment falls back to
        // hash. The k + seed parity mixes both kinds across fragments.
        std::vector<engine::Value> bounds;
        auto kind = catalog::PartitionSpec::Kind::kHash;
        auto staged = ps.staging.find(pf.relation);
        if ((k + s.seed / 13) % 2 == 1 && staged != ps.staging.end()) {
          std::vector<engine::Value> keys;
          for (const Row& r : staged->second.rows) keys.push_back(r[0]);
          std::sort(keys.begin(), keys.end());
          keys.erase(std::unique(keys.begin(), keys.end(),
                                 [](const engine::Value& a,
                                    const engine::Value& b) {
                                   return engine::Value::Compare(a, b) == 0;
                                 }),
                     keys.end());
          if (keys.size() >= pf.shards) {
            for (size_t b = 1; b < pf.shards; ++b) {
              bounds.push_back(keys[b * keys.size() / pf.shards]);
            }
            kind = catalog::PartitionSpec::Kind::kRange;
          }
        }
        if (Status st = server.DefinePartitionedFragment(
                view_text, kind, /*key_position=*/0, pf.stores,
                std::move(bounds));
            !st.ok()) {
          fail("setup", StrCat("partitioned fragment F_part", k, ": ",
                               st.ToString()));
          return out;
        }
      }

      // Oracle answers for the probes (and a key-bound pruning probe for
      // fragment 0 when its relation is wide enough).
      std::vector<std::multiset<std::string>> expected(frags.size());
      for (size_t k = 0; k < frags.size(); ++k) {
        auto o = part.sys.EvaluateOverStaging(frags[k].probe_text, {});
        if (!o.ok()) {
          fail("oracle",
               StrCat("partition probe ", k, ": ", o.status().ToString()));
          return out;
        }
        expected[k] = Canon(*o);
      }

      // `dead` lists store instances that must not serve; `fast_path`
      // forbids the staging fallback (asserted for probes, whose
      // partitioned fragment always has a routable layout here).
      auto check = [&](const std::string& text,
                       const std::map<std::string, engine::Value>& params,
                       const std::multiset<std::string>& want,
                       const std::string& when,
                       const std::vector<std::string>& dead, bool fast_path) {
        auto res = server.Query(text, params);
        if (!res.ok()) {
          fail("partition-invariance",
               StrCat("query '", text, "' ", when, ": ",
                      res.status().ToString()));
          return;
        }
        ++out.partition_checks;
        if (Canon(res->rows) != want) {
          fail("partition-invariance",
               StrCat("query '", text, "' ", when, ": ",
                      DiffRows(want, Canon(res->rows))));
        }
        if (fast_path && res->degraded_to_staging) {
          fail("partition-invariance",
               StrCat("query '", text, "' ", when,
                      " fell back to staging with every shard routable"));
        }
        for (const std::string& d : dead) {
          auto it = res->runtime_stats.per_store.find(d);
          if (it != res->runtime_stats.per_store.end() &&
              it->second.operations > 0) {
            fail("partition-invariance",
                 StrCat("query '", text, "' ", when, ": dead shard store ",
                        d, " served rows"));
          }
        }
      };

      // All shards healthy: every probe and every scenario query must
      // match the unpartitioned oracle (the probes without touching
      // staging).
      for (size_t k = 0; k < frags.size(); ++k) {
        check(frags[k].probe_text, {}, expected[k], "over healthy shards",
              {}, /*fast_path=*/true);
      }
      for (size_t qi = 0; qi < s.queries.size(); ++qi) {
        if (!oracles[qi].has_value()) continue;
        check(s.queries[qi].text, s.queries[qi].parameters, *oracles[qi],
              "over healthy shards", {}, /*fast_path=*/false);
      }

      // Key-bound probe: binding the partition key to a staged value must
      // prune to the owning shard and still answer identically.
      {
        const PartFragment& pf = frags[0];
        auto staged = ps.staging.find(pf.relation);
        if (pf.arity >= 2 && staged != ps.staging.end() &&
            !staged->second.rows.empty()) {
          const engine::Value key = staged->second.rows.front()[0];
          std::string rest;
          for (size_t i = 1; i < pf.arity; ++i) {
            rest += (i > 1 ? ", v" : "v") + std::to_string(i);
          }
          std::string text = StrCat("QPartKey(", rest, ") :- ", pf.relation,
                                    "($key, ", rest, ")");
          auto o = part.sys.EvaluateOverStaging(text, {{"$key", key}});
          if (!o.ok()) {
            fail("oracle", StrCat("key-bound partition probe: ",
                                  o.status().ToString()));
          } else {
            check(text, {{"$key", key}}, Canon(*o),
                  "with the partition key bound", {}, /*fast_path=*/true);
          }
        }
      }

      // Chaos leg on fragment 0 (2 replicas per shard): kill each replica
      // rank in turn across every shard — the sibling rank must serve
      // every answer, and no dead store may be touched.
      const PartFragment& pf0 = frags[0];
      for (size_t kill = 0; kill < pf0.replicas_per_shard; ++kill) {
        std::vector<std::string> dead;
        for (size_t sh = 0; sh < pf0.shards; ++sh) {
          injector.SetOutage(pf0.stores[sh][kill], true);
          dead.push_back(pf0.stores[sh][kill]);
        }
        check(pf0.probe_text, {}, expected[0],
              StrCat("with shard replica rank ", kill, " dead"), dead,
              /*fast_path=*/true);
        for (size_t sh = 0; sh < pf0.shards; ++sh) {
          injector.SetOutage(pf0.stores[sh][kill], false);
        }
      }

      // Write taken while every shard's replica 1 is down: replica 1 of
      // the written shard goes stale; the repairer's scan heals it
      // through the online copy (shard rows only, verified, re-admitted),
      // after which rank 1 must serve the post-write truth alone.
      auto staged0 = ps.staging.find(pf0.relation);
      if (staged0 != ps.staging.end() && !staged0->second.rows.empty()) {
        for (size_t sh = 0; sh < pf0.shards; ++sh) {
          injector.SetOutage(pf0.stores[sh][1], true);
        }
        engine::Row fresh = staged0->second.rows.front();
        fresh[0] = engine::Value::Int(
            static_cast<int64_t>(2'000'000 + s.seed % 1000));
        if (Status st = server.InsertRow(pf0.relation, fresh); !st.ok()) {
          fail("partition-invariance",
               StrCat("insert into ", pf0.relation,
                      " with shard replica rank 1 down: ", st.ToString()));
        } else if (auto fo =
                       part.sys.EvaluateOverStaging(pf0.probe_text, {});
                   !fo.ok()) {
          fail("oracle",
               StrCat("probe after insert: ", fo.status().ToString()));
        } else {
          expected[0] = Canon(*fo);
          for (size_t sh = 0; sh < pf0.shards; ++sh) {
            injector.SetOutage(pf0.stores[sh][1], false);
          }
          check(pf0.probe_text, {}, expected[0],
                "after a write with shard replica rank 1 down", {},
                /*fast_path=*/true);
          // Only the written shard's replica went stale. Tick skips a
          // store whose breaker the chaos leg left open: retry a few.
          replication::ReplicaRepairer repairer(&server);
          Result<size_t> healed = static_cast<size_t>(0);
          for (int t = 0; t < 50 && healed.ok() && *healed == 0; ++t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            healed = repairer.Tick();
          }
          if (!healed.ok() || *healed == 0) {
            fail("partition-invariance",
                 StrCat("shard replica repair: ",
                        healed.ok() ? "the stale shard replica never healed"
                                    : healed.status().ToString()));
          } else {
            std::vector<std::string> dead;
            for (size_t sh = 0; sh < pf0.shards; ++sh) {
              injector.SetOutage(pf0.stores[sh][0], true);
              dead.push_back(pf0.stores[sh][0]);
            }
            check(pf0.probe_text, {}, expected[0],
                  "served alone by the healed shard replicas", dead,
                  /*fast_path=*/true);
            for (size_t sh = 0; sh < pf0.shards; ++sh) {
              injector.SetOutage(pf0.stores[sh][0], false);
            }
          }
        }
      }
    }
  }

  // ---- (i) graph: the property-graph island is invisible to readers. ----
  if (options.check_graph) {
    // A seed-generated property graph shredded through the graph encoding
    // onto the native graph store, its encoding relations placed there as
    // identity fragments — the graph store is then the only fragment
    // source, so answers genuinely exercise EXPAND/GRAPH-SCAN delegation.
    // Three legs: the shred/encode round trip preserves exact fact counts
    // and the Reach containment chain; expansion, scan, reachability,
    // property-join, and gmatch-lowered queries served by the graph store
    // match the staging oracle; and with the graph store killed the
    // degradation ladder still answers oracle-correctly from staging.
    Rng grng(s.seed ^ 0xa5a5a5a5deadbeefULL);
    const size_t n_nodes = 4 + grng.Uniform(7);
    constexpr size_t kGraphHops = 3;
    encoding::GraphData g;
    const char* node_labels[2] = {"User", "Item"};
    for (size_t i = 0; i < n_nodes; ++i) {
      encoding::GraphData::Node n;
      n.id = StrCat("n", i);
      n.label = node_labels[grng.Uniform(2)];
      n.props = {{"name", pivot::Constant::Str(grng.AlphaString(4))}};
      g.nodes.push_back(std::move(n));
    }
    const char* edge_labels[2] = {"follows", "likes"};
    const size_t n_edges = n_nodes + grng.Uniform(n_nodes + 1);
    for (size_t i = 0; i < n_edges; ++i) {
      encoding::GraphData::Edge e;
      e.src = StrCat("n", grng.Uniform(n_nodes));
      e.label = edge_labels[grng.Uniform(2)];
      e.dst = StrCat("n", grng.Uniform(n_nodes));
      g.edges.push_back(std::move(e));
    }

    // Shred round trip: one Node atom per node, one Edge atom per edge
    // (duplicates included — staging is a bag), one NodeProp per property.
    size_t nodes_shredded = 0, edges_shredded = 0, props_shredded = 0;
    for (const pivot::Atom& a : encoding::ShredGraph("g", g)) {
      if (a.relation == "g.Node") ++nodes_shredded;
      if (a.relation == "g.Edge") ++edges_shredded;
      if (a.relation == "g.NodeProp") ++props_shredded;
    }
    ++out.graph_checks;
    if (nodes_shredded != g.nodes.size() ||
        edges_shredded != g.edges.size() || props_shredded != g.nodes.size()) {
      fail("graph-invariance",
           StrCat("shred round trip lost facts: ", nodes_shredded, "/",
                  g.nodes.size(), " nodes, ", edges_shredded, "/",
                  g.edges.size(), " edges, ", props_shredded, "/",
                  g.nodes.size(), " node props"));
    }

    stores::GraphStore gstore;
    Estocada gsys;
    auto build_graph = [&]() -> Status {
      ESTOCADA_RETURN_NOT_OK(gsys.RegisterGraphDataset("g", kGraphHops));
      ESTOCADA_RETURN_NOT_OK(
          gsys.RegisterStore({kGraphStore, catalog::StoreKind::kGraph,
                              nullptr, nullptr, nullptr, nullptr, nullptr,
                              &gstore}));
      ESTOCADA_RETURN_NOT_OK(gsys.LoadGraph("g", g));
      ESTOCADA_RETURN_NOT_OK(
          gsys.DefineFragment("F_gnode(n, l) :- g.Node(n, l)", kGraphStore));
      ESTOCADA_RETURN_NOT_OK(gsys.DefineFragment(
          "F_gedge(s, l, d) :- g.Edge(s, l, d)", kGraphStore));
      ESTOCADA_RETURN_NOT_OK(gsys.DefineFragment(
          "F_gprop(n, k, v) :- g.NodeProp(n, k, v)", kGraphStore));
      for (size_t j = 1; j <= kGraphHops; ++j) {
        ESTOCADA_RETURN_NOT_OK(gsys.DefineFragment(
            StrCat("F_greach", j, "(s, d) :- g.Reach", j, "(s, d)"),
            kGraphStore));
      }
      return gsys.PrepareRewriter();
    };
    if (Status st = build_graph(); !st.ok()) {
      fail("setup", StrCat("graph deployment: ", st.ToString()));
      return out;
    }

    // Reach semantics over the staged facts: Reach1 is exactly the edge
    // projection, and Reach_j ⊆ Reach_{j+1} (at-most-j-hops containment).
    auto oracle_set =
        [&](const std::string& text) -> std::optional<std::set<std::string>> {
      auto rows = gsys.EvaluateOverStaging(text);
      if (!rows.ok()) {
        fail("oracle", StrCat("graph probe '", text,
                              "': ", rows.status().ToString()));
        return std::nullopt;
      }
      std::set<std::string> canon;
      for (const Row& r : *rows) canon.insert(engine::RowToString(r));
      return canon;
    };
    auto edge_proj = oracle_set("Qe(s, d) :- g.Edge(s, l, d)");
    std::vector<std::optional<std::set<std::string>>> reach(kGraphHops + 1);
    for (size_t j = 1; j <= kGraphHops; ++j) {
      reach[j] = oracle_set(StrCat("Qr(s, d) :- g.Reach", j, "(s, d)"));
    }
    if (edge_proj && reach[1]) {
      ++out.graph_checks;
      if (*edge_proj != *reach[1]) {
        fail("graph-invariance",
             StrCat("Reach1 differs from the edge projection: ",
                    edge_proj->size(), " edges vs ", reach[1]->size(),
                    " Reach1 facts"));
      }
    }
    for (size_t j = 1; j < kGraphHops; ++j) {
      if (!reach[j] || !reach[j + 1]) continue;
      ++out.graph_checks;
      if (!std::includes(reach[j + 1]->begin(), reach[j + 1]->end(),
                         reach[j]->begin(), reach[j]->end())) {
        fail("graph-invariance",
             StrCat("Reach", j, " ⊄ Reach", j + 1,
                    ": the at-most-j-hops chain is broken"));
      }
    }

    // The query battery: graph-served answers must equal the oracle.
    const std::string src = StrCat("n", grng.Uniform(n_nodes));
    const std::map<std::string, engine::Value> gparams = {
        {"$src", engine::Value::Str(src)}};
    const std::vector<std::string> gqueries = {
        "Qg0(s, l, d) :- g.Edge(s, l, d)",
        "Qg1(d) :- g.Edge($src, l, d)",
        StrCat("Qg2(d) :- g.Reach", kGraphHops, "($src, d)"),
        "Qg3(v) :- g.Edge($src, l, d), g.NodeProp(d, 'name', v)",
        "Qg4(n, v) :- g.Node(n, 'User'), g.NodeProp(n, 'name', v)",
    };
    std::vector<std::optional<std::multiset<std::string>>> gexpected(
        gqueries.size());
    for (size_t qi = 0; qi < gqueries.size(); ++qi) {
      auto o = gsys.EvaluateOverStaging(gqueries[qi], gparams);
      if (!o.ok()) {
        fail("oracle", StrCat("graph query '", gqueries[qi],
                              "': ", o.status().ToString()));
        continue;
      }
      gexpected[qi] = Canon(*o);
      auto res = gsys.Query(gqueries[qi], gparams);
      if (!res.ok()) {
        fail("graph-invariance",
             StrCat("query '", gqueries[qi],
                    "' over the graph store: ", res.status().ToString()));
        continue;
      }
      ++out.graph_checks;
      if (Canon(res->rows) != *gexpected[qi]) {
        fail("graph-invariance",
             StrCat("query '", gqueries[qi], "' over the graph store: ",
                    DiffRows(*gexpected[qi], Canon(res->rows))));
      }
    }

    // A gmatch-lowered MATCH pattern (single-hop or bounded path by seed
    // parity) must agree with the oracle on its own lowered CQ.
    frontend::GraphMatchSpec spec;
    spec.dataset = "g";
    spec.nodes = {{"a", "", {}}, {"b", "", {}}};
    spec.edges = {{"a", "", "b", {}, (s.seed % 2) ? kGraphHops : 1}};
    spec.returns = {"b", "b.name"};
    auto gm = frontend::GraphMatchToCq(spec, gsys.catalog().dataset_schema());
    if (!gm.ok()) {
      fail("graph-invariance",
           StrCat("gmatch lowering: ", gm.status().ToString()));
    } else if (auto o = gsys.EvaluateOverStagingPrepared(*gm); !o.ok()) {
      fail("oracle", StrCat("gmatch oracle: ", o.status().ToString()));
    } else {
      auto res = gsys.QueryGraphMatch(spec);
      if (!res.ok()) {
        fail("graph-invariance",
             StrCat("gmatch query: ", res.status().ToString()));
      } else {
        ++out.graph_checks;
        if (Canon(res->rows) != Canon(*o)) {
          fail("graph-invariance",
               StrCat("gmatch query: ", DiffRows(Canon(*o),
                                                 Canon(res->rows))));
        }
      }
    }

    // Chaos: with the graph store dead, every fragment-based rewriting is
    // unavailable, so the fault-tolerant ladder must degrade to staging —
    // deterministically, since a full outage needs no retry luck — and
    // the degraded answers must still match the oracle.
    stores::FaultInjector ginjector(s.seed ^ 0x5bd1e9955bd1e995ULL);
    gstore.AttachFaultInjector(&ginjector, kGraphStore);
    runtime::ServerOptions gsopts;
    gsopts.worker_threads = 1;
    gsopts.fault_tolerant = true;
    gsopts.retry.max_attempts = 4;
    gsopts.retry.initial_backoff_micros = 1;
    gsopts.retry.max_backoff_micros = 16;
    gsopts.health.failure_threshold = 2;
    gsopts.health.open_cooldown_micros = 100;
    gsopts.backoff_jitter_seed = s.seed;
    runtime::QueryServer gserver(&gsys, gsopts);
    ginjector.SetOutage(kGraphStore, true);
    for (size_t qi = 0; qi < gqueries.size(); ++qi) {
      if (!gexpected[qi].has_value()) continue;
      auto res = gserver.Query(gqueries[qi], gparams);
      if (!res.ok()) {
        fail("graph-invariance",
             StrCat("query '", gqueries[qi], "' with the graph store dead: ",
                    res.status().ToString()));
        continue;
      }
      ++out.graph_checks;
      if (Canon(res->rows) != *gexpected[qi]) {
        fail("graph-invariance",
             StrCat("query '", gqueries[qi], "' with the graph store dead",
                    " (degraded_to_staging=",
                    res->degraded_to_staging ? "yes" : "no", "): ",
                    DiffRows(*gexpected[qi], Canon(res->rows))));
      }
    }
    ginjector.SetOutage(kGraphStore, false);
  }

  return out;
}

namespace {

bool FailsWith(const Scenario& candidate, const std::string& invariant,
               const HarnessOptions& options, size_t* evaluations) {
  ++*evaluations;
  ScenarioOutcome o = CheckScenario(candidate, options);
  for (const Mismatch& m : o.mismatches) {
    if (m.invariant == invariant) return true;
  }
  return false;
}

/// All one-step shrink candidates of `s`, cheapest-to-try first.
std::vector<Scenario> ShrinkCandidates(const Scenario& s) {
  std::vector<Scenario> out;
  // Drop one query.
  for (size_t i = 0; i < s.queries.size(); ++i) {
    Scenario c = s;
    c.queries.erase(c.queries.begin() + static_cast<ptrdiff_t>(i));
    out.push_back(std::move(c));
  }
  // Drop one fragment.
  for (size_t i = 0; i < s.fragments.size(); ++i) {
    Scenario c = s;
    c.fragments.erase(c.fragments.begin() + static_cast<ptrdiff_t>(i));
    out.push_back(std::move(c));
  }
  // Drop one dependency (relations stay registered).
  const auto& deps = s.schema.dependencies();
  for (size_t i = 0; i < deps.size(); ++i) {
    Scenario c = s;
    pivot::Schema sch;
    for (const auto& [name, sig] : s.schema.relations()) {
      if (!sch.AddRelation(sig).ok()) return out;  // cannot happen
    }
    for (size_t j = 0; j < deps.size(); ++j) {
      if (j != i) sch.AddDependency(deps[j]);
    }
    c.schema = std::move(sch);
    out.push_back(std::move(c));
  }
  // Drop one body atom of one query (keeping the query safe).
  for (size_t i = 0; i < s.queries.size(); ++i) {
    auto cq = pivot::ParseQuery(s.queries[i].text);
    if (!cq.ok() || cq->body.size() < 2) continue;
    for (size_t a = 0; a < cq->body.size(); ++a) {
      pivot::ConjunctiveQuery smaller = *cq;
      smaller.body.erase(smaller.body.begin() + static_cast<ptrdiff_t>(a));
      if (!smaller.Validate().ok()) continue;
      Scenario c = s;
      c.queries[i].text = smaller.ToString();
      out.push_back(std::move(c));
    }
  }
  // Halve one relation's rows.
  for (const auto& [rel, data] : s.staging) {
    if (data.rows.empty()) continue;
    Scenario c = s;
    auto& rows = c.staging[rel].rows;
    rows.resize(rows.size() / 2);
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

ShrinkResult ShrinkScenario(const Scenario& scenario,
                            const std::string& invariant,
                            const HarnessOptions& options) {
  HarnessOptions opts = options;
  opts.shrink = false;
  ShrinkResult result;
  result.scenario = scenario;
  bool progress = true;
  while (progress && result.evaluations < opts.shrink_budget) {
    progress = false;
    for (Scenario& candidate : ShrinkCandidates(result.scenario)) {
      if (result.evaluations >= opts.shrink_budget) break;
      if (FailsWith(candidate, invariant, opts, &result.evaluations)) {
        result.scenario = std::move(candidate);
        ++result.steps;
        progress = true;
        break;
      }
    }
  }
  return result;
}

SeedReport RunSeed(uint64_t seed, const ScenarioConfig& config,
                   const HarnessOptions& options) {
  SeedReport rep;
  rep.seed = seed;
  rep.outcome.seed = seed;
  ScenarioConfig cfg = config;
  cfg.seed = seed;
  auto scenario = GenerateScenario(cfg);
  if (!scenario.ok()) {
    rep.outcome.mismatches.push_back(
        {"generator", scenario.status().ToString()});
    rep.report = StrCat("=== differential failure ===\nseed: ", seed,
                        "\nscenario generation failed: ",
                        scenario.status().ToString(), "\n");
    return rep;
  }
  rep.outcome = CheckScenario(*scenario, options);
  if (rep.outcome.ok()) return rep;

  std::string report =
      StrCat("=== differential failure ===\nseed: ", seed,
             "\nreplay: bench/soak_differential --seed=", seed,
             "  (or FUZZ_REPLAY_SEED=", seed, " ./tests/fuzz_differential)\n");
  for (const Mismatch& m : rep.outcome.mismatches) {
    report += StrCat("  [", m.invariant, "] ", m.detail, "\n");
  }
  if (options.shrink) {
    ShrinkResult shrunk =
        ShrinkScenario(*scenario, rep.outcome.mismatches[0].invariant,
                       options);
    report += StrCat("shrunk scenario (", shrunk.steps, " steps, ",
                     shrunk.evaluations, " evaluations):\n",
                     shrunk.scenario.ToString());
  } else {
    report += StrCat("scenario:\n", scenario->ToString());
  }
  rep.report = std::move(report);
  return rep;
}

std::string SweepReport::Summary() const {
  return StrCat(scenarios, " scenarios: ", failures, " failures, ", queries,
                " queries, ", rewritings, " rewritings executed, ",
                naive_comparisons, " naive-vs-PACB comparisons, ",
                chase_checks, " chase checks, ", chaos_successes,
                " chaos successes (", chaos_errors, " chaos errors), ",
                migration_checks, " migration checks, ", autopilot_checks,
                " autopilot checks, ", replication_checks,
                " replication checks, ", partition_checks,
                " partition checks, ", graph_checks, " graph checks, ",
                lifting_checks, " lifting checks (", lift_guard_fired,
                " guard firings)");
}

SweepReport RunSweep(uint64_t first_seed, size_t count,
                     const ScenarioConfig& config,
                     const HarnessOptions& options,
                     size_t max_stored_failures) {
  SweepReport sweep;
  for (uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    SeedReport rep = RunSeed(seed, config, options);
    ++sweep.scenarios;
    sweep.queries += rep.outcome.queries_checked;
    sweep.rewritings += rep.outcome.rewritings_executed;
    sweep.naive_comparisons += rep.outcome.naive_comparisons;
    sweep.chase_checks += rep.outcome.chase_checks;
    sweep.chaos_successes += rep.outcome.chaos_successes;
    sweep.chaos_errors += rep.outcome.chaos_errors;
    sweep.migration_checks += rep.outcome.migration_checks;
    sweep.autopilot_checks += rep.outcome.autopilot_checks;
    sweep.replication_checks += rep.outcome.replication_checks;
    sweep.partition_checks += rep.outcome.partition_checks;
    sweep.graph_checks += rep.outcome.graph_checks;
    sweep.lifting_checks += rep.outcome.lifting_checks;
    sweep.lift_guard_fired += rep.outcome.lift_guard_fired;
    if (!rep.outcome.ok()) {
      ++sweep.failures;
      if (sweep.failed.size() < max_stored_failures) {
        sweep.failed.push_back(std::move(rep));
      }
    }
  }
  return sweep;
}

}  // namespace estocada::testing
