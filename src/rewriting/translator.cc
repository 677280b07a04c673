#include "rewriting/translator.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "pacb/feasibility.h"

namespace estocada::rewriting {

using catalog::StorageDescriptor;
using catalog::StoreHandle;
using engine::Expr;
using engine::ExprPtr;
using engine::OperatorPtr;
using engine::Row;
using engine::Value;
using pivot::Adornment;
using pivot::Atom;
using pivot::ConjunctiveQuery;
using pivot::Term;

bool PlanConstraints::Excludes(const std::string& store) const {
  return std::find(excluded_stores.begin(), excluded_stores.end(), store) !=
         excluded_stores.end();
}

bool PlanConstraints::OnProbation(const std::string& store) const {
  return std::find(probation_stores.begin(), probation_stores.end(), store) !=
         probation_stores.end();
}

std::string PlannedQuery::ToString() const {
  std::string out = StrCat("rewriting: ", rewriting.ToString(), "\n",
                           "estimated cost: ", estimated_cost,
                           ", estimated rows: ", estimated_rows, "\n");
  for (const std::string& d : delegated) {
    out += StrCat("delegated: ", d, "\n");
  }
  if (root) out += engine::PlanToString(*root);
  return out;
}

namespace {

/// Everything the translator derives about one rewriting atom. The
/// BoundAtom part names the routed replica placement: the store/container
/// this plan reads the fragment from (the primary unless routing moved
/// it).
struct AtomInfo : BoundAtom {
  const StoreDriver* driver = nullptr;
  /// Partitioned fragment whose partition key is not ground at plan time:
  /// the read must scatter over every shard (or dispatch per binding when
  /// the key arrives through a BindJoin). The routed placement then
  /// mirrors shard 0's for kind checks only.
  bool scatter = false;
  /// One routed placement (and its store) per shard when `scatter`.
  std::vector<catalog::ReplicaPlacement> shard_placements;
  std::vector<const StoreHandle*> shard_stores;
};

/// The scatter fan-out pool: dedicated (never the QueryServer's worker
/// pool — a query waiting for its own shard tasks behind other queued
/// queries would deadlock) and safe to share process-wide because shard
/// fetches never submit further tasks.
ThreadPool* ScatterPool() {
  static ThreadPool pool(std::max(8u, std::thread::hardware_concurrency()));
  return &pool;
}

/// Picks the replica placement a read of shard `shard_idx` goes to: the
/// first one (the primary preferred) that is fresh, not mid-rebuild, and
/// whose store is not excluded. Two passes: replicas on probation stores
/// (half-open breakers) are skipped while any fully-healthy replica
/// qualifies, and admitted as probe traffic only when nothing healthy can
/// serve. kUnavailable when no placement qualifies at all — the planner
/// then drops every rewriting using this fragment, and the server falls
/// back to staging only once *all* rewritings are gone. A dead shard
/// replica drops out here exactly like a dead replica of an unpartitioned
/// fragment, so shard reads compose with the HealthRegistry re-route rung
/// and the degradation ladder unchanged.
Result<catalog::ReplicaPlacement> RouteShard(const StorageDescriptor& frag,
                                             size_t shard_idx,
                                             const PlanConstraints& constraints) {
  const catalog::ShardState& shard = frag.shards[shard_idx];
  for (int pass = 0; pass < 2; ++pass) {
    for (const catalog::ReplicaPlacement& p : shard.replicas) {
      if (p.rebuilding || !p.fresh(shard.write_epoch)) continue;
      if (constraints.Excludes(p.store_name)) continue;
      if (pass == 0 && constraints.OnProbation(p.store_name)) continue;
      return p;
    }
  }
  return Status::Unavailable(
      StrCat("fragment '", frag.name(), "' shard ", shard_idx,
             " has no available replica (excluded, stale, or rebuilding)"));
}

/// A group of atoms reformulated as a single native store access.
struct CompiledGroup : JoinAccess {
  /// Outer variables that must be supplied per call (BindJoin bindings).
  std::vector<std::string> needed_vars;
  /// Scatter groups (partitioned fragment, key unbound): one fetch per
  /// shard plus its backing store instance name; `fetch` remains valid
  /// (per-binding dispatch or sequential concat) for BindJoin use, while
  /// source positions upgrade to a ScatterGatherOperator.
  std::vector<engine::BindJoinOperator::Fetch> shard_fetches;
  std::vector<std::string> shard_keys;
};

}  // namespace

Translator::Translator(const catalog::Catalog* catalog) : catalog_(catalog) {}

Result<PlannedQuery> Translator::Plan(
    const ConjunctiveQuery& rewriting,
    const std::map<std::string, Value>& parameters,
    const PlanConstraints& constraints) const {
  return PlanInternal(rewriting, parameters, constraints, /*build=*/true);
}

Result<PlannedQuery> Translator::Estimate(
    const ConjunctiveQuery& rewriting,
    const std::map<std::string, Value>& parameters,
    const PlanConstraints& constraints) const {
  return PlanInternal(rewriting, parameters, constraints, /*build=*/false);
}

Result<PlannedQuery> Translator::PlanInternal(
    const ConjunctiveQuery& rewriting,
    const std::map<std::string, Value>& parameters,
    const PlanConstraints& constraints, bool build) const {
  ESTOCADA_RETURN_NOT_OK(rewriting.Validate());
  auto runtime = std::make_shared<RuntimeStats>();

  // ---- Resolve atoms against the catalog, routing each fragment read
  // to one available replica placement.
  std::vector<AtomInfo> infos;
  for (const Atom& atom : rewriting.body) {
    ESTOCADA_ASSIGN_OR_RETURN(const StorageDescriptor* frag,
                              catalog_->GetFragment(atom.relation));
    if (frag->view.arity() != atom.arity()) {
      return Status::InvalidArgument(
          StrCat("atom ", atom.ToString(), " does not match fragment arity ",
                 frag->view.arity()));
    }
    AtomInfo info;
    catalog::ReplicaPlacement placement;
    size_t shard = 0;
    if (frag->shard_count() > 1) {
      // Shard pruning: when the partition key is ground at plan time
      // (a constant or a supplied parameter), the whole read collapses
      // to the one shard owning that value — routed like any replica
      // set. Otherwise every shard must be routable and the access
      // becomes a scatter (or a per-binding dispatch downstream).
      const catalog::PartitionSpec& spec = frag->partition;
      const Term& key_term = atom.terms[spec.key_position];
      std::optional<Value> key;
      if (key_term.is_constant()) {
        key = Value::FromConstant(key_term.constant());
      } else if (key_term.is_variable() &&
                 pacb::IsParameterVariable(key_term.var_name())) {
        auto it = parameters.find(key_term.var_name());
        if (it != parameters.end()) key = it->second;
      }
      if (key.has_value()) {
        shard = spec.ShardOf(*key);
      } else {
        info.scatter = true;
        for (size_t s = 0; s < spec.shards; ++s) {
          ESTOCADA_ASSIGN_OR_RETURN(catalog::ReplicaPlacement p,
                                    RouteShard(*frag, s, constraints));
          ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* sh,
                                    catalog_->GetStore(p.store_name));
          info.shard_placements.push_back(std::move(p));
          info.shard_stores.push_back(sh);
        }
        placement = info.shard_placements[0];
      }
    }
    if (!info.scatter) {
      ESTOCADA_ASSIGN_OR_RETURN(placement,
                                RouteShard(*frag, shard, constraints));
    }
    ESTOCADA_ASSIGN_OR_RETURN(const StoreHandle* store,
                              catalog_->GetStore(placement.store_name));
    info.driver = &DriverFor(store->kind);
    info.fragment = frag;
    info.store = store;
    info.store_name = std::move(placement.store_name);
    info.container = std::move(placement.container);
    for (const Term& t : atom.terms) {
      if (t.is_constant()) {
        info.ground.emplace_back(Value::FromConstant(t.constant()));
        info.var.emplace_back("");
      } else if (t.is_variable() &&
                 pacb::IsParameterVariable(t.var_name())) {
        auto it = parameters.find(t.var_name());
        if (it == parameters.end()) {
          return Status::InvalidArgument(
              StrCat("no value supplied for parameter ", t.var_name()));
        }
        info.ground.emplace_back(it->second);
        info.var.emplace_back("");
      } else if (t.is_variable()) {
        info.ground.emplace_back(std::nullopt);
        info.var.emplace_back(t.var_name());
      } else {
        return Status::InvalidArgument(
            StrCat("labelled null in rewriting atom ", atom.ToString()));
      }
    }
    infos.push_back(std::move(info));
  }

  // ---- Feasible evaluation order under access patterns.
  pacb::AdornmentMap adornments;
  for (const AtomInfo& info : infos) {
    if (!info.fragment->view.adornments.empty()) {
      adornments[info.fragment->name()] = info.fragment->view.adornments;
    }
  }
  std::vector<size_t> order =
      pacb::FeasibleOrder(rewriting.body, adornments);
  if (order.empty() && !rewriting.body.empty()) {
    return Status::NoRewriting(
        StrCat("rewriting is not executable under access patterns: ",
               rewriting.ToString()));
  }

  // ---- Group: all atoms on one store instance whose driver fuses
  // (relational) form one delegated subquery anchored at the first of
  // them; every other atom is its own group. Groups point into `infos`.
  std::vector<std::vector<const BoundAtom*>> groups;
  std::map<std::string, size_t> fused_group_of_store;
  for (size_t idx : order) {
    const AtomInfo& info = infos[idx];
    // A scattered atom never fuses: each shard holds only part of its
    // extent, so it cannot join inside one delegated query.
    if (info.driver->fuses() && !info.scatter) {
      auto it = fused_group_of_store.find(info.store_name);
      if (it != fused_group_of_store.end()) {
        groups[it->second].push_back(&info);
        continue;
      }
      fused_group_of_store.emplace(info.store_name, groups.size());
    }
    groups.push_back({&info});
  }

  // ---- Compile each group to a native access.
  PlannedQuery plan;
  plan.rewriting = rewriting;
  plan.runtime_stats = runtime;
  for (const AtomInfo& info : infos) {
    if (info.scatter) {
      for (const catalog::ReplicaPlacement& p : info.shard_placements) {
        plan.stores_used.push_back(p.store_name);
      }
    } else {
      plan.stores_used.push_back(info.store_name);
    }
  }
  std::sort(plan.stores_used.begin(), plan.stores_used.end());
  plan.stores_used.erase(
      std::unique(plan.stores_used.begin(), plan.stores_used.end()),
      plan.stores_used.end());

  std::vector<CompiledGroup> compiled;
  for (const std::vector<const BoundAtom*>& group : groups) {
    CompiledGroup cg;
    const AtomInfo& info = static_cast<const AtomInfo&>(*group[0]);
    if (info.driver->fuses() && !info.scatter) {
      ESTOCADA_ASSIGN_OR_RETURN(
          static_cast<JoinAccess&>(cg),
          info.driver->CompileJoin(group, runtime, build));
      compiled.push_back(std::move(cg));
      continue;
    }

    // -- Single-atom groups.
    const size_t arity = info.arity();
    cg.out_names = catalog::FragmentColumnNames(info.fragment->view);
    cg.out_vars = info.var;
    for (size_t i = 0; i < arity; ++i) {
      cg.out_distinct.push_back(static_cast<double>(
          i < info.fragment->stats.distinct.size()
              ? info.fragment->stats.distinct[i]
              : 0));
    }
    // Needed variables: input-adorned positions holding a free variable.
    std::vector<size_t> needed_positions;
    const auto& adorn = info.fragment->view.adornments;
    for (size_t i = 0; i < arity; ++i) {
      if (i < adorn.size() && adorn[i] == Adornment::kInput &&
          !info.var[i].empty() &&
          // If the same variable repeats and an earlier position binds
          // it, the post-check handles consistency.
          std::find(cg.needed_vars.begin(), cg.needed_vars.end(),
                    info.var[i]) == cg.needed_vars.end()) {
        needed_positions.push_back(i);
        cg.needed_vars.push_back(info.var[i]);
      }
    }
    double sel = 1;
    for (size_t i = 0; i < arity; ++i) {
      if (info.ground[i].has_value()) {
        sel *= info.fragment->stats.EqualitySelectivity(i);
      }
    }
    for (size_t p : needed_positions) {
      sel *= info.fragment->stats.EqualitySelectivity(p);
    }
    const double rows_total =
        static_cast<double>(info.fragment->stats.row_count);
    cg.est_out_rows = std::max(rows_total * sel, 0.0);
    if (!info.scatter) {
      ESTOCADA_ASSIGN_OR_RETURN(
          static_cast<NativeAccess&>(cg),
          info.driver->CompileAccess({info, needed_positions, cg.needed_vars,
                                      rows_total, cg.est_out_rows, runtime,
                                      build}));
    } else {
      // Scatter: compile one access per shard against its routed replica.
      const catalog::PartitionSpec& spec = info.fragment->partition;
      const double shard_div = static_cast<double>(spec.shards);
      double total_cost = 0;
      for (size_t s = 0; s < spec.shards; ++s) {
        BoundAtom si = info;
        si.store = info.shard_stores[s];
        si.store_name = info.shard_placements[s].store_name;
        si.container = info.shard_placements[s].container;
        // Pre-insert the per-store stats slot now: concurrent shard
        // fetches then only ever *find* entries, never grow the map.
        runtime->per_store[si.store_name];
        ESTOCADA_ASSIGN_OR_RETURN(
            NativeAccess access,
            DriverFor(si.store->kind)
                .CompileAccess({si, needed_positions, cg.needed_vars,
                                std::max(rows_total / shard_div, 1.0),
                                std::max(cg.est_out_rows / shard_div, 0.0),
                                runtime, build}));
        total_cost += access.access_cost;
        if (s == 0 && build) {
          cg.desc = StrCat("scatter[", spec.shards, " shards] ", access.desc);
        }
        cg.shard_fetches.push_back(std::move(access.fetch));
        cg.shard_keys.push_back(si.store_name);
      }
      cg.access_cost = total_cost;
      // When the partition key arrives as a BindJoin binding, every call
      // routes to exactly one shard (dynamic pruning).
      int key_idx = -1;
      for (size_t i = 0; i < needed_positions.size(); ++i) {
        if (needed_positions[i] == spec.key_position) {
          key_idx = static_cast<int>(i);
        }
      }
      std::vector<engine::BindJoinOperator::Fetch> fetches;
      if (build) fetches = cg.shard_fetches;
      if (key_idx >= 0) {
        if (build) {
          const catalog::PartitionSpec spec_copy = spec;
          const size_t ki = static_cast<size_t>(key_idx);
          cg.fetch = [fetches, spec_copy, ki](const Row& binding)
              -> Result<std::vector<Row>> {
            return fetches[spec_copy.ShardOf(binding[ki])](binding);
          };
        }
        // A bound key prunes to one shard, so charge one shard's access.
        cg.access_cost = total_cost / shard_div;
      } else if (build) {
        // No key in the binding: each call must consult every shard
        // (sequential here; standalone sources get ScatterGatherOperator).
        cg.fetch = [fetches](const Row& binding) -> Result<std::vector<Row>> {
          std::vector<Row> all;
          for (const auto& f : fetches) {
            ESTOCADA_ASSIGN_OR_RETURN(std::vector<Row> part, f(binding));
            all.insert(all.end(), std::make_move_iterator(part.begin()),
                       std::make_move_iterator(part.end()));
          }
          return all;
        };
      }
    }
    compiled.push_back(std::move(cg));
  }

  // ---- Stitch groups with hash joins / bind joins. In estimate mode
  // the same walk runs — scope/width bookkeeping, NoRewriting checks and
  // cost arithmetic are all shared — but no operators are constructed.
  OperatorPtr tree;
  bool first_group = true;
  std::unordered_map<std::string, size_t> scope;  // var -> column index
  size_t width = 0;
  double est_rows = 1;
  double est_cost = 0;

  // Set semantics below the joins: a column of a self-contained group
  // that neither the head nor any other group reads (a variable of this
  // group only, a ground position, a repeated variable's second column)
  // only multiplies rows. Such a group's source is projected onto its
  // live columns and deduplicated; the top Project + Distinct makes the
  // answer a set anyway. A dead column holds no variable in scope, so
  // dropping it changes no estimate, and estimate mode skips it. (Groups
  // and variables are few: plain scans beat building sets.)
  auto contains = [](const std::vector<std::string>& vars,
                     const std::string& v) {
    return std::find(vars.begin(), vars.end(), v) != vars.end();
  };
  auto read_elsewhere = [&](const CompiledGroup& self, const std::string& v) {
    for (const Term& h : rewriting.head) {
      if (h.is_variable() && h.var_name() == v) return true;
    }
    for (const CompiledGroup& other : compiled) {
      if (&other != &self &&
          (contains(other.out_vars, v) || contains(other.needed_vars, v))) {
        return true;
      }
    }
    return false;
  };
  // The live columns of a self-contained group; empty when it keeps all.
  auto live_columns = [&](const CompiledGroup& cg) {
    std::vector<size_t> live;
    if (compiled.size() < 2 || !cg.needed_vars.empty()) return live;
    for (size_t i = 0; i < cg.out_vars.size(); ++i) {
      const std::string& v = cg.out_vars[i];
      const auto first = cg.out_vars.begin() + static_cast<std::ptrdiff_t>(i);
      if (!v.empty() && std::find(cg.out_vars.begin(), first, v) == first &&
          read_elsewhere(cg, v)) {
        live.push_back(i);
      }
    }
    if (live.size() == cg.out_vars.size()) live.clear();
    return live;
  };

  for (CompiledGroup& cg : compiled) {
    plan.delegated.push_back(cg.desc);
    // Builds the source operator for a group that takes no outer bindings:
    // scatter groups fan their per-shard fetches out over the scatter pool
    // (gathered in shard order — deterministic); everything else is a
    // plain lazy callback scan.
    auto make_source = [&cg]() -> OperatorPtr {
      if (cg.shard_fetches.size() > 1) {
        std::vector<engine::ScatterGatherOperator::Fetch> shard_runs;
        shard_runs.reserve(cg.shard_fetches.size());
        for (const auto& f : cg.shard_fetches) {
          shard_runs.push_back([f]() { return f(Row{}); });
        }
        return std::make_unique<engine::ScatterGatherOperator>(
            cg.out_names, std::move(shard_runs), cg.shard_keys, cg.desc,
            ScatterPool());
      }
      if (cg.graph_stream) {
        return std::make_unique<engine::GraphFetchOperator>(
            cg.out_names, cg.graph_reset, cg.graph_stream, cg.desc);
      }
      auto fetch = cg.fetch;
      return std::make_unique<engine::CallbackScanOperator>(
          cg.out_names, [fetch]() { return fetch(Row{}); }, cg.desc);
    };
    // The source of a self-contained group, narrowed to its live columns
    // (null in estimate mode); `cg` then describes the narrowed columns.
    auto make_set_source = [&]() -> OperatorPtr {
      if (!build) return nullptr;
      OperatorPtr source = make_source();
      const std::vector<size_t> live = live_columns(cg);
      if (live.empty()) return source;
      std::vector<std::string> vars, names;
      std::vector<double> distinct;
      std::vector<ExprPtr> exprs;
      for (size_t i : live) {
        vars.push_back(cg.out_vars[i]);
        names.push_back(cg.out_names[i]);
        distinct.push_back(cg.out_distinct[i]);
        exprs.push_back(Expr::Column(i));
      }
      source = std::make_unique<engine::DistinctOperator>(
          std::make_unique<engine::ProjectOperator>(std::move(source), names,
                                                    std::move(exprs)));
      cg.out_vars = std::move(vars);
      cg.out_names = std::move(names);
      cg.out_distinct = std::move(distinct);
      return source;
    };
    // Join selectivity for shared output variables (not used as binding).
    auto shared_selectivity = [&]() {
      double sel = 1;
      std::unordered_set<std::string> counted;
      for (size_t i = 0; i < cg.out_vars.size(); ++i) {
        const std::string& v = cg.out_vars[i];
        if (v.empty() || !scope.count(v)) continue;
        if (std::find(cg.needed_vars.begin(), cg.needed_vars.end(), v) !=
            cg.needed_vars.end()) {
          continue;
        }
        if (!counted.insert(v).second) continue;
        sel *= cg.out_distinct[i] > 0 ? 1.0 / cg.out_distinct[i] : 0.1;
      }
      return sel;
    };

    if (first_group) {
      if (!cg.needed_vars.empty()) {
        return Status::NoRewriting(
            StrCat("first group of plan needs outer bindings (",
                   StrJoin(cg.needed_vars, ", "), ")"));
      }
      tree = make_set_source();
      est_cost += cg.access_cost;
      est_rows = cg.est_out_rows;
    } else if (!cg.needed_vars.empty()) {
      // BindJoin: feed scope values into the access-restricted source.
      std::vector<size_t> bind_cols;
      for (const std::string& v : cg.needed_vars) {
        auto it = scope.find(v);
        if (it == scope.end()) {
          return Status::NoRewriting(
              StrCat("binding variable '", v, "' not available in scope"));
        }
        bind_cols.push_back(it->second);
      }
      if (build) {
        auto bind_join = std::make_unique<engine::BindJoinOperator>(
            std::move(tree), bind_cols, cg.out_names, cg.fetch, cg.desc);
        if (cg.batch_fetch) bind_join->set_batch_fetch(cg.batch_fetch);
        tree = std::move(bind_join);
      }
      // Equality post-filters for shared vars that are plain outputs.
      if (build) {
        ExprPtr post;
        for (size_t i = 0; i < cg.out_vars.size(); ++i) {
          const std::string& v = cg.out_vars[i];
          if (v.empty() || !scope.count(v)) continue;
          if (std::find(cg.needed_vars.begin(), cg.needed_vars.end(), v) !=
              cg.needed_vars.end()) {
            continue;
          }
          ExprPtr clause = Expr::Binary(Expr::Op::kEq,
                                        Expr::Column(scope[v]),
                                        Expr::Column(width + i));
          post = post ? Expr::Binary(Expr::Op::kAnd, post, clause) : clause;
        }
        if (post) {
          tree = std::make_unique<engine::FilterOperator>(std::move(tree),
                                                          post);
        }
      }
      est_cost += est_rows * cg.access_cost;
      est_rows = est_rows * cg.est_out_rows * shared_selectivity();
    } else {
      // Self-contained group: hash join on shared variables.
      OperatorPtr source = make_set_source();
      if (build) {
        std::vector<std::pair<size_t, size_t>> keys;
        std::unordered_set<std::string> keyed;
        for (size_t i = 0; i < cg.out_vars.size(); ++i) {
          const std::string& v = cg.out_vars[i];
          if (v.empty() || !scope.count(v)) continue;
          if (!keyed.insert(v).second) continue;
          keys.emplace_back(scope[v], i);
        }
        tree = std::make_unique<engine::HashJoinOperator>(std::move(tree),
                                                          std::move(source),
                                                          keys);
      }
      est_cost += cg.access_cost;
      est_rows = est_rows * cg.est_out_rows * shared_selectivity();
    }
    first_group = false;
    // Extend the variable scope with this group's fresh outputs.
    for (size_t i = 0; i < cg.out_vars.size(); ++i) {
      const std::string& v = cg.out_vars[i];
      if (!v.empty()) scope.emplace(v, width + i);
    }
    width += cg.out_vars.size();
  }

  // ---- Head projection (+ set semantics).
  std::vector<std::string> names;
  std::vector<ExprPtr> exprs;
  for (size_t i = 0; i < rewriting.head.size(); ++i) {
    const Term& h = rewriting.head[i];
    if (h.is_constant()) {
      names.push_back(StrCat("h", i));
      exprs.push_back(Expr::Const(Value::FromConstant(h.constant())));
    } else if (h.is_variable() &&
               pacb::IsParameterVariable(h.var_name())) {
      auto it = parameters.find(h.var_name());
      if (it == parameters.end()) {
        return Status::InvalidArgument(
            StrCat("no value supplied for parameter ", h.var_name()));
      }
      names.push_back(h.var_name().substr(1));
      exprs.push_back(Expr::Const(it->second));
    } else if (h.is_variable()) {
      auto it = scope.find(h.var_name());
      if (it == scope.end()) {
        return Status::InvalidArgument(
            StrCat("head variable '", h.var_name(), "' not produced"));
      }
      names.push_back(h.var_name());
      exprs.push_back(Expr::Column(it->second));
    } else {
      return Status::InvalidArgument("unsupported rewriting head term");
    }
  }
  if (build) {
    tree = std::make_unique<engine::ProjectOperator>(std::move(tree), names,
                                                     exprs);
    tree = std::make_unique<engine::DistinctOperator>(std::move(tree));
    plan.root = std::move(tree);
  }
  plan.estimated_cost = est_cost;
  plan.estimated_rows = est_rows;
  return plan;
}

}  // namespace estocada::rewriting
