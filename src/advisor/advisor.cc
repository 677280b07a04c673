#include "advisor/advisor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "pacb/feasibility.h"

namespace estocada::advisor {

using pivot::Adornment;
using pivot::Atom;
using pivot::ConjunctiveQuery;
using pivot::Term;

std::string WorkloadLog::ShapeKey(const ConjunctiveQuery& query) {
  // Rename variables positionally; parameters keep only their '$' marker
  // so different parameter *names* and values map to the same shape.
  std::unordered_map<std::string, std::string> renaming;
  size_t next = 0;
  auto rename = [&](const Term& t) -> std::string {
    if (t.is_constant()) return t.ToString();
    if (!t.is_variable()) return t.ToString();
    bool param = pacb::IsParameterVariable(t.var_name());
    auto it = renaming.find(t.var_name());
    if (it == renaming.end()) {
      it = renaming
               .emplace(t.var_name(),
                        StrCat(param ? "$p" : "v", next++))
               .first;
    }
    return it->second;
  };
  std::string key;
  for (const Atom& a : query.body) {
    key += a.relation;
    key += '(';
    for (const Term& t : a.terms) {
      key += rename(t);
      key += ',';
    }
    key += ") ";
  }
  key += "-> ";
  for (const Term& t : query.head) {
    key += rename(t);
    key += ',';
  }
  return key;
}

void WorkloadLog::Record(const ConjunctiveQuery& query, double cost,
                         const std::vector<std::string>& fragments_used,
                         const std::map<std::string, engine::Value>& parameters,
                         size_t rows_returned) {
  std::string key = ShapeKey(query);
  std::lock_guard<std::mutex> lock(mu_);
  WorkloadEntry& entry = entries_[key];
  if (entry.count == 0) entry.example = query;
  ++entry.count;
  entry.total_cost += cost;
  entry.total_rows += static_cast<double>(rows_returned);
  for (const std::string& f : fragments_used) ++entry.fragments_used[f];
  if (!parameters.empty()) {
    // Bounded ring of recent bindings: the newest observation overwrites
    // the oldest, so probes track workload drift.
    if (entry.parameter_samples.size() < WorkloadEntry::kMaxParameterSamples) {
      entry.parameter_samples.push_back(parameters);
    } else {
      entry.parameter_samples[entry.sample_cursor %
                              WorkloadEntry::kMaxParameterSamples] =
          parameters;
    }
    ++entry.sample_cursor;
  }
  if (capacity_ > 0 && entries_.size() > capacity_) EnforceCapacityLocked(key);
}

void WorkloadLog::EnforceCapacityLocked(const std::string& newcomer) {
  // Exponential forgetting: halve every entry, dropping those that decay
  // to nothing. Recurrent shapes survive many decays; one-off shapes (the
  // usual cause of overflow) vanish after the first. The entry that just
  // overflowed the log is exempt — halving it would erase the newest
  // observation on every insert, so a newly hot shape could never enter
  // a full log.
  ++decays_;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first == newcomer) {
      ++it;
      continue;
    }
    WorkloadEntry& e = it->second;
    e.count /= 2;
    e.total_cost /= 2;
    e.total_rows /= 2;
    for (auto f = e.fragments_used.begin(); f != e.fragments_used.end();) {
      f->second /= 2;
      f = f->second == 0 ? e.fragments_used.erase(f) : std::next(f);
    }
    it = e.count == 0 ? entries_.erase(it) : std::next(it);
  }
  // Still full (every shape recurrent): evict the cheapest shapes — the
  // advisor would never recommend for them anyway.
  while (entries_.size() > capacity_) {
    auto cheapest = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.total_cost < cheapest->second.total_cost) cheapest = it;
    }
    entries_.erase(cheapest);
  }
}

size_t WorkloadLog::decays() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decays_;
}

std::map<std::string, WorkloadEntry> WorkloadLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

void WorkloadLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t WorkloadLog::FragmentUses(const std::string& fragment) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t uses = 0;
  for (const auto& [key, entry] : entries_) {
    auto it = entry.fragments_used.find(fragment);
    if (it != entry.fragments_used.end()) uses += it->second;
  }
  return uses;
}

std::string Recommendation::ToString() const {
  if (action == Action::kDropFragment) {
    return StrCat("DROP ", fragment_name, "  # ", rationale);
  }
  return StrCat("ADD ", view.query.ToString(), " @ ", store_name, "  # ",
                rationale);
}

StorageAdvisor::StorageAdvisor(AdvisorOptions options) : options_(options) {}

const char* PatternName(WorkloadPattern pattern) {
  switch (pattern) {
    case WorkloadPattern::kInsufficient: return "insufficient";
    case WorkloadPattern::kLookupHeavy: return "lookup-heavy";
    case WorkloadPattern::kJoinHeavy: return "join-heavy";
    case WorkloadPattern::kMixed: return "mixed";
  }
  return "unknown";
}

std::string PatternSummary::ToString() const {
  return StrCat(PatternName(pattern), " (lookup ",
                static_cast<int>(lookup_cost_share * 100), "%, join ",
                static_cast<int>(join_cost_share * 100), "% of cost over ",
                total_count, " executions)");
}

namespace {

/// Number of parameter positions in the body of `q`.
size_t CountParams(const pivot::ConjunctiveQuery& q) {
  size_t params = 0;
  for (const pivot::Atom& a : q.body) {
    for (const pivot::Term& t : a.terms) {
      if (t.is_variable() && pacb::IsParameterVariable(t.var_name())) {
        ++params;
      }
    }
  }
  return params;
}

bool IsLookupShape(const pivot::ConjunctiveQuery& q) {
  return q.body.size() == 1 && CountParams(q) >= 1;
}

bool IsJoinShape(const pivot::ConjunctiveQuery& q) {
  return q.body.size() >= 2;
}

}  // namespace

PatternSummary ClassifyWorkload(
    const std::map<std::string, WorkloadEntry>& entries,
    const AdvisorOptions& options) {
  PatternSummary out;
  double total_cost = 0, lookup_cost = 0, join_cost = 0;
  for (const auto& [key, entry] : entries) {
    out.total_count += entry.count;
    total_cost += entry.total_cost;
    if (IsLookupShape(entry.example)) {
      lookup_cost += entry.total_cost;
    } else if (IsJoinShape(entry.example)) {
      join_cost += entry.total_cost;
    }
  }
  if (out.total_count < options.min_count || total_cost <= 0) {
    out.pattern = WorkloadPattern::kInsufficient;
    return out;
  }
  out.lookup_cost_share = lookup_cost / total_cost;
  out.join_cost_share = join_cost / total_cost;
  if (out.lookup_cost_share >= options.pattern_dominance) {
    out.pattern = WorkloadPattern::kLookupHeavy;
  } else if (out.join_cost_share >= options.pattern_dominance) {
    out.pattern = WorkloadPattern::kJoinHeavy;
  } else {
    out.pattern = WorkloadPattern::kMixed;
  }
  return out;
}

namespace {

/// First registered store of the wanted kind, if any.
std::optional<std::string> FindStoreOfKind(const catalog::Catalog& catalog,
                                           catalog::StoreKind kind) {
  for (const auto& [name, handle] : catalog.stores()) {
    if (handle.kind == kind) return name;
  }
  return std::nullopt;
}

/// Builds the materialized-view definition for a heavy query shape: head =
/// parameter positions first (these become the index / key), then the
/// query's own head variables; body = the query body with parameters
/// turned into plain variables.
pacb::ViewDefinition ViewForShape(const ConjunctiveQuery& query,
                                  const std::string& name) {
  pacb::ViewDefinition view;
  view.query.name = name;
  // Parameters become regular variables of the view.
  std::unordered_map<std::string, std::string> renamed;
  auto fix = [&renamed](const Term& t) {
    if (t.is_variable() && pacb::IsParameterVariable(t.var_name())) {
      auto it = renamed.find(t.var_name());
      if (it == renamed.end()) {
        it = renamed.emplace(t.var_name(), t.var_name().substr(1)).first;
      }
      return Term::Var(it->second);
    }
    return t;
  };
  std::vector<std::string> param_vars;
  std::unordered_set<std::string> param_seen;
  for (const Atom& a : query.body) {
    Atom out;
    out.relation = a.relation;
    for (const Term& t : a.terms) {
      Term fixed = fix(t);
      if (t.is_variable() && pacb::IsParameterVariable(t.var_name()) &&
          param_seen.insert(fixed.var_name()).second) {
        param_vars.push_back(fixed.var_name());
      }
      out.terms.push_back(std::move(fixed));
    }
    view.query.body.push_back(std::move(out));
  }
  std::unordered_set<std::string> in_head;
  for (const std::string& p : param_vars) {
    view.query.head.push_back(Term::Var(p));
    view.adornments.push_back(Adornment::kInput);
    in_head.insert(p);
  }
  for (const Term& h : query.head) {
    Term fixed = fix(h);
    if (fixed.is_variable() && in_head.insert(fixed.var_name()).second) {
      view.query.head.push_back(fixed);
      view.adornments.push_back(Adornment::kFree);
    }
  }
  return view;
}

/// True when the catalog already holds a fragment with the same body
/// shape *in a store of the same kind* (an equivalent view in a slower
/// store kind is exactly what a migration recommendation replaces).
bool EquivalentFragmentExists(const catalog::Catalog& catalog,
                              const pacb::ViewDefinition& view,
                              catalog::StoreKind kind) {
  std::string key = WorkloadLog::ShapeKey(view.query);
  for (const auto& [name, desc] : catalog.fragments()) {
    auto store = catalog.GetStore(desc.primary().store_name);
    if (store.ok() && (*store)->kind == kind &&
        WorkloadLog::ShapeKey(desc.view.query) == key) {
      return true;
    }
  }
  return false;
}

}  // namespace

namespace {

/// Total uses of `fragment` across a log snapshot.
size_t UsesInSnapshot(const std::map<std::string, WorkloadEntry>& entries,
                      const std::string& fragment) {
  size_t uses = 0;
  for (const auto& [key, entry] : entries) {
    auto it = entry.fragments_used.find(fragment);
    if (it != entry.fragments_used.end()) uses += it->second;
  }
  return uses;
}

/// Replayable probes of one shape: the representative query text with
/// each recorded parameter binding.
std::vector<CostProbe> ProbesFor(const WorkloadEntry& entry) {
  std::vector<CostProbe> probes;
  std::string text = entry.example.ToString();
  for (const auto& params : entry.parameter_samples) {
    probes.push_back({text, params});
  }
  return probes;
}

}  // namespace

std::vector<ScoredCandidate> StorageAdvisor::Candidates(
    const catalog::Catalog& catalog,
    const std::map<std::string, WorkloadEntry>& entries) const {
  std::vector<ScoredCandidate> out;

  // Dominance gating: with require_dominant_pattern, an ambiguous or
  // under-observed mix yields *no* recommendation (the advisor must not
  // coin-flip), and a dominant pattern restricts add candidates to its
  // own family.
  PatternSummary pattern = ClassifyWorkload(entries, options_);
  if (options_.require_dominant_pattern &&
      (pattern.pattern == WorkloadPattern::kMixed ||
       pattern.pattern == WorkloadPattern::kInsufficient)) {
    return out;
  }
  const bool allow_lookup =
      !options_.require_dominant_pattern ||
      pattern.pattern == WorkloadPattern::kLookupHeavy;
  const bool allow_join = !options_.require_dominant_pattern ||
                          pattern.pattern == WorkloadPattern::kJoinHeavy;

  // Heavy hitters, most expensive aggregate first.
  std::vector<std::pair<const std::string*, const WorkloadEntry*>> heavy;
  for (const auto& [key, entry] : entries) {
    if (entry.count >= options_.min_count &&
        entry.MeanCost() >= options_.min_mean_cost) {
      heavy.emplace_back(&key, &entry);
    }
  }
  std::sort(heavy.begin(), heavy.end(),
            [](const auto& a, const auto& b) {
              return a.second->total_cost > b.second->total_cost;
            });

  auto evidence = [](ScoredCandidate* c, const std::string& key,
                     const WorkloadEntry& entry) {
    c->shape_key = key;
    c->count = entry.count;
    c->observed_mean_cost = entry.MeanCost();
    c->observed_mean_rows = entry.MeanRows();
    c->probes = ProbesFor(entry);
  };

  size_t fresh_id = 0;
  for (const auto& [key, entry] : heavy) {
    if (out.size() >= options_.max_recommendations) break;
    const ConjunctiveQuery& q = entry->example;
    if (IsLookupShape(q) && allow_lookup) {
      // Key-lookup shape -> key-value fragment.
      auto store = FindStoreOfKind(catalog, catalog::StoreKind::kKeyValue);
      if (!store) continue;
      pacb::ViewDefinition view =
          ViewForShape(q, StrCat("F_adv_kv_", fresh_id++));
      if (EquivalentFragmentExists(catalog, view,
                                   catalog::StoreKind::kKeyValue)) {
        continue;
      }
      ScoredCandidate c;
      c.rec.action = Recommendation::Action::kAddFragment;
      c.rec.view = std::move(view);
      c.rec.store_name = *store;
      c.rec.rationale =
          StrCat("key-lookup shape, ", entry->count, " calls, mean cost ",
                 entry->MeanCost());
      c.store_kind = catalog::StoreKind::kKeyValue;
      evidence(&c, *key, *entry);
      out.push_back(std::move(c));
    } else if (IsJoinShape(q) && allow_join) {
      // Join shape -> materialized join in a parallel store (fall back to
      // a relational store when no parallel store is registered).
      auto store = FindStoreOfKind(catalog, catalog::StoreKind::kParallel);
      bool parallel = store.has_value();
      if (!store) {
        store = FindStoreOfKind(catalog, catalog::StoreKind::kRelational);
      }
      if (!store) continue;
      pacb::ViewDefinition view =
          ViewForShape(q, StrCat("F_adv_join_", fresh_id++));
      if (!parallel) view.adornments.clear();  // No composite index.
      if (EquivalentFragmentExists(catalog, view,
                                   parallel
                                       ? catalog::StoreKind::kParallel
                                       : catalog::StoreKind::kRelational)) {
        continue;
      }
      ScoredCandidate c;
      c.rec.action = Recommendation::Action::kAddFragment;
      c.rec.view = std::move(view);
      c.rec.store_name = *store;
      c.rec.rationale = StrCat("heavy join shape, ", entry->count,
                               " calls, mean cost ", entry->MeanCost());
      c.store_kind = parallel ? catalog::StoreKind::kParallel
                              : catalog::StoreKind::kRelational;
      evidence(&c, *key, *entry);
      out.push_back(std::move(c));
    }
  }

  // Drop candidates: fragments that are both *unused* (no logged plan
  // touched them) and *redundant* (every dataset relation they cover is
  // still covered by some other fragment, so no query becomes
  // unanswerable). The redundancy check keeps the advisor from cutting
  // off future workload drift.
  if (!entries.empty()) {
    for (const auto& [name, desc] : catalog.fragments()) {
      if (out.size() >= options_.max_recommendations) break;
      if (UsesInSnapshot(entries, name) != 0) continue;
      bool redundant = true;
      for (const Atom& a : desc.view.query.body) {
        bool covered_elsewhere = false;
        for (const auto& [other_name, other] : catalog.fragments()) {
          if (other_name == name) continue;
          for (const Atom& b : other.view.query.body) {
            if (b.relation == a.relation) {
              covered_elsewhere = true;
              break;
            }
          }
          if (covered_elsewhere) break;
        }
        if (!covered_elsewhere) {
          redundant = false;
          break;
        }
      }
      if (!redundant) continue;
      ScoredCandidate c;
      c.rec.action = Recommendation::Action::kDropFragment;
      c.rec.fragment_name = name;
      c.rec.rationale = "unused by every logged query plan, and redundant";
      out.push_back(std::move(c));
    }
  }
  return out;
}

std::vector<Recommendation> StorageAdvisor::Recommend(
    const catalog::Catalog& catalog, const WorkloadLog& log) const {
  std::vector<Recommendation> out;
  for (ScoredCandidate& c : Candidates(catalog, log.entries())) {
    out.push_back(std::move(c.rec));
  }
  return out;
}

}  // namespace estocada::advisor
