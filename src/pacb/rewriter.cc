#include "pacb/rewriter.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <unordered_set>

#include "chase/containment.h"
#include "chase/homomorphism.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace estocada::pacb {

using chase::Instance;
using chase::Match;
using chase::ProvFormula;
using pivot::Atom;
using pivot::ConjunctiveQuery;
using pivot::Substitution;
using pivot::Term;

Rewriter::Rewriter(pivot::Schema schema, std::vector<ViewDefinition> views)
    : schema_(std::move(schema)), views_(std::move(views)) {}

Status Rewriter::Prepare() {
  std::vector<pivot::Dependency> forward = schema_.dependencies();
  std::vector<pivot::Dependency> backward = schema_.dependencies();
  for (const ViewDefinition& v : views_) {
    ESTOCADA_ASSIGN_OR_RETURN(ViewConstraints vc, MakeViewConstraints(v));
    forward.push_back(vc.forward);
    backward.push_back(vc.backward);
    if (!v.adornments.empty()) {
      adornments_[v.name()] = v.adornments;
    }
  }
  // The forward set holds every schema dependency and every view's body
  // and head, so its constants are exactly the named ones.
  named_constants_.clear();
  auto name_constants = [&](const std::vector<Atom>& atoms) {
    for (const Atom& a : atoms) {
      for (const Term& t : a.terms) {
        if (t.is_constant()) named_constants_.insert(t.constant());
      }
    }
  };
  for (const pivot::Dependency& d : forward) {
    if (d.is_tgd()) {
      name_constants(d.tgd.body);
      name_constants(d.tgd.head);
    } else {
      name_constants(d.egd.body);
      for (const Term* t : {&d.egd.left, &d.egd.right}) {
        if (t->is_constant()) named_constants_.insert(t->constant());
      }
    }
  }
  forward_deps_ = std::make_shared<const std::vector<pivot::Dependency>>(
      std::move(forward));
  backward_deps_ = std::make_shared<const std::vector<pivot::Dependency>>(
      std::move(backward));
  prepared_ = true;
  return Status::OK();
}

Result<Rewriter::UniversalPlan> Rewriter::BuildUniversalPlan(
    const ConjunctiveQuery& q, const RewriterOptions& options,
    chase::ChaseEngine* forward, RewriterStats* stats) const {
  pivot::FrozenBody fb = pivot::FreezeBody(q);
  Instance inst;
  ESTOCADA_RETURN_NOT_OK(inst.InsertAll(fb.atoms));
  ESTOCADA_RETURN_NOT_OK(forward->Run(&inst, options.chase));
  stats->forward_chase_atoms = inst.live_size();

  UniversalPlan plan;
  std::unordered_set<std::string> view_names;
  for (const ViewDefinition& v : views_) view_names.insert(v.name());
  for (const ViewDefinition& v : views_) {
    for (size_t id : inst.AtomsOf(v.name())) {
      if (!inst.alive(id)) continue;
      plan.view_atoms.push_back(inst.atom(id));
    }
  }
  // Deterministic order (relation name, then terms) so candidate ids and
  // rewriting variable names are stable run to run.
  std::sort(plan.view_atoms.begin(), plan.view_atoms.end());
  plan.view_atoms.erase(
      std::unique(plan.view_atoms.begin(), plan.view_atoms.end()),
      plan.view_atoms.end());
  stats->universal_plan_atoms = plan.view_atoms.size();

  for (const Term& h : q.head) {
    plan.head_targets.push_back(
        inst.Canonical(pivot::ApplySubstitution(fb.freeze, h)));
  }
  for (const auto& [var, null_term] : fb.freeze) {
    Term canon = inst.Canonical(null_term);
    if (!canon.is_labelled_null()) continue;
    auto it = plan.null_names.find(canon.null_id());
    // Prefer parameter names ('$uid'), then keep the first seen.
    if (it == plan.null_names.end() ||
        (IsParameterVariable(var) && !IsParameterVariable(it->second))) {
      plan.null_names[canon.null_id()] = var;
    }
  }
  plan.instance = std::move(inst);
  return plan;
}

namespace {

/// Names a canonical null for use as a rewriting variable.
std::string NullVarName(const std::map<uint64_t, std::string>& names,
                        uint64_t null_id) {
  auto it = names.find(null_id);
  if (it != names.end()) return it->second;
  return StrCat("_x", null_id);
}

/// Whether the candidate exposes every head value: each labelled-null head
/// target must occur in some candidate atom — CandidateToQuery fails on
/// exactly these, but this id-level check lets doomed candidates skip both
/// verification and query construction. Out-of-range atom ids read as not
/// exposing (CandidateToQuery rejects those too).
bool ExposesHead(const std::vector<Atom>& view_atoms,
                 const std::vector<Term>& head_targets,
                 const std::vector<uint32_t>& ids) {
  for (uint32_t id : ids) {
    if (id >= view_atoms.size()) return false;
  }
  for (const Term& target : head_targets) {
    if (!target.is_labelled_null()) continue;
    bool covered = false;
    for (uint32_t id : ids) {
      for (const Term& t : view_atoms[id].terms) {
        if (t.is_labelled_null() && t.null_id() == target.null_id()) {
          covered = true;
          break;
        }
      }
      if (covered) break;
    }
    if (!covered) return false;
  }
  return true;
}

}  // namespace

Result<ConjunctiveQuery> Rewriter::CandidateToQuery(
    const ConjunctiveQuery& q, const UniversalPlan& plan,
    const std::vector<uint32_t>& atom_ids) const {
  ConjunctiveQuery out;
  out.name = q.name;
  std::unordered_set<uint64_t> covered;
  for (uint32_t id : atom_ids) {
    if (id >= plan.view_atoms.size()) {
      return Status::Internal("candidate atom id out of range");
    }
    const Atom& ground = plan.view_atoms[id];
    Atom a;
    a.relation = ground.relation;
    for (const Term& t : ground.terms) {
      if (t.is_labelled_null()) {
        covered.insert(t.null_id());
        a.terms.push_back(Term::Var(NullVarName(plan.null_names, t.null_id())));
      } else {
        a.terms.push_back(t);
      }
    }
    out.body.push_back(std::move(a));
  }
  for (const Term& target : plan.head_targets) {
    if (target.is_labelled_null()) {
      if (!covered.count(target.null_id())) {
        return Status::InvalidArgument(
            "candidate does not expose a head value");
      }
      out.head.push_back(
          Term::Var(NullVarName(plan.null_names, target.null_id())));
    } else {
      out.head.push_back(target);
    }
  }
  return out;
}

Result<RewritingResult> Rewriter::Rewrite(const ConjunctiveQuery& query,
                                          const RewriterOptions& options) const {
  if (!prepared_) {
    return Status::Internal("Rewriter::Prepare() was not called");
  }
  ESTOCADA_RETURN_NOT_OK(query.Validate());

  RewritingResult result;
  RewriterStats& stats = result.stats;

  // One compiled engine per constraint set for this whole call: the
  // forward chase, the backchase, and every candidate verification reuse
  // the compiled matchers instead of re-deriving them per chase.
  chase::ChaseEngine forward_engine(forward_deps_);
  chase::ChaseEngine backward_engine(backward_deps_);

  ESTOCADA_ASSIGN_OR_RETURN(
      UniversalPlan plan,
      BuildUniversalPlan(query, options, &forward_engine, &stats));
  if (plan.view_atoms.empty()) return result;  // No views apply: empty.

  // ---- Backchase: chase the universal plan with backward constraints,
  // tracking provenance over universal-plan atom ids.
  Instance back;
  back.set_track_provenance(options.track_provenance);
  std::vector<size_t> plan_atom_ids;
  plan_atom_ids.reserve(plan.view_atoms.size());
  for (size_t i = 0; i < plan.view_atoms.size(); ++i) {
    auto ins = back.Insert(plan.view_atoms[i],
                           ProvFormula::Leaf(static_cast<uint32_t>(i)));
    plan_atom_ids.push_back(ins.id);
  }
  ESTOCADA_RETURN_NOT_OK(backward_engine.Run(&back, options.chase));
  stats.backchase_atoms = back.live_size();

  // Canonical name preference, recomputed under the backchase merges.
  std::map<uint64_t, std::string> canon_names;
  for (const auto& [nid, name] : plan.null_names) {
    Term canon = back.Canonical(Term::Null(nid));
    if (!canon.is_labelled_null()) continue;
    auto it = canon_names.find(canon.null_id());
    if (it == canon_names.end() ||
        (IsParameterVariable(name) && !IsParameterVariable(it->second))) {
      canon_names[canon.null_id()] = name;
    }
  }
  UniversalPlan canon_plan;
  canon_plan.null_names = std::move(canon_names);
  for (const Atom& a : plan.view_atoms) {
    Atom c = a;
    for (Term& t : c.terms) t = back.Canonical(t);
    canon_plan.view_atoms.push_back(std::move(c));
  }
  for (const Term& t : plan.head_targets) {
    canon_plan.head_targets.push_back(back.Canonical(t));
  }

  // ---- Find matches of the query in the backchased instance, with the
  // head pinned onto the frozen head terms.
  Substitution required;
  for (size_t i = 0; i < query.head.size(); ++i) {
    const Term& h = query.head[i];
    const Term& target = canon_plan.head_targets[i];
    if (h.is_variable()) {
      auto it = required.find(h.var_name());
      if (it != required.end() && !(it->second == target)) {
        return result;  // Inconsistent head: no rewriting.
      }
      required.emplace(h.var_name(), target);
    } else if (!(back.Canonical(h) == target)) {
      return result;
    }
  }

  ProvFormula combined;    // starts false
  ProvFormula optimistic;  // unconditioned supports; need verification
  constexpr size_t kMaxMatches = 4096;
  size_t match_count = 0;
  chase::HomomorphismMatcher query_matcher(query.body);
  query_matcher.ForEach(back, required, [&](const Match& m) {
    ++match_count;
    if (options.track_provenance) {
      ProvFormula p = ProvFormula::True();
      for (size_t id : m.atom_ids) p = p.And(back.provenance(id));
      combined = combined.Or(p);
    }
    return match_count < kMaxMatches;
  });
  stats.query_matches = match_count;

  if (options.track_provenance && options.verify_candidates) {
    // EGD merge conditioning is sound but over-conservative: a match that
    // does not actually rely on an equality (the merged position maps to a
    // don't-care variable, or the match lands on an atom's pre-merge ghost
    // form) still holds under the atoms' unconditioned base provenance.
    // Re-match against an augmented instance — every live atom under its
    // base provenance plus every pre-merge ghost form — and collect those
    // optimistic supports too. Candidates built from them go through the
    // full chase verification, which rejects any that truly needed the
    // equality; without this pass, absorption in `combined` can erase the
    // only evidence of a minimal rewriting.
    Instance aug;
    aug.set_track_provenance(true);
    for (size_t id = 0; id < back.size(); ++id) {
      if (!back.alive(id)) continue;
      aug.Insert(back.atom(id), back.base_provenance(id));
    }
    for (const Instance::GhostForm& g : back.ghost_forms()) {
      aug.Insert(g.form, g.base);
    }
    size_t aug_matches = 0;
    query_matcher.ForEach(aug, required, [&](const Match& m) {
      ++aug_matches;
      ProvFormula b = ProvFormula::True();
      for (size_t id : m.atom_ids) b = b.And(aug.provenance(id));
      optimistic = optimistic.Or(b);
      return aug_matches < kMaxMatches;
    });
  }
  if (match_count == 0 && optimistic.is_false()) return result;

  // ---- Candidate generation.
  std::vector<std::vector<uint32_t>> candidates;
  if (options.track_provenance) {
    candidates.assign(combined.disjuncts().begin(),
                      combined.disjuncts().end());
    candidates.insert(candidates.end(), optimistic.disjuncts().begin(),
                      optimistic.disjuncts().end());
  } else {
    // Ablation path: enumerate subsets of the universal plan by size.
    size_t n = canon_plan.view_atoms.size();
    size_t cap = options.naive_max_subset == 0
                     ? n
                     : std::min(options.naive_max_subset, n);
    std::vector<uint32_t> subset;
    // Iterative combination enumeration, sizes 1..cap.
    for (size_t k = 1; k <= cap; ++k) {
      std::vector<uint32_t> idx(k);
      for (size_t i = 0; i < k; ++i) idx[i] = static_cast<uint32_t>(i);
      for (;;) {
        candidates.push_back(idx);
        // Next combination.
        size_t i = k;
        while (i > 0 && idx[i - 1] == n - k + i - 1) --i;
        if (i == 0) break;
        ++idx[i - 1];
        for (size_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
      }
      if (candidates.size() > 100000) break;  // Safety valve.
    }
  }

  // Per-run verification state: the soundness direction compiles the
  // query-body matcher once for all candidates; the exactness direction
  // freezes and chases the query once (lazily) instead of once per
  // candidate — each check is then a single homomorphism test.
  chase::FixedRightContainment sound_check(query, backward_engine,
                                           options.chase);
  chase::FixedLeftContainment exact_check(query, forward_engine,
                                          options.chase);

  // Exactness fast path. q ⊑ candidate is classically tested by chasing
  // freeze(q) with the forward constraints and finding a homomorphism from
  // the candidate body into the result — but that chase is exactly
  // plan.instance, and the candidate body is canon_plan atoms with nulls
  // read as variables. Mapping each null to itself is therefore a witness
  // whenever (a) every candidate atom's canonical image is still an atom of
  // plan.instance, and (b) each canonical head target maps back onto the
  // required head image. Backchase EGD merges can break either condition
  // (a null collapsed into a term the forward instance never produced);
  // those candidates fall back to the full chase-based check below.
  const Instance& uplan = plan.instance;
  bool heads_identity = true;
  for (size_t i = 0; i < canon_plan.head_targets.size(); ++i) {
    if (!(uplan.Canonical(canon_plan.head_targets[i]) ==
          plan.head_targets[i])) {
      heads_identity = false;
      break;
    }
  }
  std::vector<char> atom_in_uplan(canon_plan.view_atoms.size(), 0);
  if (heads_identity) {
    for (size_t i = 0; i < canon_plan.view_atoms.size(); ++i) {
      atom_in_uplan[i] = uplan.Contains(canon_plan.view_atoms[i]) ? 1 : 0;
    }
  }

  // Relation-coverage pruning for the soundness direction. The soundness
  // chase of a candidate only ever adds atoms whose relations are reachable
  // from the candidate's relations through backward-TGD body→head edges
  // (any body relation may enable the head — a deliberate
  // over-approximation; EGDs merge terms but never introduce relations).
  // So a candidate whose reachable-relation set misses some q-body
  // relation has an empty match space and is unsound with no chase at all
  // — which disposes of most greedy-minimization drop probes, since
  // dropping an atom typically orphans one source relation. Disabled
  // (empty atom_cover) when q touches more than 64 distinct relations.
  std::unordered_map<std::string, uint64_t> qrel_bit;
  uint64_t qrel_mask = 0;
  for (const Atom& a : query.body) qrel_bit.emplace(a.relation, 0);
  std::vector<uint64_t> atom_cover;
  if (qrel_bit.size() <= 64) {
    uint32_t next_bit = 0;
    for (auto& [rel, bit] : qrel_bit) bit = 1ull << next_bit++;
    for (const auto& [rel, bit] : qrel_bit) qrel_mask |= bit;
    auto self_bit = [&](const std::string& rel) -> uint64_t {
      auto it = qrel_bit.find(rel);
      return it == qrel_bit.end() ? 0 : it->second;
    };
    std::vector<std::pair<const std::string*, const std::string*>> edges;
    for (const pivot::Dependency& d : *backward_deps_) {
      if (!d.is_tgd()) continue;
      for (const Atom& b : d.tgd.body) {
        for (const Atom& h : d.tgd.head) {
          edges.emplace_back(&b.relation, &h.relation);
        }
      }
    }
    std::unordered_map<std::string, uint64_t> derivable;
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& [body_rel, head_rel] : edges) {
        uint64_t add = derivable[*head_rel] | self_bit(*head_rel);
        uint64_t& mask = derivable[*body_rel];
        if ((mask | add) != mask) {
          mask |= add;
          grew = true;
        }
      }
    }
    atom_cover.reserve(canon_plan.view_atoms.size());
    for (const Atom& a : canon_plan.view_atoms) {
      auto it = derivable.find(a.relation);
      atom_cover.push_back(self_bit(a.relation) |
                           (it == derivable.end() ? 0 : it->second));
    }
  }

  // The greedy minimization loop re-probes subsets that were already
  // verified as candidates or as earlier drop probes; verification is
  // deterministic, so outcomes are memoized per (sorted) atom-id set.
  // candidates_verified counts actual chase checks, not memo hits or
  // coverage-pruned rejections.
  std::map<std::vector<uint32_t>, bool> verify_memo;
  // Soundness fast path: disjuncts of the conditioned provenance formula
  // are sound by the PACB provenance invariant — every disjunct of an
  // atom's provenance is a sufficient support for deriving the atom's
  // current canonical form, merge conditioning included, so the q-match
  // the disjunct came from reappears in the candidate's own chase (this is
  // the invariant the randomized differential suite pins against naive
  // C&B). Optimistic supports and minimization drop probes carry no such
  // guarantee and still go through the chase.
  const std::set<std::vector<uint32_t>> provenance_sound(
      combined.disjuncts().begin(), combined.disjuncts().end());

  auto covers_query = [&](const std::vector<uint32_t>& ids) {
    if (atom_cover.empty()) return true;
    uint64_t got = 0;
    for (uint32_t id : ids) got |= atom_cover[id];
    return (got & qrel_mask) == qrel_mask;
  };

  // Chase-level verification of one candidate — the thread-safe core. All
  // captured state is read-only here (canon_plan, the fast-path tables,
  // the provenance-sound set); every mutable chase scratch comes in
  // through the caller-supplied per-worker checkers.
  std::atomic<size_t> chase_checks{0};
  auto verify_chased = [&](const std::vector<uint32_t>& ids,
                           chase::FixedRightContainment& sound,
                           chase::FixedLeftContainment& exact,
                           std::vector<const Atom*>& atoms) -> Result<bool> {
    bool ok = provenance_sound.count(ids) > 0;
    if (!ok) {
      chase_checks.fetch_add(1, std::memory_order_relaxed);
      // Soundness: candidate ⊑ q under schema + backward constraints. The
      // candidate goes in as the raw plan-atom subset — its frozen form —
      // so rejected candidates (the common case during minimization
      // probes) never pay for query construction.
      atoms.clear();
      for (uint32_t id : ids) atoms.push_back(&canon_plan.view_atoms[id]);
      ESTOCADA_ASSIGN_OR_RETURN(
          ok, sound.ContainsFrozen(atoms, canon_plan.head_targets));
    }
    if (ok) {
      // Exactness: q ⊑ candidate under schema + forward constraints. Try
      // the identity-witness fast path first; only merge-mangled
      // candidates pay for query construction and a homomorphism search.
      bool identity = heads_identity;
      for (size_t k = 0; identity && k < ids.size(); ++k) {
        identity = atom_in_uplan[ids[k]] != 0;
      }
      if (!identity) {
        ESTOCADA_ASSIGN_OR_RETURN(ConjunctiveQuery cq,
                                  CandidateToQuery(query, canon_plan, ids));
        ESTOCADA_ASSIGN_OR_RETURN(ok, exact.ContainedIn(cq));
      }
    }
    return ok;
  };

  std::vector<const Atom*> cand_atoms;  // reused scratch
  auto verify = [&](const std::vector<uint32_t>& ids) -> Result<bool> {
    auto it = verify_memo.find(ids);
    if (it != verify_memo.end()) return it->second;
    if (!covers_query(ids)) {
      verify_memo.emplace(ids, false);
      return false;
    }
    ESTOCADA_ASSIGN_OR_RETURN(
        bool ok, verify_chased(ids, sound_check, exact_check, cand_atoms));
    verify_memo.emplace(ids, ok);
    return ok;
  };

  // Concurrent batch verification (see RewriterOptions::verify_pool).
  // Outcomes land in the memo keyed by id set; the accept loop below then
  // takes exactly the sequential decisions, so rewriting sets are
  // byte-identical with and without a pool. Workers never touch WaitIdle —
  // a per-batch countdown keeps a shared pool usable by other clients.
  ThreadPool* pool =
      options.track_provenance ? options.verify_pool : nullptr;
  auto verify_batch = [&](std::vector<std::vector<uint32_t>> sets) -> Status {
    std::sort(sets.begin(), sets.end());
    sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
    std::vector<std::vector<uint32_t>> need;
    for (auto& ids : sets) {
      if (verify_memo.count(ids) > 0) continue;
      if (!covers_query(ids)) {
        verify_memo.emplace(std::move(ids), false);
        continue;
      }
      need.push_back(std::move(ids));
    }
    if (pool == nullptr || need.size() < 2) {
      for (auto& ids : need) {
        ESTOCADA_ASSIGN_OR_RETURN(
            bool ok, verify_chased(ids, sound_check, exact_check, cand_atoms));
        verify_memo.emplace(std::move(ids), ok);
      }
      return Status::OK();
    }
    const size_t workers = std::min(pool->num_threads(), need.size());
    std::vector<char> outcomes(need.size(), 0);
    std::vector<Status> errors(workers, Status::OK());
    std::mutex mu;
    std::condition_variable done_cv;
    size_t pending = workers;
    for (size_t w = 0; w < workers; ++w) {
      pool->Submit([&, w] {
        chase::ChaseEngine bwd(backward_deps_);
        chase::ChaseEngine fwd(forward_deps_);
        chase::FixedRightContainment sound(query, bwd, options.chase);
        chase::FixedLeftContainment exact(query, fwd, options.chase);
        std::vector<const Atom*> scratch;
        for (size_t i = w; i < need.size(); i += workers) {
          auto r = verify_chased(need[i], sound, exact, scratch);
          if (!r.ok()) {
            errors[w] = r.status();
            break;
          }
          outcomes[i] = *r ? 1 : 0;
        }
        std::lock_guard<std::mutex> lock(mu);
        if (--pending == 0) done_cv.notify_all();
      });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      done_cv.wait(lock, [&] { return pending == 0; });
    }
    for (const Status& s : errors) ESTOCADA_RETURN_NOT_OK(s);
    for (size_t i = 0; i < need.size(); ++i) {
      verify_memo.emplace(std::move(need[i]), outcomes[i] != 0);
    }
    return Status::OK();
  };

  // ---- Convert, verify, filter; smallest-first; skip supersets of
  // accepted rewritings (minimality).
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (options.verify_candidates && pool != nullptr) {
    // Speculative top-level pass: chase-verify every exposed candidate up
    // front, concurrently, so the accept loop below is pure memo lookups.
    std::vector<std::vector<uint32_t>> batch;
    batch.reserve(candidates.size());
    for (const auto& c : candidates) {
      if (ExposesHead(canon_plan.view_atoms, canon_plan.head_targets, c)) {
        batch.push_back(c);
      }
    }
    ESTOCADA_RETURN_NOT_OK(verify_batch(std::move(batch)));
  }
  std::vector<std::vector<uint32_t>> accepted_sets;
  for (const auto& original_cand : candidates) {
    if (result.rewritings.size() >= options.max_rewritings) break;
    ++stats.candidates_considered;
    bool superset = false;
    for (const auto& acc : accepted_sets) {
      if (std::includes(original_cand.begin(), original_cand.end(),
                        acc.begin(), acc.end())) {
        superset = true;
        break;
      }
    }
    if (superset) continue;
    if (!ExposesHead(canon_plan.view_atoms, canon_plan.head_targets, original_cand)) continue;  // Not a rewriting.
    if (options.verify_candidates) {
      ESTOCADA_ASSIGN_OR_RETURN(bool sound, verify(original_cand));
      if (!sound) continue;
    }
    std::vector<uint32_t> cand = original_cand;
    if (options.verify_candidates) {
      // Classical backchase minimization: EGD merges can over-condition
      // provenance (a witness null merged away makes a candidate look
      // larger than necessary), so greedily try dropping each atom and
      // keep the candidate exactly-minimal.
      bool shrunk = true;
      while (shrunk && cand.size() > 1) {
        shrunk = false;
        if (pool != nullptr) {
          // Probe all of this round's drops concurrently; the scan below
          // then picks the first success in drop order, exactly as the
          // sequential path does.
          std::vector<std::vector<uint32_t>> probes;
          probes.reserve(cand.size());
          for (size_t drop = 0; drop < cand.size(); ++drop) {
            std::vector<uint32_t> smaller = cand;
            smaller.erase(smaller.begin() + static_cast<long>(drop));
            if (ExposesHead(canon_plan.view_atoms, canon_plan.head_targets,
                            smaller)) {
              probes.push_back(std::move(smaller));
            }
          }
          ESTOCADA_RETURN_NOT_OK(verify_batch(std::move(probes)));
        }
        for (size_t drop = 0; drop < cand.size(); ++drop) {
          std::vector<uint32_t> smaller = cand;
          smaller.erase(smaller.begin() + static_cast<long>(drop));
          if (!ExposesHead(canon_plan.view_atoms, canon_plan.head_targets, smaller)) continue;
          ESTOCADA_ASSIGN_OR_RETURN(bool still_exact, verify(smaller));
          if (still_exact) {
            cand = std::move(smaller);
            shrunk = true;
            break;
          }
        }
      }
      // The minimized set may now duplicate or subsume an accepted one.
      bool dominated = false;
      for (const auto& acc : accepted_sets) {
        if (std::includes(cand.begin(), cand.end(), acc.begin(),
                          acc.end())) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
    }
    auto cq = CandidateToQuery(query, canon_plan, cand);
    if (!cq.ok()) continue;  // Defensive: ExposesHead already vetted cand.
    Rewriting rw;
    rw.query = std::move(*cq);
    rw.feasible = IsFeasible(rw.query.body, adornments_);
    if (options.require_feasible && !rw.feasible) continue;
    accepted_sets.push_back(cand);
    result.rewritings.push_back(std::move(rw));
  }
  stats.candidates_verified = chase_checks.load(std::memory_order_relaxed);
  stats.rewritings_found = result.rewritings.size();
  return result;
}

std::string DescribeRewritingSet(const RewritingResult& result) {
  std::vector<std::pair<size_t, std::string>> lines;
  lines.reserve(result.rewritings.size());
  for (const Rewriting& rw : result.rewritings) {
    std::string line = StrCat("  ", rw.query.ToString());
    if (!rw.feasible) line += "  [infeasible]";
    lines.emplace_back(rw.query.body.size(), std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out = StrCat(result.rewritings.size(), " rewritings\n");
  for (auto& [size, line] : lines) out += line + "\n";
  return out;
}

}  // namespace estocada::pacb
