#include "chase/homomorphism.h"

#include <algorithm>

namespace estocada::chase {

using pivot::Atom;
using pivot::SymbolId;
using pivot::Substitution;
using pivot::Term;

HomomorphismMatcher::HomomorphismMatcher(std::vector<Atom> pattern)
    : pattern_(std::move(pattern)) {
  for (const Atom& a : pattern_) {
    for (const Term& t : a.terms) {
      if (!t.is_variable()) continue;
      auto [it, inserted] = var_slots_.emplace(
          t.var_name(), static_cast<uint32_t>(var_names_.size()));
      if (inserted) var_names_.push_back(t.var_name());
    }
  }
}

HomomorphismMatcher::Prep HomomorphismMatcher::PrepareCall(
    const Instance& inst, const Substitution& start) {
  if (pattern_.empty()) return Prep::kEmptyPattern;
  extra_.clear();
  slots_.assign(var_names_.size(), pivot::kNoSymbol);
  // `slot_bound_[s]` tracks, *statically*, whether slot s is bound before a
  // given join level: by `start` here, then by each ordered atom below.
  slot_bound_.assign(var_names_.size(), 0);
  uint64_t mask = 0;
  for (const auto& [name, term] : start) {
    auto it = var_slots_.find(name);
    if (it == var_slots_.end()) {
      // Carried through to every match, canonicalized like the rest.
      extra_.emplace_back(name, inst.Canonical(term));
      continue;
    }
    auto vid = inst.ValueIdOf(term);
    // A pattern variable pinned to a value that occurs nowhere in the
    // instance can never be matched.
    if (!vid.has_value()) return Prep::kNoMatches;
    slots_[it->second] = *vid;
    slot_bound_[it->second] = 1;
    if (it->second < 64) mask |= uint64_t{1} << it->second;
  }
  return EnsureOrder(inst, mask, var_names_.size() <= 64);
}

HomomorphismMatcher::Prep HomomorphismMatcher::PrepareCallSlots(
    const Instance& inst,
    const std::vector<std::pair<uint32_t, pivot::SymbolId>>& bound) {
  if (pattern_.empty()) return Prep::kEmptyPattern;
  extra_.clear();
  slots_.assign(var_names_.size(), pivot::kNoSymbol);
  slot_bound_.assign(var_names_.size(), 0);
  uint64_t mask = 0;
  for (const auto& [slot, vid] : bound) {
    slots_[slot] = vid;
    slot_bound_[slot] = 1;
    if (slot < 64) mask |= uint64_t{1} << slot;
  }
  return EnsureOrder(inst, mask, var_names_.size() <= 64);
}

HomomorphismMatcher::Prep HomomorphismMatcher::EnsureOrder(
    const Instance& inst, uint64_t mask, bool cacheable) {
  // A kReady compilation survives inserts (append-only interning: the
  // resolved ids stay valid) and only dies with a recanonicalizing merge.
  // A kNoMatches result can additionally be flipped by a newly interned
  // relation or value, so it is also keyed on the table sizes.
  if (cache_valid_ && cached_inst_ == &inst && cached_mask_ == mask &&
      cached_intern_epoch_ == inst.intern_epoch() &&
      (cached_prep_ == Prep::kReady ||
       (cached_rel_count_ == inst.relation_count() &&
        cached_val_count_ == inst.value_count()))) {
    if (cached_prep_ == Prep::kReady) atom_ids_.assign(pattern_.size(), 0);
    return cached_prep_;
  }
  Prep p = CompileOrder(inst);
  cache_valid_ = cacheable;
  cached_inst_ = &inst;
  cached_intern_epoch_ = inst.intern_epoch();
  cached_rel_count_ = inst.relation_count();
  cached_val_count_ = inst.value_count();
  cached_mask_ = mask;
  cached_prep_ = p;
  return p;
}

HomomorphismMatcher::Prep HomomorphismMatcher::CompileOrder(
    const Instance& inst) {
  // Resolve each pattern atom's relation and ground values against the
  // instance's interning; an unresolvable one can never match.
  if (resolved_.size() != pattern_.size()) resolved_.resize(pattern_.size());
  for (size_t i = 0; i < pattern_.size(); ++i) {
    const Atom& a = pattern_[i];
    auto rid = inst.RelationIdOf(a.relation);
    if (!rid.has_value()) return Prep::kNoMatches;
    resolved_[i].rel_id = *rid;
    std::vector<LevelOp>& ops = resolved_[i].ops_proto;
    ops.clear();
    ops.reserve(a.terms.size());
    for (uint32_t pos = 0; pos < a.terms.size(); ++pos) {
      const Term& t = a.terms[pos];
      LevelOp op;
      op.pos = pos;
      if (t.is_variable()) {
        op.kind = LevelOp::kCheckSlot;  // Refined to bind/check below.
        op.slot = var_slots_.at(t.var_name());
        op.value = pivot::kNoSymbol;
      } else {
        auto vid = inst.ValueIdOf(t);
        if (!vid.has_value()) return Prep::kNoMatches;
        op.kind = LevelOp::kCheckValue;
        op.slot = 0;
        op.value = *vid;
      }
      ops.push_back(op);
    }
  }

  // Static fail-first join order. Because every candidate unification at a
  // level binds *all* of that atom's variables, the legacy per-level
  // dynamic pick ("unmatched atom with the most ground-or-bound terms,
  // first on ties") depends only on which atoms were matched earlier — so
  // computing it once here reproduces the legacy enumeration order
  // exactly, which keeps golden outputs byte-stable.
  if (levels_.size() != pattern_.size()) levels_.resize(pattern_.size());
  used_.assign(pattern_.size(), 0);
  for (size_t step = 0; step < pattern_.size(); ++step) {
    size_t best = pattern_.size();
    size_t best_bound = 0;
    for (size_t i = 0; i < pattern_.size(); ++i) {
      if (used_[i]) continue;
      size_t b = 0;
      for (const LevelOp& op : resolved_[i].ops_proto) {
        if (op.kind == LevelOp::kCheckValue || slot_bound_[op.slot]) ++b;
      }
      if (best == pattern_.size() || b > best_bound) {
        best = i;
        best_bound = b;
      }
    }
    used_[best] = 1;
    Level& lv = levels_[step];
    lv.ops.clear();
    lv.bind_slots.clear();
    lv.seeds.clear();
    lv.pattern_index = best;
    lv.rel_id = resolved_[best].rel_id;
    lv.arity = static_cast<uint32_t>(resolved_[best].ops_proto.size());
    for (LevelOp op : resolved_[best].ops_proto) {
      if (op.kind == LevelOp::kCheckValue) {
        lv.seeds.push_back({op.pos, /*from_slot=*/false, 0, op.value});
      } else if (slot_bound_[op.slot]) {
        // Bound by start or an earlier level (or an earlier position of
        // this very atom): compare against the slot at runtime.
        lv.seeds.push_back({op.pos, /*from_slot=*/true, op.slot,
                            pivot::kNoSymbol});
      } else {
        op.kind = LevelOp::kBindSlot;
        slot_bound_[op.slot] = 1;
        lv.bind_slots.push_back(op.slot);
      }
      lv.ops.push_back(op);
    }
    // A repeated variable's second occurrence within this atom became a
    // kCheckSlot *and* a seed — but its slot is only bound mid-unification,
    // so it must not seed the candidate scan. Drop those seeds.
    if (!lv.bind_slots.empty()) {
      lv.seeds.erase(
          std::remove_if(lv.seeds.begin(), lv.seeds.end(),
                         [&](const LevelSeed& s) {
                           return s.from_slot &&
                                  std::find(lv.bind_slots.begin(),
                                            lv.bind_slots.end(),
                                            s.slot) != lv.bind_slots.end();
                         }),
          lv.seeds.end());
    }
  }
  atom_ids_.assign(pattern_.size(), 0);
  return Prep::kReady;
}

bool HomomorphismMatcher::ExistsWithBoundSlots(
    const Instance& inst,
    const std::vector<std::pair<uint32_t, pivot::SymbolId>>& bound) {
  switch (PrepareCallSlots(inst, bound)) {
    case Prep::kEmptyPattern:
      return true;  // The trivial homomorphism.
    case Prep::kNoMatches:
      return false;
    case Prep::kReady:
      break;
  }
  // Descend returns false iff the emitter aborted, i.e. a match was found.
  return !Descend(0, inst, [] { return false; });
}

namespace internal {

namespace {

/// The legacy backtracking matcher, retained verbatim as the differential
/// oracle: at each level it re-picks the unmatched pattern atom with the
/// most bound terms and scans the full candidate list of its relation.
class ScanMatcher {
 public:
  ScanMatcher(const std::vector<Atom>& pattern, const Instance& inst,
              const std::function<bool(const Match&)>& on_match)
      : pattern_(pattern), inst_(inst), on_match_(on_match) {}

  bool Run(const Substitution& start) {
    sub_ = start;
    // Canonicalize the start bindings through the instance union-find so
    // required targets survive EGD merges.
    for (auto& [k, v] : sub_) v = inst_.Canonical(v);
    matched_.assign(pattern_.size(), false);
    atom_ids_.assign(pattern_.size(), 0);
    return Descend(0);
  }

 private:
  /// Number of terms of `a` that are ground or bound under sub_.
  size_t BoundCount(const Atom& a) const {
    size_t n = 0;
    for (const Term& t : a.terms) {
      if (!t.is_variable() || sub_.count(t.var_name())) ++n;
    }
    return n;
  }

  /// Returns false to abort the whole enumeration (callback said stop).
  bool Descend(size_t depth) {
    if (depth == pattern_.size()) {
      Match m;
      m.sub = sub_;
      m.atom_ids = atom_ids_;
      return on_match_(m);
    }
    // Fail-first: the unmatched atom with the most bound positions.
    size_t best = pattern_.size();
    size_t best_bound = 0;
    for (size_t i = 0; i < pattern_.size(); ++i) {
      if (matched_[i]) continue;
      size_t b = BoundCount(pattern_[i]);
      if (best == pattern_.size() || b > best_bound) {
        best = i;
        best_bound = b;
      }
    }
    const Atom& pat = pattern_[best];
    matched_[best] = true;

    const std::vector<size_t>& candidates = inst_.AtomsOf(pat.relation);
    for (size_t id : candidates) {
      if (!inst_.alive(id)) continue;
      const Atom& ground = inst_.atom(id);
      if (ground.terms.size() != pat.terms.size()) continue;
      // Attempt unification; record which vars we bound to undo later.
      std::vector<std::string> bound_here;
      bool ok = true;
      for (size_t i = 0; i < pat.terms.size(); ++i) {
        const Term& pt = pat.terms[i];
        const Term& gt = ground.terms[i];
        if (pt.is_variable()) {
          auto it = sub_.find(pt.var_name());
          if (it == sub_.end()) {
            sub_.emplace(pt.var_name(), gt);
            bound_here.push_back(pt.var_name());
          } else if (!(it->second == gt)) {
            ok = false;
            break;
          }
        } else {
          // Constants / labelled nulls in the pattern must match exactly
          // (after canonicalization, which Insert already applied).
          if (!(inst_.Canonical(pt) == gt)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        atom_ids_[best] = id;
        if (!Descend(depth + 1)) {
          for (const auto& v : bound_here) sub_.erase(v);
          matched_[best] = false;
          return false;
        }
      }
      for (const auto& v : bound_here) sub_.erase(v);
    }
    matched_[best] = false;
    return true;
  }

  const std::vector<Atom>& pattern_;
  const Instance& inst_;
  const std::function<bool(const Match&)>& on_match_;
  Substitution sub_;
  std::vector<bool> matched_;
  std::vector<size_t> atom_ids_;
};

}  // namespace

void ForEachHomomorphismScan(const std::vector<Atom>& pattern,
                             const Instance& inst, const Substitution& start,
                             const std::function<bool(const Match&)>& on_match) {
  if (pattern.empty()) {
    Match m;
    m.sub = start;
    on_match(m);
    return;
  }
  ScanMatcher(pattern, inst, on_match).Run(start);
}

}  // namespace internal

void ForEachHomomorphism(const std::vector<Atom>& pattern,
                         const Instance& inst, const Substitution& start,
                         const std::function<bool(const Match&)>& on_match) {
  HomomorphismMatcher matcher(pattern);
  matcher.ForEach(inst, start, on_match);
}

std::vector<Match> FindHomomorphisms(const std::vector<Atom>& pattern,
                                     const Instance& inst,
                                     const Substitution& start, size_t limit) {
  std::vector<Match> out;
  // limit == 0 is "unlimited" (the short-circuit below never stops the
  // enumeration); limit > 0 stops as soon as `limit` matches are held.
  ForEachHomomorphism(pattern, inst, start, [&](const Match& m) {
    out.push_back(m);
    return limit == 0 || out.size() < limit;
  });
  return out;
}

bool ExistsHomomorphism(const std::vector<Atom>& pattern, const Instance& inst,
                        const Substitution& start) {
  HomomorphismMatcher matcher(pattern);
  return !matcher.ForEach(inst, start, [](const Match&) { return false; });
}

std::vector<Atom> LiveAtoms(const Instance& inst) {
  std::vector<Atom> out;
  out.reserve(inst.live_size());
  for (size_t id = 0; id < inst.size(); ++id) {
    if (inst.alive(id)) out.push_back(inst.atom(id));
  }
  return out;
}

std::vector<Atom> NullsToVariables(std::vector<Atom> atoms) {
  for (Atom& a : atoms) {
    for (Term& t : a.terms) {
      if (t.is_labelled_null()) {
        t = Term::Var("_n" + std::to_string(t.null_id()));
      }
    }
  }
  return atoms;
}

bool HomomorphicallyEquivalent(const Instance& a, const Instance& b) {
  return ExistsHomomorphism(NullsToVariables(LiveAtoms(a)), b) &&
         ExistsHomomorphism(NullsToVariables(LiveAtoms(b)), a);
}

}  // namespace estocada::chase
