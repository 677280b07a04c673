#ifndef ESTOCADA_CHASE_HOMOMORPHISM_H_
#define ESTOCADA_CHASE_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chase/instance.h"
#include "pivot/query.h"
#include "pivot/symbol_table.h"

namespace estocada::chase {

/// A homomorphism match: the substitution plus the instance atom ids the
/// pattern atoms were mapped to (`atom_ids[i]` is the instance atom that
/// `pattern[i]` mapped onto, in original pattern order).
struct Match {
  pivot::Substitution sub;
  std::vector<size_t> atom_ids;  ///< One instance atom id per pattern atom.
};

/// Backtracking homomorphism matcher over the interned instance
/// representation. The pattern is compiled once at construction: variables
/// become dense slots (first-occurrence order), so a partial substitution
/// is a flat `std::vector<SymbolId>` instead of a string-keyed map. Per
/// enumeration the matcher
///  * computes a static fail-first join order (the unmatched atom with the
///    most ground-or-bound positions, earliest pattern index on ties —
///    exactly the pick the legacy dynamic matcher made, so enumeration
///    order is bit-for-bit preserved),
///  * seeds each level's candidates from the instance's most selective
///    (relation, position, value) index bucket instead of scanning all
///    atoms of the relation,
///  * unifies on interned value ids only; `pivot::Term`s are materialized
///    once per emitted match.
/// Scratch buffers are reused across ForEach calls; a matcher instance is
/// not thread-safe, but may be reused across different instances.
class HomomorphismMatcher {
 public:
  explicit HomomorphismMatcher(std::vector<pivot::Atom> pattern);

  /// Enumerates homomorphisms of the pattern into `inst` extending
  /// `start`, invoking `visit(const Match&)` per match. The visitor
  /// returns false to stop the enumeration early; ForEach then returns
  /// false (true when the enumeration ran to completion). All scratch
  /// state is reset on entry, so a matcher is reusable after an early
  /// stop.
  template <class Visitor>
  bool ForEach(const Instance& inst, const pivot::Substitution& start,
               Visitor&& visit) {
    switch (PrepareCall(inst, start)) {
      case Prep::kEmptyPattern: {
        // An empty pattern has exactly one (trivial) homomorphism.
        Match m;
        m.sub = start;
        return visit(static_cast<const Match&>(m));
      }
      case Prep::kNoMatches:
        return true;
      case Prep::kReady:
        break;
    }
    return Descend(0, inst, [&] { return EmitMatch(inst, visit); });
  }

  /// Slot-level enumeration (the chase's hot path): invokes
  /// `visit(slots, atom_ids)` per match, where `slots[s]` is the interned
  /// canonical value id bound to slot `s` (see SlotOf) and `atom_ids` are
  /// in original pattern order. No `pivot::Term`s or substitution maps are
  /// materialized. The spans are scratch storage — copy what outlives the
  /// callback. Same early-stop contract as ForEach.
  template <class Visitor>
  bool ForEachBinding(const Instance& inst, Visitor&& visit) {
    static const pivot::Substitution kNoStart;
    switch (PrepareCall(inst, kNoStart)) {
      case Prep::kEmptyPattern:
        slots_.clear();
        atom_ids_.clear();
        return visit(static_cast<const std::vector<pivot::SymbolId>&>(slots_),
                     static_cast<const std::vector<size_t>&>(atom_ids_));
      case Prep::kNoMatches:
        return true;
      case Prep::kReady:
        break;
    }
    return Descend(0, inst, [&] {
      return visit(static_cast<const std::vector<pivot::SymbolId>&>(slots_),
                   static_cast<const std::vector<size_t>&>(atom_ids_));
    });
  }

  /// Satisfaction probe with pre-bound slots: `bound` holds
  /// (slot, canonical value id) pairs, typically frontier bindings read
  /// straight out of another matcher's slots. True iff a homomorphism
  /// extending those bindings exists. Avoids building a Substitution (and
  /// re-canonicalizing terms) per probe — the TGD head-satisfaction check
  /// runs once per trigger.
  bool ExistsWithBoundSlots(
      const Instance& inst,
      const std::vector<std::pair<uint32_t, pivot::SymbolId>>& bound);

  /// Slot of a pattern variable (dense, first-occurrence order), if it
  /// occurs in the pattern.
  std::optional<uint32_t> SlotOf(const std::string& var) const {
    auto it = var_slots_.find(var);
    if (it == var_slots_.end()) return std::nullopt;
    return it->second;
  }

  /// Slot -> variable name (first-occurrence order).
  const std::vector<std::string>& var_names() const { return var_names_; }

  const std::vector<pivot::Atom>& pattern() const { return pattern_; }

 private:
  enum class Prep { kEmptyPattern, kNoMatches, kReady };

  /// One unification step at a level, in term-position order.
  struct LevelOp {
    enum Kind : uint8_t { kCheckValue, kCheckSlot, kBindSlot };
    Kind kind;
    uint32_t pos;
    uint32_t slot;           ///< kCheckSlot / kBindSlot.
    pivot::SymbolId value;   ///< kCheckValue (resolved per call).
  };
  /// A position whose value is known before scanning candidates: either a
  /// ground pattern term (value resolved per call) or a variable slot
  /// bound by `start` or an earlier level. Used to pick the most selective
  /// index bucket.
  struct LevelSeed {
    uint32_t pos;
    bool from_slot;
    uint32_t slot;
    pivot::SymbolId value;
  };
  struct Level {
    size_t pattern_index;
    pivot::SymbolId rel_id;
    uint32_t arity;
    std::vector<LevelOp> ops;
    std::vector<uint32_t> bind_slots;  ///< Slots bound here, op order.
    std::vector<LevelSeed> seeds;
  };

  /// Binds the pattern against `inst` + `start`: fills slots_/extra_, then
  /// delegates to CompileOrder.
  Prep PrepareCall(const Instance& inst, const pivot::Substitution& start);

  /// Like PrepareCall, but the bindings arrive as (slot, value id) pairs —
  /// no Substitution, no canonicalization, no table lookups.
  Prep PrepareCallSlots(
      const Instance& inst,
      const std::vector<std::pair<uint32_t, pivot::SymbolId>>& bound);

  /// Shared tail: returns the cached compiled call when `inst` (same
  /// address, same mutation epoch) and the bound-slot set match the
  /// previous call; otherwise delegates to CompileOrder and refreshes the
  /// cache. `mask` is the bound-slot bitmask (cacheable only for patterns
  /// with <= 64 variables).
  Prep EnsureOrder(const Instance& inst, uint64_t mask, bool cacheable);

  /// Resolves relation and ground-value ids against `inst`, computes the
  /// static join order and per-level op lists. Reads slots_/slot_bound_;
  /// all scratch is member storage reused across calls.
  Prep CompileOrder(const Instance& inst);

  template <class Emitter>
  bool Descend(size_t depth, const Instance& inst, Emitter&& emit) {
    if (depth == levels_.size()) return emit();
    const Level& lv = levels_[depth];
    // Seed from the most selective bound position; fall back to the full
    // per-relation list when nothing is bound at this level.
    const std::vector<size_t>* cands = &inst.AtomsOfRel(lv.rel_id);
    for (const LevelSeed& s : lv.seeds) {
      pivot::SymbolId v = s.from_slot ? slots_[s.slot] : s.value;
      const std::vector<size_t>& bucket = inst.CandidatesAt(lv.rel_id, s.pos, v);
      if (bucket.size() < cands->size()) cands = &bucket;
    }
    for (size_t id : *cands) {
      if (!inst.alive(id)) continue;
      const std::vector<pivot::SymbolId>& row = inst.Row(id);
      if (row.size() != lv.arity) continue;
      size_t binds_applied = 0;
      bool ok = true;
      for (const LevelOp& op : lv.ops) {
        pivot::SymbolId rv = row[op.pos];
        if (op.kind == LevelOp::kCheckValue) {
          if (rv != op.value) {
            ok = false;
            break;
          }
        } else if (op.kind == LevelOp::kCheckSlot) {
          if (rv != slots_[op.slot]) {
            ok = false;
            break;
          }
        } else {
          slots_[op.slot] = rv;
          ++binds_applied;
        }
      }
      if (ok) {
        atom_ids_[lv.pattern_index] = id;
        if (!Descend(depth + 1, inst, emit)) {
          for (size_t i = 0; i < binds_applied; ++i) {
            slots_[lv.bind_slots[i]] = pivot::kNoSymbol;
          }
          return false;
        }
      }
      for (size_t i = 0; i < binds_applied; ++i) {
        slots_[lv.bind_slots[i]] = pivot::kNoSymbol;
      }
    }
    return true;
  }

  template <class Visitor>
  bool EmitMatch(const Instance& inst, Visitor& visit) {
    Match m;
    m.atom_ids = atom_ids_;
    m.sub.reserve(var_names_.size() + extra_.size());
    for (uint32_t s = 0; s < var_names_.size(); ++s) {
      m.sub.emplace(var_names_[s], inst.ValueTerm(slots_[s]));
    }
    for (const auto& [name, term] : extra_) m.sub.emplace(name, term);
    return visit(static_cast<const Match&>(m));
  }

  // Compiled once at construction.
  std::vector<pivot::Atom> pattern_;
  std::vector<std::string> var_names_;  ///< Slot -> name, first-occurrence.
  std::unordered_map<std::string, uint32_t> var_slots_;

  // Per-call plan + scratch (reused across calls; inner vectors keep their
  // capacity, so a prepared call allocates nothing in steady state).
  struct ResolvedAtom {
    pivot::SymbolId rel_id;
    std::vector<LevelOp> ops_proto;  ///< kind/pos/value; slots fixed later.
  };
  std::vector<Level> levels_;
  std::vector<ResolvedAtom> resolved_;
  std::vector<char> slot_bound_;
  std::vector<char> used_;
  std::vector<pivot::SymbolId> slots_;  ///< Slot -> value id (kNoSymbol = unbound).
  std::vector<std::pair<std::string, pivot::Term>> extra_;
  std::vector<size_t> atom_ids_;

  // Compiled-call cache (see EnsureOrder). The chase probes the same
  // pattern against the same instance many times between mutations; the
  // resolution + join order only depends on (instance state, bound-slot
  // set), so those probes skip CompileOrder entirely.
  const Instance* cached_inst_ = nullptr;
  uint64_t cached_intern_epoch_ = 0;
  size_t cached_rel_count_ = 0;
  size_t cached_val_count_ = 0;
  uint64_t cached_mask_ = 0;
  bool cache_valid_ = false;
  Prep cached_prep_ = Prep::kReady;
};

/// Enumerates homomorphisms of `pattern` (atoms with variables; constants
/// and labelled nulls must match exactly) into `inst`, extending the
/// partial substitution `start`. Invokes `on_match` per match; stop early
/// by returning false from the callback. Convenience wrapper that compiles
/// the pattern per call — hot paths hold a HomomorphismMatcher instead.
void ForEachHomomorphism(const std::vector<pivot::Atom>& pattern,
                         const Instance& inst,
                         const pivot::Substitution& start,
                         const std::function<bool(const Match&)>& on_match);

/// Convenience: collects matches into a vector.
///
/// `limit` contract: `limit == 0` means **unlimited** — every homomorphism
/// is enumerated and returned. For `limit > 0` the enumeration stops as
/// soon as `limit` matches have been collected (the matcher unwinds
/// immediately; no further candidates are unified), and exactly
/// `min(limit, total)` matches are returned.
std::vector<Match> FindHomomorphisms(const std::vector<pivot::Atom>& pattern,
                                     const Instance& inst,
                                     const pivot::Substitution& start = {},
                                     size_t limit = 0);

/// True iff at least one homomorphism exists.
bool ExistsHomomorphism(const std::vector<pivot::Atom>& pattern,
                        const Instance& inst,
                        const pivot::Substitution& start = {});

/// The live atoms of `inst` in stable id order (collapsed duplicates
/// skipped) — the pattern-extraction step of instance-level checks.
std::vector<pivot::Atom> LiveAtoms(const Instance& inst);

/// Replaces every labelled null _N<k> with a variable "_n<k>", turning
/// ground instance atoms into a homomorphism pattern: nulls may map to
/// anything, constants must match exactly.
std::vector<pivot::Atom> NullsToVariables(std::vector<pivot::Atom> atoms);

/// True iff `a` and `b` map homomorphically into each other with nulls
/// treated as variables — equivalence of chase results up to null renaming
/// (what chase termination guarantees under dependency reordering).
bool HomomorphicallyEquivalent(const Instance& a, const Instance& b);

namespace internal {

/// The pre-interning matcher: string-keyed substitutions, per-level
/// fail-first rescans, full per-relation candidate scans. Kept verbatim as
/// the differential-testing oracle for the indexed matcher (the fuzz suite
/// asserts both enumerate identical match sequences).
void ForEachHomomorphismScan(const std::vector<pivot::Atom>& pattern,
                             const Instance& inst,
                             const pivot::Substitution& start,
                             const std::function<bool(const Match&)>& on_match);

}  // namespace internal

}  // namespace estocada::chase

#endif  // ESTOCADA_CHASE_HOMOMORPHISM_H_
