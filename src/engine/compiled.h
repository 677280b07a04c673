#ifndef ESTOCADA_ENGINE_COMPILED_H_
#define ESTOCADA_ENGINE_COMPILED_H_

#include <cstdint>
#include <vector>

#include "engine/batch.h"
#include "engine/value.h"

namespace estocada::engine {

/// Compiled key kernels for the hot join loops, the engine-side analogue
/// of the chase kernel's compiled homomorphism matcher (DESIGN.md §2.6):
/// instead of materializing a `Row` key per tuple and hashing it through
/// `std::function`-shaped indirection, the join operators resolve a pair
/// of plain function pointers *once at Open* — specialized per key arity
/// via template instantiation, with a generic fallback above the
/// specialized arities — and the inner loop hashes and compares key
/// columns in place over the batch's column vectors.
struct KeyOps {
  /// Hash of the key columns `cols[0..arity)` of physical row `row`.
  uint64_t (*hash)(const RowBatch& batch, const uint32_t* cols, size_t arity,
                   uint32_t row);
  /// Equality of two keys drawn from (possibly different) batches.
  bool (*equals)(const RowBatch& a, const uint32_t* a_cols, uint32_t a_row,
                 const RowBatch& b, const uint32_t* b_cols, size_t arity,
                 uint32_t b_row);
};

/// The per-arity kernel, compiled (instantiated) once and cached in a
/// static table — repeated Opens of the same key shape pay nothing.
const KeyOps& CompiledKeyOps(size_t arity);

/// Open-addressing chained hash table mapping key hashes to build-side row
/// chains, sized once from the build cardinality. Chains preserve insertion
/// order, so each probe row meets its matches in build order and the join's
/// output order is deterministic.
/// Keys with equal hashes share a chain; the caller filters candidates with
/// the compiled equality kernel.
class FlatJoinTable {
 public:
  /// Sizes the bucket array for `n` entries (power of two, ≤70% load).
  void Reset(size_t n);

  /// Registers build row `row_index` under `hash`.
  void Insert(uint64_t hash, uint32_t row_index);

  static constexpr uint32_t kNone = 0xffffffffu;

  /// First candidate build row for `hash`, or kNone.
  uint32_t Head(uint64_t hash) const;

  /// Next candidate in the same chain, or kNone.
  uint32_t Next(uint32_t row_index) const { return next_[row_index]; }

  size_t entries() const { return entries_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };
  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;
  size_t mask_ = 0;
  size_t entries_ = 0;
};

}  // namespace estocada::engine

#endif  // ESTOCADA_ENGINE_COMPILED_H_
