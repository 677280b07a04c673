#include "engine/compiled.h"

namespace estocada::engine {

namespace {

inline uint64_t MixHash(uint64_t seed, uint64_t h) {
  // boost::hash_combine-style mixing, the same shape as RowHash (the
  // values differ; only the compiled kernels consume these hashes).
  return seed ^ (h + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

/// Arity-templated kernel: the loop unrolls at compile time for the small
/// arities every translator-produced join uses (1 and 2 cover the
/// marketplace and generated workloads; 3 and 4 exist for headroom).
/// A = 0 is the generic kernel, which loops over the runtime arity.
template <size_t A>
struct KeyOpsFor {
  static uint64_t Hash(const RowBatch& batch, const uint32_t* cols,
                       size_t arity, uint32_t row) {
    uint64_t h = 0;
    for (size_t k = 0; k < (A == 0 ? arity : A); ++k) {
      h = MixHash(h, batch.column(cols[k])[row].Hash());
    }
    return h;
  }
  static bool Equals(const RowBatch& a, const uint32_t* a_cols, uint32_t a_row,
                     const RowBatch& b, const uint32_t* b_cols, size_t arity,
                     uint32_t b_row) {
    for (size_t k = 0; k < (A == 0 ? arity : A); ++k) {
      if (Value::Compare(a.column(a_cols[k])[a_row],
                         b.column(b_cols[k])[b_row]) != 0) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

const KeyOps& CompiledKeyOps(size_t arity) {
  static const KeyOps kTable[] = {
      {&KeyOpsFor<0>::Hash, &KeyOpsFor<0>::Equals},  // arity 0 (degenerate)
      {&KeyOpsFor<1>::Hash, &KeyOpsFor<1>::Equals},
      {&KeyOpsFor<2>::Hash, &KeyOpsFor<2>::Equals},
      {&KeyOpsFor<3>::Hash, &KeyOpsFor<3>::Equals},
      {&KeyOpsFor<4>::Hash, &KeyOpsFor<4>::Equals},
  };
  return arity < sizeof(kTable) / sizeof(kTable[0]) ? kTable[arity]
                                                     : kTable[0];
}

void FlatJoinTable::Reset(size_t n) {
  size_t buckets = 16;
  while (buckets * 7 < n * 10) buckets <<= 1;  // keep load factor ≤ 0.7
  slots_.assign(buckets, Slot{});
  next_.clear();
  mask_ = buckets - 1;
  entries_ = 0;
}

void FlatJoinTable::Insert(uint64_t hash, uint32_t row_index) {
  if (next_.size() <= row_index) next_.resize(row_index + 1, kNone);
  next_[row_index] = kNone;
  size_t i = static_cast<size_t>(hash) & mask_;
  for (;;) {
    Slot& s = slots_[i];
    if (s.head == kNone) {
      s.hash = hash;
      s.head = s.tail = row_index;
      ++entries_;
      return;
    }
    if (s.hash == hash) {
      next_[s.tail] = row_index;
      s.tail = row_index;
      ++entries_;
      return;
    }
    i = (i + 1) & mask_;
  }
}

uint32_t FlatJoinTable::Head(uint64_t hash) const {
  if (slots_.empty()) return kNone;
  size_t i = static_cast<size_t>(hash) & mask_;
  for (;;) {
    const Slot& s = slots_[i];
    if (s.head == kNone) return kNone;
    if (s.hash == hash) return s.head;
    i = (i + 1) & mask_;
  }
}

}  // namespace estocada::engine
