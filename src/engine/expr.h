#ifndef ESTOCADA_ENGINE_EXPR_H_
#define ESTOCADA_ENGINE_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/batch.h"
#include "engine/value.h"

namespace estocada::engine {

/// Scalar expression over a row: column references (by position), literal
/// constants, comparisons, boolean connectives and basic arithmetic.
/// Evaluated against `Row`s by the Filter/Project/Aggregate operators.
class Expr {
 public:
  enum class Op {
    kColumn,   ///< row[index]
    kConst,    ///< literal
    kEq, kNe, kLt, kLe, kGt, kGe,
    kAnd, kOr, kNot,
    kAdd, kSub, kMul, kDiv,
  };

  static std::shared_ptr<Expr> Column(size_t index);
  static std::shared_ptr<Expr> Const(Value v);
  static std::shared_ptr<Expr> Binary(Op op, std::shared_ptr<Expr> l,
                                      std::shared_ptr<Expr> r);
  static std::shared_ptr<Expr> Not(std::shared_ptr<Expr> e);

  /// Evaluates against `row`. Equality is Value's (null equals null, 1
  /// equals 1.0); an order comparison with a null yields false, and
  /// arithmetic on null yields null. Type errors are reported.
  Result<Value> Eval(const Row& row) const;

  /// Evaluates and coerces to bool (null/absent → false).
  Result<bool> EvalBool(const Row& row) const;

  /// Vectorized predicate: narrows `sel` (ascending physical row indices
  /// into `batch`) to the rows where this expression is truthy. The common
  /// translator shapes — comparisons between columns and constants, and
  /// conjunctions of them — run as tight loops over the column vectors;
  /// anything else falls back to per-row Eval with identical semantics.
  Status FilterBatch(const RowBatch& batch, std::vector<uint32_t>* sel) const;

  /// Vectorized evaluation: one output value per index in `sel`. Column
  /// references copy straight out of the batch column; constants
  /// broadcast; compound expressions fall back to per-row Eval.
  Status EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                   std::vector<Value>* out) const;

  Op op() const { return op_; }
  size_t column_index() const { return column_; }

  std::string ToString() const;

 private:
  Op op_ = Op::kConst;
  size_t column_ = 0;
  Value value_;
  std::shared_ptr<Expr> left_;
  std::shared_ptr<Expr> right_;
};

using ExprPtr = std::shared_ptr<Expr>;

}  // namespace estocada::engine

#endif  // ESTOCADA_ENGINE_EXPR_H_
