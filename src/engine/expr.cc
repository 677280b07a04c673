#include "engine/expr.h"

#include "common/strings.h"

namespace estocada::engine {

namespace {

/// A comparison's verdict. Equality is Value's (null equals null, as it
/// does in HashJoin, Distinct and every store), so an equality filter keeps
/// the rows a hash join on the same columns keeps; an order comparison
/// with a null is false.
bool CompareKeeps(Expr::Op op, const Value& l, const Value& r) {
  const bool order = op != Expr::Op::kEq && op != Expr::Op::kNe;
  if (order && (l.is_null() || r.is_null())) return false;
  const int c = Value::Compare(l, r);
  switch (op) {
    case Expr::Op::kEq: return c == 0;
    case Expr::Op::kNe: return c != 0;
    case Expr::Op::kLt: return c < 0;
    case Expr::Op::kLe: return c <= 0;
    case Expr::Op::kGt: return c > 0;
    default: return c >= 0;
  }
}

}  // namespace

std::shared_ptr<Expr> Expr::Column(size_t index) {
  auto e = std::make_shared<Expr>();
  e->op_ = Op::kColumn;
  e->column_ = index;
  return e;
}

std::shared_ptr<Expr> Expr::Const(Value v) {
  auto e = std::make_shared<Expr>();
  e->op_ = Op::kConst;
  e->value_ = std::move(v);
  return e;
}

std::shared_ptr<Expr> Expr::Binary(Op op, std::shared_ptr<Expr> l,
                                   std::shared_ptr<Expr> r) {
  auto e = std::make_shared<Expr>();
  e->op_ = op;
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

std::shared_ptr<Expr> Expr::Not(std::shared_ptr<Expr> inner) {
  auto e = std::make_shared<Expr>();
  e->op_ = Op::kNot;
  e->left_ = std::move(inner);
  return e;
}

Result<Value> Expr::Eval(const Row& row) const {
  switch (op_) {
    case Op::kColumn:
      if (column_ >= row.size()) {
        return Status::OutOfRange(
            StrCat("column ", column_, " out of range (row has ", row.size(),
                   ")"));
      }
      return row[column_];
    case Op::kConst:
      return value_;
    case Op::kNot: {
      ESTOCADA_ASSIGN_OR_RETURN(bool b, left_->EvalBool(row));
      return Value::Bool(!b);
    }
    default:
      break;
  }
  ESTOCADA_ASSIGN_OR_RETURN(Value l, left_->Eval(row));
  ESTOCADA_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
  switch (op_) {
    case Op::kAnd:
    case Op::kOr: {
      bool lb = l.is_bool() ? l.bool_value() : !l.is_null();
      bool rb = r.is_bool() ? r.bool_value() : !r.is_null();
      return Value::Bool(op_ == Op::kAnd ? (lb && rb) : (lb || rb));
    }
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      return Value::Bool(CompareKeeps(op_, l, r));
    }
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv: {
      if (l.is_null() || r.is_null()) return Value::Null();
      if (op_ == Op::kAdd && l.is_string() && r.is_string()) {
        return Value::Str(l.string_value() + r.string_value());
      }
      if (!(l.is_int() || l.is_real()) || !(r.is_int() || r.is_real())) {
        return Status::InvalidArgument(
            StrCat("arithmetic on non-numeric values: ", l.ToString(), ", ",
                   r.ToString()));
      }
      if (l.is_int() && r.is_int() && op_ != Op::kDiv) {
        int64_t a = l.int_value();
        int64_t b = r.int_value();
        switch (op_) {
          case Op::kAdd:
            return Value::Int(a + b);
          case Op::kSub:
            return Value::Int(a - b);
          default:
            return Value::Int(a * b);
        }
      }
      double a = pivot::NumberOf(l);
      double b = pivot::NumberOf(r);
      switch (op_) {
        case Op::kAdd:
          return Value::Real(a + b);
        case Op::kSub:
          return Value::Real(a - b);
        case Op::kMul:
          return Value::Real(a * b);
        default:
          if (b == 0) {
            return Status::InvalidArgument("division by zero");
          }
          return Value::Real(a / b);
      }
    }
    default:
      return Status::Internal("unhandled expression operator");
  }
}

Result<bool> Expr::EvalBool(const Row& row) const {
  ESTOCADA_ASSIGN_OR_RETURN(Value v, Eval(row));
  if (v.is_null()) return false;
  if (v.is_bool()) return v.bool_value();
  return true;  // Non-null non-bool is truthy.
}

namespace {

/// Materializes physical row `p` of `batch` into `scratch` (reused across
/// the fallback loop so the allocation amortizes).
void GatherRow(const RowBatch& batch, uint32_t p, Row* scratch) {
  scratch->clear();
  for (size_t c = 0; c < batch.arity(); ++c) {
    scratch->push_back(batch.column(c)[p]);
  }
}

}  // namespace

Status Expr::FilterBatch(const RowBatch& batch,
                         std::vector<uint32_t>* sel) const {
  if (sel->empty()) return Status::OK();
  switch (op_) {
    case Op::kAnd: {
      ESTOCADA_RETURN_NOT_OK(left_->FilterBatch(batch, sel));
      return right_->FilterBatch(batch, sel);
    }
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      const bool l_col = left_->op_ == Op::kColumn;
      const bool r_col = right_->op_ == Op::kColumn;
      const bool l_const = left_->op_ == Op::kConst;
      const bool r_const = right_->op_ == Op::kConst;
      if ((l_col || l_const) && (r_col || r_const)) {
        if ((l_col && left_->column_ >= batch.arity()) ||
            (r_col && right_->column_ >= batch.arity())) {
          return Status::OutOfRange(
              StrCat("column out of range in predicate ", ToString()));
        }
        const std::vector<Value>* lc =
            l_col ? &batch.column(left_->column_) : nullptr;
        const std::vector<Value>* rc =
            r_col ? &batch.column(right_->column_) : nullptr;
        size_t kept = 0;
        for (uint32_t p : *sel) {
          const Value& l = lc ? (*lc)[p] : left_->value_;
          const Value& r = rc ? (*rc)[p] : right_->value_;
          if (CompareKeeps(op_, l, r)) (*sel)[kept++] = p;
        }
        sel->resize(kept);
        return Status::OK();
      }
      break;
    }
    default:
      break;
  }
  // Fallback: gather each selected row and evaluate it with EvalBool.
  Row scratch;
  scratch.reserve(batch.arity());
  size_t kept = 0;
  for (uint32_t p : *sel) {
    GatherRow(batch, p, &scratch);
    ESTOCADA_ASSIGN_OR_RETURN(bool keep, EvalBool(scratch));
    if (keep) (*sel)[kept++] = p;
  }
  sel->resize(kept);
  return Status::OK();
}

Status Expr::EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                       std::vector<Value>* out) const {
  out->clear();
  out->reserve(sel.size());
  switch (op_) {
    case Op::kColumn: {
      if (column_ >= batch.arity()) {
        return Status::OutOfRange(StrCat("column ", column_,
                                         " out of range (batch has ",
                                         batch.arity(), ")"));
      }
      const std::vector<Value>& col = batch.column(column_);
      for (uint32_t p : sel) out->push_back(col[p]);
      return Status::OK();
    }
    case Op::kConst: {
      for (size_t i = 0; i < sel.size(); ++i) out->push_back(value_);
      return Status::OK();
    }
    default:
      break;
  }
  Row scratch;
  scratch.reserve(batch.arity());
  for (uint32_t p : sel) {
    GatherRow(batch, p, &scratch);
    ESTOCADA_ASSIGN_OR_RETURN(Value v, Eval(scratch));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

std::string Expr::ToString() const {
  switch (op_) {
    case Op::kColumn:
      return StrCat("$", column_);
    case Op::kConst:
      return value_.ToString();
    case Op::kNot:
      return StrCat("NOT(", left_->ToString(), ")");
    default:
      break;
  }
  const char* sym = "?";
  switch (op_) {
    case Op::kEq: sym = "="; break;
    case Op::kNe: sym = "!="; break;
    case Op::kLt: sym = "<"; break;
    case Op::kLe: sym = "<="; break;
    case Op::kGt: sym = ">"; break;
    case Op::kGe: sym = ">="; break;
    case Op::kAnd: sym = "AND"; break;
    case Op::kOr: sym = "OR"; break;
    case Op::kAdd: sym = "+"; break;
    case Op::kSub: sym = "-"; break;
    case Op::kMul: sym = "*"; break;
    case Op::kDiv: sym = "/"; break;
    default: break;
  }
  return StrCat("(", left_->ToString(), " ", sym, " ", right_->ToString(),
                ")");
}

}  // namespace estocada::engine
