#ifndef ESTOCADA_PIVOT_TERM_H_
#define ESTOCADA_PIVOT_TERM_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <variant>

#include "common/hash.h"

namespace estocada::pivot {

/// A numeric scalar's value as a double. `S` has Constant's accessors.
template <typename S>
double NumberOf(const S& s) {
  return s.is_int() ? static_cast<double>(s.int_value()) : s.real_value();
}

/// The one value equality (and order) of the system, shared by the chase's
/// constants (Constant) and the engine's values (engine::Value), so PACB
/// rewrites under the equality that evaluation and every store apply.
/// Kinds rank null < bool < number < string; ints and reals compare by
/// numeric value (1 == 1.0), and null equals null, as any constant equals
/// itself in CQ equivalence. `S` has Constant's accessors.
template <typename S>
int CompareScalars(const S& a, const S& b) {
  auto cmp3 = [](auto x, auto y) { return x < y ? -1 : (y < x ? 1 : 0); };
  if (a.is_int() && b.is_int()) return cmp3(a.int_value(), b.int_value());
  auto rank = [](const S& s) {
    return s.is_null() ? 0 : s.is_bool() ? 1 : s.is_string() ? 3 : 2;
  };
  const int ra = rank(a);
  const int rb = rank(b);
  if (ra != rb) return cmp3(ra, rb);
  switch (ra) {
    case 0:
      return 0;
    case 1:
      return cmp3(a.bool_value(), b.bool_value());
    case 2:
      return cmp3(NumberOf(a), NumberOf(b));
    default:
      return cmp3(a.string_value().compare(b.string_value()), 0);
  }
}

/// A hash consistent with CompareScalars: numbers hash by value.
template <typename S>
size_t HashScalar(const S& s) {
  size_t seed = 0x5151;
  if (s.is_int() || s.is_real()) {
    HashCombine(&seed, std::hash<double>()(NumberOf(s)));
  } else if (s.is_string()) {
    HashCombine(&seed, std::hash<std::string>()(s.string_value()));
  } else if (s.is_bool()) {
    HashCombine(&seed, s.bool_value() ? 11u : 13u);
  } else {
    HashCombine(&seed, 3);
  }
  return seed;
}

/// A typed constant in the pivot model. The monostate alternative is the
/// null constant. Equality, order and hash are CompareScalars' and
/// HashScalar's.
class Constant {
 public:
  using Repr = std::variant<std::monostate, bool, int64_t, double, std::string>;

  Constant() : repr_(std::monostate{}) {}
  static Constant Null() { return Constant(); }
  static Constant Bool(bool b) { return Constant(Repr(b)); }
  static Constant Int(int64_t v) { return Constant(Repr(v)); }
  static Constant Real(double v) { return Constant(Repr(v)); }
  static Constant Str(std::string s) { return Constant(Repr(std::move(s))); }

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }
  bool is_bool() const { return std::holds_alternative<bool>(repr_); }
  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_real() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }

  bool bool_value() const { return std::get<bool>(repr_); }
  int64_t int_value() const { return std::get<int64_t>(repr_); }
  double real_value() const { return std::get<double>(repr_); }
  const std::string& string_value() const { return std::get<std::string>(repr_); }

  /// Render as pivot-syntax literal: 'abc', 42, 3.5, true, null.
  std::string ToString() const;

  friend bool operator==(const Constant& a, const Constant& b) {
    return CompareScalars(a, b) == 0;
  }
  friend bool operator<(const Constant& a, const Constant& b) {
    return CompareScalars(a, b) < 0;
  }

  size_t Hash() const { return HashScalar(*this); }

 private:
  explicit Constant(Repr repr) : repr_(std::move(repr)) {}
  Repr repr_;
};

/// A term of the pivot model: a variable (named), a constant, or a labelled
/// null (fresh value invented by a chase step; identified by a counter).
class Term {
 public:
  enum class Kind { kVariable, kConstant, kLabelledNull };

  /// Default-constructed term is the null constant (needed by containers).
  Term() : kind_(Kind::kConstant) {}

  static Term Var(std::string name) {
    Term t;
    t.kind_ = Kind::kVariable;
    t.name_ = std::move(name);
    return t;
  }
  static Term Const(Constant c) {
    Term t;
    t.kind_ = Kind::kConstant;
    t.constant_ = std::move(c);
    return t;
  }
  static Term Null(uint64_t id) {
    Term t;
    t.kind_ = Kind::kLabelledNull;
    t.null_id_ = id;
    return t;
  }
  /// Convenience constant builders.
  static Term Str(std::string s) { return Const(Constant::Str(std::move(s))); }
  static Term Int(int64_t v) { return Const(Constant::Int(v)); }

  Kind kind() const { return kind_; }
  bool is_variable() const { return kind_ == Kind::kVariable; }
  bool is_constant() const { return kind_ == Kind::kConstant; }
  bool is_labelled_null() const { return kind_ == Kind::kLabelledNull; }
  /// Ground terms may appear in instances (constants and labelled nulls).
  bool is_ground() const { return !is_variable(); }

  const std::string& var_name() const { return name_; }
  const Constant& constant() const { return constant_; }
  uint64_t null_id() const { return null_id_; }

  /// Variables print as their name, nulls as "_N<k>", constants as literals.
  std::string ToString() const;

  friend bool operator==(const Term& a, const Term& b);
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }
  friend bool operator<(const Term& a, const Term& b);

  size_t Hash() const;

 private:
  Kind kind_;
  std::string name_;      // kVariable
  Constant constant_;     // kConstant
  uint64_t null_id_ = 0;  // kLabelledNull
};

std::ostream& operator<<(std::ostream& os, const Term& t);
std::ostream& operator<<(std::ostream& os, const Constant& c);

struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

}  // namespace estocada::pivot

#endif  // ESTOCADA_PIVOT_TERM_H_
