#ifndef ESTOCADA_ENGINE_VALUE_H_
#define ESTOCADA_ENGINE_VALUE_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "json/json.h"
#include "pivot/term.h"

namespace estocada::engine {

/// Runtime value of the ESTOCADA execution engine's *nested relational*
/// model: atomic types (null/bool/int/real/string) plus ordered lists,
/// which represent both nested collections and nested tuples. Document
/// nodes travel as their JSON serialization or as node-id strings.
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kReal, kStr, kList };

  /// Default is null.
  Value() : kind_(Kind::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t v);
  static Value Real(double v);
  static Value Str(std::string s);
  static Value List(std::vector<Value> items);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_real() const { return kind_ == Kind::kReal; }
  bool is_string() const { return kind_ == Kind::kStr; }
  bool is_list() const { return kind_ == Kind::kList; }

  bool bool_value() const;
  int64_t int_value() const;
  double real_value() const;
  const std::string& string_value() const;
  const std::vector<Value>& list() const;
  std::vector<Value>& mutable_list();

  /// Total order: scalars by pivot::CompareScalars (null == null, 1 == 1.0,
  /// unlike JSON), then lists, which compare element-wise after every
  /// scalar. Every matcher in the system — staging evaluation, the engine
  /// operators and the stores — uses this one equality.
  static int Compare(const Value& a, const Value& b);

  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    return Compare(a, b) < 0;
  }

  size_t Hash() const;

  /// Display form: strings unquoted only inside ToString of scalars; lists
  /// as [a, b, c].
  std::string ToString() const;

  /// Conversions to/from the JSON model (JSON objects become key-sorted
  /// [[key, value], ...] pair lists) and the pivot constant model (lists
  /// serialize to JSON text; pivot has no collection constants).
  static Value FromJson(const json::JsonValue& j);
  json::JsonValue ToJson() const;
  static Value FromConstant(const pivot::Constant& c);
  pivot::Constant ToConstant() const;

 private:
  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double real_ = 0;
  std::string str_;
  std::shared_ptr<std::vector<Value>> list_;
};

/// One tuple of the nested relational engine.
using Row = std::vector<Value>;

/// Display and comparison key of a row: (v1, v2, ...), strings quoted
/// (also inside lists), so two rows render alike iff their values do.
std::string RowToString(const Row& row);
std::ostream& operator<<(std::ostream& os, const Value& v);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

struct RowHash {
  size_t operator()(const Row& r) const;
};

}  // namespace estocada::engine

#endif  // ESTOCADA_ENGINE_VALUE_H_
