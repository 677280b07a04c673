#include "engine/value.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/hash.h"
#include "common/strings.h"

namespace estocada::engine {

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = Kind::kInt;
  v.int_ = i;
  return v;
}

Value Value::Real(double d) {
  Value v;
  v.kind_ = Kind::kReal;
  v.real_ = d;
  return v;
}

Value Value::Str(std::string s) {
  Value v;
  v.kind_ = Kind::kStr;
  v.str_ = std::move(s);
  return v;
}

Value Value::List(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kList;
  v.list_ = std::make_shared<std::vector<Value>>(std::move(items));
  return v;
}

bool Value::bool_value() const {
  assert(is_bool());
  return bool_;
}

int64_t Value::int_value() const {
  assert(is_int());
  return int_;
}

double Value::real_value() const {
  assert(is_real());
  return real_;
}

const std::string& Value::string_value() const {
  assert(is_string());
  return str_;
}

const std::vector<Value>& Value::list() const {
  assert(is_list());
  return *list_;
}

std::vector<Value>& Value::mutable_list() {
  assert(is_list());
  if (list_.use_count() > 1) {
    list_ = std::make_shared<std::vector<Value>>(*list_);
  }
  return *list_;
}

int Value::Compare(const Value& a, const Value& b) {
  if (!a.is_list() && !b.is_list()) return pivot::CompareScalars(a, b);
  if (!a.is_list() || !b.is_list()) return a.is_list() ? 1 : -1;
  const auto& x = *a.list_;
  const auto& y = *b.list_;
  for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
    int c = Compare(x[i], y[i]);
    if (c != 0) return c;
  }
  return x.size() < y.size() ? -1 : (y.size() < x.size() ? 1 : 0);
}

size_t Value::Hash() const {
  if (!is_list()) return pivot::HashScalar(*this);
  size_t seed = 0x5151;
  for (const Value& v : *list_) HashCombine(&seed, v.Hash());
  return seed;
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kReal: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", real_);
      return buf;
    }
    case Kind::kStr:
      return str_;
    case Kind::kList:
      return StrCat(
          "[",
          StrJoinMapped(*list_, ", ",
                        [](const Value& v) { return v.ToString(); }),
          "]");
  }
  return "?";
}

Value Value::FromJson(const json::JsonValue& j) {
  switch (j.kind()) {
    case json::JsonKind::kNull:
      return Null();
    case json::JsonKind::kBool:
      return Bool(j.bool_value());
    case json::JsonKind::kInt:
      return Int(j.int_value());
    case json::JsonKind::kDouble:
      return Real(j.double_value());
    case json::JsonKind::kString:
      return Str(j.string_value());
    case json::JsonKind::kArray: {
      std::vector<Value> items;
      items.reserve(j.array().size());
      for (const auto& e : j.array()) items.push_back(FromJson(e));
      return List(std::move(items));
    }
    case json::JsonKind::kObject: {
      std::vector<Value> pairs;
      for (const auto& [k, v] : j.object()) {
        pairs.push_back(List({Str(k), FromJson(v)}));
      }
      return List(std::move(pairs));
    }
  }
  return Null();
}

json::JsonValue Value::ToJson() const {
  switch (kind_) {
    case Kind::kNull:
      return json::JsonValue::Null();
    case Kind::kBool:
      return json::JsonValue::Bool(bool_);
    case Kind::kInt:
      return json::JsonValue::Int(int_);
    case Kind::kReal:
      return json::JsonValue::Double(real_);
    case Kind::kStr:
      return json::JsonValue::Str(str_);
    case Kind::kList: {
      json::JsonValue arr = json::JsonValue::MakeArray();
      for (const Value& v : *list_) arr.Append(v.ToJson());
      return arr;
    }
  }
  return json::JsonValue::Null();
}

Value Value::FromConstant(const pivot::Constant& c) {
  if (c.is_null()) return Null();
  if (c.is_bool()) return Bool(c.bool_value());
  if (c.is_int()) return Int(c.int_value());
  if (c.is_real()) return Real(c.real_value());
  return Str(c.string_value());
}

pivot::Constant Value::ToConstant() const {
  switch (kind_) {
    case Kind::kNull:
      return pivot::Constant::Null();
    case Kind::kBool:
      return pivot::Constant::Bool(bool_);
    case Kind::kInt:
      return pivot::Constant::Int(int_);
    case Kind::kReal:
      return pivot::Constant::Real(real_);
    case Kind::kStr:
      return pivot::Constant::Str(str_);
    case Kind::kList:
      // Pivot constants are scalar; nested values travel as JSON text.
      return pivot::Constant::Str(ToJson().Serialize());
  }
  return pivot::Constant::Null();
}

namespace {

/// ToString with every string, inside lists too, in double quotes (with
/// `"` and `\` escaped), so no string renders like a number, a null or a
/// list. A real renders as the shortest text that reads back as it, and
/// an integral one as the int it equals: 1 and 1.0 render alike, as they
/// compare equal, while 1 and 1.0000001 do not.
std::string QuotedString(const Value& v) {
  if (v.is_real()) {
    const double d = v.real_value();
    if (d == std::trunc(d) && std::fabs(d) < 9.2e18) {
      return std::to_string(static_cast<int64_t>(d));
    }
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), d).ptr);
  }
  if (v.is_string()) {
    std::string out = "\"";
    for (char c : v.string_value()) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
  if (v.is_list()) {
    return StrCat("[", StrJoinMapped(v.list(), ", ", QuotedString), "]");
  }
  return v.ToString();
}

}  // namespace

std::string RowToString(const Row& row) {
  return StrCat("(", StrJoinMapped(row, ", ", QuotedString), ")");
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

size_t RowHash::operator()(const Row& r) const {
  size_t seed = 0x9797;
  for (const Value& v : r) HashCombine(&seed, v.Hash());
  return seed;
}

}  // namespace estocada::engine
