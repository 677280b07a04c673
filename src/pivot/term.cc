#include "pivot/term.h"

#include <cstdio>

#include "common/strings.h"

namespace estocada::pivot {

std::string Constant::ToString() const {
  if (is_null()) return "null";
  if (is_bool()) return bool_value() ? "true" : "false";
  if (is_int()) return std::to_string(int_value());
  if (is_real()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", real_value());
    return buf;
  }
  // Escape quotes/backslashes so the literal re-parses exactly (view
  // definitions round-trip through their text form, e.g. in catalog
  // checkpoints).
  std::string out = "'";
  for (char c : string_value()) {
    if (c == '\'' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('\'');
  return out;
}

std::string Term::ToString() const {
  switch (kind_) {
    case Kind::kVariable:
      return name_;
    case Kind::kConstant:
      return constant_.ToString();
    case Kind::kLabelledNull:
      return StrCat("_N", null_id_);
  }
  return "?";
}

bool operator==(const Term& a, const Term& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Term::Kind::kVariable:
      return a.name_ == b.name_;
    case Term::Kind::kConstant:
      return a.constant_ == b.constant_;
    case Term::Kind::kLabelledNull:
      return a.null_id_ == b.null_id_;
  }
  return false;
}

bool operator<(const Term& a, const Term& b) {
  if (a.kind_ != b.kind_) {
    return static_cast<int>(a.kind_) < static_cast<int>(b.kind_);
  }
  switch (a.kind_) {
    case Term::Kind::kVariable:
      return a.name_ < b.name_;
    case Term::Kind::kConstant:
      return a.constant_ < b.constant_;
    case Term::Kind::kLabelledNull:
      return a.null_id_ < b.null_id_;
  }
  return false;
}

size_t Term::Hash() const {
  size_t seed = static_cast<size_t>(kind_) + 17;
  switch (kind_) {
    case Kind::kVariable:
      HashCombine(&seed, std::hash<std::string>()(name_));
      break;
    case Kind::kConstant:
      HashCombine(&seed, constant_.Hash());
      break;
    case Kind::kLabelledNull:
      HashCombine(&seed, std::hash<uint64_t>()(null_id_));
      break;
  }
  return seed;
}

std::ostream& operator<<(std::ostream& os, const Term& t) {
  return os << t.ToString();
}

std::ostream& operator<<(std::ostream& os, const Constant& c) {
  return os << c.ToString();
}

}  // namespace estocada::pivot
