#include "json/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/strings.h"

namespace estocada::json {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = JsonKind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Int(int64_t i) {
  JsonValue v;
  v.kind_ = JsonKind::kInt;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::Double(double d) {
  JsonValue v;
  v.kind_ = JsonKind::kDouble;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = JsonKind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray(Array items) {
  JsonValue v;
  v.kind_ = JsonKind::kArray;
  v.array_ = std::make_shared<Array>(std::move(items));
  return v;
}

JsonValue JsonValue::MakeObject(Object members) {
  JsonValue v;
  v.kind_ = JsonKind::kObject;
  v.object_ = std::make_shared<Object>(std::move(members));
  return v;
}

bool JsonValue::bool_value() const {
  assert(is_bool());
  return bool_;
}

int64_t JsonValue::int_value() const {
  assert(is_int());
  return int_;
}

double JsonValue::double_value() const {
  assert(is_double());
  return double_;
}

double JsonValue::as_double() const {
  assert(is_number());
  return is_int() ? static_cast<double>(int_) : double_;
}

const std::string& JsonValue::string_value() const {
  assert(is_string());
  return string_;
}

const JsonValue::Array& JsonValue::array() const {
  assert(is_array());
  return *array_;
}

JsonValue::Array& JsonValue::mutable_array() {
  assert(is_array());
  // Copy-on-write: never mutate a node shared with another value.
  if (array_.use_count() > 1) array_ = std::make_shared<Array>(*array_);
  return *array_;
}

const JsonValue::Object& JsonValue::object() const {
  assert(is_object());
  return *object_;
}

JsonValue::Object& JsonValue::mutable_object() {
  assert(is_object());
  if (object_.use_count() > 1) object_ = std::make_shared<Object>(*object_);
  return *object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  auto it = object_->find(std::string(key));
  return it == object_->end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::FindPath(std::string_view dotted_path) const {
  const JsonValue* cur = this;
  size_t start = 0;
  while (start <= dotted_path.size()) {
    size_t dot = dotted_path.find('.', start);
    std::string_view step = dotted_path.substr(
        start, dot == std::string_view::npos ? std::string_view::npos
                                             : dot - start);
    if (step.empty()) return nullptr;
    if (cur->is_object()) {
      cur = cur->Find(step);
    } else if (cur->is_array()) {
      size_t idx = 0;
      auto [ptr, ec] =
          std::from_chars(step.data(), step.data() + step.size(), idx);
      if (ec != std::errc() || ptr != step.data() + step.size()) return nullptr;
      if (idx >= cur->array_->size()) return nullptr;
      cur = &(*cur->array_)[idx];
    } else {
      return nullptr;
    }
    if (cur == nullptr) return nullptr;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return cur;
}

void JsonValue::Set(std::string key, JsonValue value) {
  mutable_object()[std::move(key)] = std::move(value);
}

void JsonValue::Append(JsonValue value) {
  mutable_array().push_back(std::move(value));
}

size_t JsonValue::size() const {
  if (is_array()) return array_->size();
  if (is_object()) return object_->size();
  return 0;
}

namespace {

void EscapeStringTo(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void NumberTo(double d, std::string* out) {
  if (std::isfinite(d)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    std::string s = buf;
    // Keep the double/int distinction across a round-trip: an integral
    // double must not re-parse as an integer.
    if (s.find_first_of(".eE") == std::string::npos) s += ".0";
    *out += s;
  } else {
    // JSON has no Inf/NaN; serialize as null (the common lenient choice).
    *out += "null";
  }
}

}  // namespace

void JsonValue::SerializeTo(std::string* out, int indent, int depth) const {
  auto newline = [&] {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * depth), ' ');
    }
  };
  switch (kind_) {
    case JsonKind::kNull:
      *out += "null";
      break;
    case JsonKind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case JsonKind::kInt:
      *out += std::to_string(int_);
      break;
    case JsonKind::kDouble:
      NumberTo(double_, out);
      break;
    case JsonKind::kString:
      EscapeStringTo(string_, out);
      break;
    case JsonKind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const auto& item : *array_) {
        if (!first) out->push_back(',');
        first = false;
        ++depth;
        newline();
        item.SerializeTo(out, indent, depth);
        --depth;
      }
      if (!array_->empty()) newline();
      out->push_back(']');
      break;
    }
    case JsonKind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : *object_) {
        if (!first) out->push_back(',');
        first = false;
        ++depth;
        newline();
        EscapeStringTo(key, out);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        value.SerializeTo(out, indent, depth);
        --depth;
      }
      if (!object_->empty()) newline();
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(&out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string KeyText(const JsonValue& v) {
  if (v.is_array()) {
    std::string out = "[";
    for (size_t i = 0; i < v.array().size(); ++i) {
      if (i > 0) out.push_back(',');
      out += KeyText(v.array()[i]);
    }
    return out + "]";
  }
  if (v.is_number()) {
    const double d = v.as_double();
    // Integral values inside the int64 range print as integers.
    if (std::trunc(d) == d && std::fabs(d) < 9.2e18) {
      return std::to_string(static_cast<int64_t>(d));
    }
  }
  return v.Serialize();
}

std::string JsonValue::Pretty() const {
  std::string out;
  SerializeTo(&out, /*indent=*/2, /*depth=*/0);
  return out;
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  return JsonValue::Compare(a, b) == 0;
}

int JsonValue::Compare(const JsonValue& a, const JsonValue& b) {
  auto rank = [](JsonKind k) { return static_cast<int>(k); };
  if (a.kind_ != b.kind_) return rank(a.kind_) < rank(b.kind_) ? -1 : 1;
  auto cmp3 = [](auto x, auto y) { return x < y ? -1 : (y < x ? 1 : 0); };
  switch (a.kind_) {
    case JsonKind::kNull:
      return 0;
    case JsonKind::kBool:
      return cmp3(a.bool_, b.bool_);
    case JsonKind::kInt:
      return cmp3(a.int_, b.int_);
    case JsonKind::kDouble:
      return cmp3(a.double_, b.double_);
    case JsonKind::kString: {
      int c = a.string_.compare(b.string_);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case JsonKind::kArray: {
      const auto& x = *a.array_;
      const auto& y = *b.array_;
      for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
        int c = Compare(x[i], y[i]);
        if (c != 0) return c;
      }
      return cmp3(x.size(), y.size());
    }
    case JsonKind::kObject: {
      auto ia = a.object_->begin();
      auto ib = b.object_->begin();
      for (; ia != a.object_->end() && ib != b.object_->end(); ++ia, ++ib) {
        int kc = ia->first.compare(ib->first);
        if (kc != 0) return kc < 0 ? -1 : 1;
        int vc = Compare(ia->second, ib->second);
        if (vc != 0) return vc;
      }
      return cmp3(a.object_->size(), b.object_->size());
    }
  }
  return 0;
}

namespace {

/// Recursive-descent RFC 8259 parser.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseComplete() {
    ESTOCADA_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Fail(std::string_view what) {
    return Status::ParseError(
        StrCat("JSON parse error at offset ", pos_, ": ", what));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        ESTOCADA_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::Str(std::move(s));
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true));
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false));
      case 'n':
        return ParseLiteral("null", JsonValue::Null());
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        return Fail("unexpected character");
    }
  }

  Result<JsonValue> ParseLiteral(std::string_view lit, JsonValue value) {
    if (text_.substr(pos_, lit.size()) != lit) return Fail("bad literal");
    pos_ += lit.size();
    return value;
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool is_double = false;
    if (Consume('.')) {
      is_double = true;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    std::string_view num = text_.substr(start, pos_ - start);
    if (num.empty() || num == "-") return Fail("bad number");
    if (!is_double) {
      int64_t v = 0;
      auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), v);
      if (ec == std::errc() && p == num.data() + num.size()) {
        return JsonValue::Int(v);
      }
      // Overflowing integers fall through to double.
    }
    double d = 0;
    auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), d);
    if (ec != std::errc() || p != num.data() + num.size()) {
      return Fail("bad number");
    }
    return JsonValue::Double(d);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Fail("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are passed
            // through as two 3-byte sequences; sufficient for our data).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("bad escape character");
        }
      } else {
        out.push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  Result<JsonValue> ParseArray() {
    Consume('[');
    JsonValue arr = JsonValue::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return arr;
    for (;;) {
      ESTOCADA_ASSIGN_OR_RETURN(JsonValue item, ParseValue());
      arr.Append(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseObject() {
    Consume('{');
    JsonValue obj = JsonValue::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return obj;
    for (;;) {
      SkipWhitespace();
      ESTOCADA_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' in object");
      ESTOCADA_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      obj.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> Parse(std::string_view text) {
  return Parser(text).ParseComplete();
}

std::ostream& operator<<(std::ostream& os, const JsonValue& v) {
  return os << v.Serialize();
}

}  // namespace estocada::json
