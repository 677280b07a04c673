#ifndef ESTOCADA_JSON_JSON_H_
#define ESTOCADA_JSON_JSON_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace estocada::json {

/// JSON value kinds, per RFC 8259. Integers are kept distinct from doubles
/// so the document store can index them exactly.
enum class JsonKind {
  kNull,
  kBool,
  kInt,
  kDouble,
  kString,
  kArray,
  kObject,
};

/// Immutable-ish JSON tree value. Objects preserve a deterministic
/// (lexicographic) member order — std::map — so serialization, hashing, and
/// the document encoding are stable run to run.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  /// Constructs null.
  JsonValue() : kind_(JsonKind::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Int(int64_t v);
  static JsonValue Double(double v);
  static JsonValue Str(std::string s);
  static JsonValue MakeArray(Array items = {});
  static JsonValue MakeObject(Object members = {});

  JsonKind kind() const { return kind_; }
  bool is_null() const { return kind_ == JsonKind::kNull; }
  bool is_bool() const { return kind_ == JsonKind::kBool; }
  bool is_int() const { return kind_ == JsonKind::kInt; }
  bool is_double() const { return kind_ == JsonKind::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == JsonKind::kString; }
  bool is_array() const { return kind_ == JsonKind::kArray; }
  bool is_object() const { return kind_ == JsonKind::kObject; }

  /// Typed accessors; calling the wrong one is a programming error (assert).
  bool bool_value() const;
  int64_t int_value() const;
  double double_value() const;
  /// Numeric value as double regardless of int/double kind.
  double as_double() const;
  const std::string& string_value() const;
  const Array& array() const;
  Array& mutable_array();
  const Object& object() const;
  Object& mutable_object();

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Navigates a dotted path ("user.address.city"); array steps use numeric
  /// components ("items.0.price"). Returns nullptr when any step is missing.
  const JsonValue* FindPath(std::string_view dotted_path) const;

  /// Inserts/overwrites an object member. Requires is_object().
  void Set(std::string key, JsonValue value);

  /// Appends to an array. Requires is_array().
  void Append(JsonValue value);

  /// Number of members/elements; 0 for scalars.
  size_t size() const;

  /// Compact single-line serialization (RFC 8259 escapes).
  std::string Serialize() const;

  /// Multi-line, two-space-indented serialization.
  std::string Pretty() const;

  /// Deep structural equality (ints never equal doubles: 1 != 1.0).
  friend bool operator==(const JsonValue& a, const JsonValue& b);
  friend bool operator!=(const JsonValue& a, const JsonValue& b) {
    return !(a == b);
  }

  /// Total order over JSON values (kind rank, then content); gives the
  /// document store a sort/index order for heterogeneous values.
  static int Compare(const JsonValue& a, const JsonValue& b);

 private:
  void SerializeTo(std::string* out, int indent, int depth) const;

  JsonKind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses a complete JSON text. Trailing non-whitespace is an error.
Result<JsonValue> Parse(std::string_view text);

/// Hash-key text of a value: its Serialize() text, except that numbers
/// comparing equal (1 and 1.0) render alike, also inside arrays. Stores
/// that key a hash lookup on a value use it, so an integer probe finds an
/// entry stored under the equal real and back.
std::string KeyText(const JsonValue& v);

std::ostream& operator<<(std::ostream& os, const JsonValue& v);

}  // namespace estocada::json

#endif  // ESTOCADA_JSON_JSON_H_
