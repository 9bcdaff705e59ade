// A minimal JSON document model, a recursive-descent parser, and the one
// string writer.
//
// The repo *writes* JSON in two formats (rdt-bench-v2 reports from
// bench_common.hpp, rdt-trace-v1 chrome traces from obs/session.cpp). Both
// writers escape strings through write_string() below. The parser is the
// reading half: tools/rdt_stats loads either file back, and
// trace_export_test round-trips the writers through it. It is a DOM, not a
// streaming parser — the documents involved are reports, not bulk data.
//
// Scope: full JSON (RFC 8259) input, including string escapes and \uXXXX
// (decoded to UTF-8). Numbers without fraction/exponent that fit a
// long long parse as integers, everything else as double. Objects preserve
// member order (like the writers) and allow duplicate keys; find() returns
// the first match. Parse errors throw std::invalid_argument with the byte
// offset, like the pattern parser in ccp/pattern_io.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rdt::json {

class Value;
using Member = std::pair<std::string, Value>;
using Array = std::vector<Value>;
using Object = std::vector<Member>;

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() = default;  // null
  explicit Value(bool b) : v_(b) {}
  explicit Value(long long i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(Array a) : v_(std::move(a)) {}
  explicit Value(Object o) : v_(std::move(o)) {}

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  // Checked accessors; throw std::invalid_argument on a kind mismatch.
  // as_double() accepts integers too (JSON has one number type).
  bool as_bool() const;
  long long as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  // Object member lookup. find() returns nullptr when this value is not an
  // object or the key is absent; at() throws instead.
  const Value* find(std::string_view key) const;
  const Value& at(std::string_view key) const;

 private:
  std::variant<std::monostate, bool, long long, double, std::string, Array,
               Object>
      v_;
};

// Parse one complete JSON document (trailing whitespace allowed, trailing
// content is an error). Throws std::invalid_argument on malformed input.
Value parse(std::string_view text);

// Write `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
// newline and tab become \n and \t, every other byte below 0x20 becomes
// \u00xx (lowercase hex), and all other bytes pass through unchanged.
void write_string(std::ostream& os, std::string_view s);

}  // namespace rdt::json
