#ifndef DSSP_SQL_VALUE_H_
#define DSSP_SQL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/macros.h"

namespace dssp::sql {

// Runtime value types supported by the engine.
enum class ValueType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeName(ValueType type);

// A dynamically-typed SQL value. Comparisons between int64 and double are
// performed numerically; all other cross-type comparisons are a programming
// error (the binder checks types before execution).
class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(int v) : rep_(static_cast<int64_t>(v)) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    switch (rep_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt64;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return rep_.index() == 0; }

  int64_t AsInt64() const {
    DSSP_CHECK(type() == ValueType::kInt64);
    return std::get<int64_t>(rep_);
  }
  double AsDouble() const {
    if (type() == ValueType::kInt64) {
      return static_cast<double>(std::get<int64_t>(rep_));
    }
    DSSP_CHECK(type() == ValueType::kDouble);
    return std::get<double>(rep_);
  }
  const std::string& AsString() const {
    DSSP_CHECK(type() == ValueType::kString);
    return std::get<std::string>(rep_);
  }

  bool is_numeric() const {
    return type() == ValueType::kInt64 || type() == ValueType::kDouble;
  }

  // Three-way comparison: -1, 0, or +1. Nulls compare equal to each other
  // and less than everything else (total order for sorting and keys).
  // Requires comparable types (numeric/numeric or string/string) otherwise.
  int Compare(const Value& other) const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

  // SQL-literal rendering: NULL, 42, 3.5, 'text' (quotes escaped by
  // doubling). Round-trips through the parser.
  std::string ToSqlLiteral() const;

  // Appends ToSqlLiteral()'s text to `*out` without a temporary string.
  void AppendSqlLiteral(std::string* out) const;

  // Compact unambiguous encoding used for hashing/cache keys (type tag +
  // payload, length-prefixed).
  std::string EncodeForKey() const;

  // Appends EncodeForKey()'s bytes to `*out`, so callers building a
  // composite key reuse one buffer instead of allocating per value.
  void AppendKey(std::string* out) const;

  // Decodes one value produced by EncodeForKey starting at `*pos`, advancing
  // `*pos` past it. Returns false on malformed/truncated input.
  static bool DecodeFromKey(std::string_view data, size_t* pos, Value* out);

  uint64_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> rep_;
};

}  // namespace dssp::sql

#endif  // DSSP_SQL_VALUE_H_
