// Runtime attribute value: the dynamic type carried in tuple fields.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace spstream {

/// \brief Static type of a tuple attribute.
enum class ValueType : uint8_t { kNull = 0, kInt64, kDouble, kString, kBool };

/// \brief Name of a ValueType (e.g. "INT64").
const char* ValueTypeToString(ValueType type);

/// \brief Dynamically typed attribute value stored in a tuple.
///
/// Values are small and value-semantic; strings use small-string optimization
/// from std::string. Comparison across numeric types (int64 vs double)
/// promotes to double, matching SQL-ish semantics used by the CQL layer.
class Value {
 public:
  Value() : var_(std::monostate{}) {}
  /*implicit*/ Value(int64_t v) : var_(v) {}
  /*implicit*/ Value(int v) : var_(static_cast<int64_t>(v)) {}
  /*implicit*/ Value(double v) : var_(v) {}
  /*implicit*/ Value(bool v) : var_(v) {}
  /*implicit*/ Value(std::string v) : var_(std::move(v)) {}
  /*implicit*/ Value(const char* v) : var_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const;
  bool is_null() const { return std::holds_alternative<std::monostate>(var_); }

  bool is_int64() const { return std::holds_alternative<int64_t>(var_); }
  bool is_double() const { return std::holds_alternative<double>(var_); }
  bool is_string() const { return std::holds_alternative<std::string>(var_); }
  bool is_bool() const { return std::holds_alternative<bool>(var_); }

  int64_t int64() const { return std::get<int64_t>(var_); }
  double dbl() const { return std::get<double>(var_); }
  const std::string& str() const { return std::get<std::string>(var_); }
  bool boolean() const { return std::get<bool>(var_); }

  /// \brief Numeric view (int64 promoted); 0.0 for non-numerics.
  double AsDouble() const;

  /// \brief Render for display / key building (null -> "NULL").
  std::string ToString() const;

  /// \brief Total ordering used by distinct/group-by keys. Nulls sort first;
  /// cross-kind comparisons order by kind, numerics compare by value.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// \brief Hash consistent with operator== (numeric cross-kind equal values
  /// hash equal).
  size_t Hash() const;

  /// \brief Approximate heap + inline footprint in bytes, for memory
  /// accounting in the benchmark harness.
  size_t MemoryBytes() const;

  /// \brief Heap bytes owned beyond the inline representation (string
  /// payloads past the SSO buffer). MemoryBytes() == sizeof(Value) +
  /// HeapBytes(); summing HeapBytes over a container lets callers account
  /// the inline part once via capacity instead of per element.
  size_t HeapBytes() const {
    if (is_string() && str().capacity() > sizeof(std::string)) {
      return str().capacity();
    }
    return 0;
  }

 private:
  std::variant<std::monostate, int64_t, double, std::string, bool> var_;
};

}  // namespace spstream
