// The dynamic value type carried by transaction arguments.
//
// The paper requires that "the argument to the operation must pass
// type checks (e.g. we cannot add an integer to a set of strings)";
// `Value` plus `ValueType` implement that typed-argument model.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <variant>

#include "serial/codec.h"
#include "util/bytes.h"
#include "util/status.h"

namespace vegvisir::crdt {

enum class ValueType : std::uint8_t {
  kBool = 0,
  kInt = 1,
  kStr = 2,
  kBytes = 3,
};

// Human-readable type name ("bool", "int", "str", "bytes").
const char* ValueTypeName(ValueType t);

// A typed argument value. Ordered (for canonical state fingerprints)
// and serializable (for transactions on the wire).
class Value {
 public:
  Value() : data_(std::int64_t{0}) {}

  static Value OfBool(bool b) { return Value(std::in_place_type<bool>, b); }
  static Value OfInt(std::int64_t i) {
    return Value(std::in_place_type<std::int64_t>, i);
  }
  static Value OfStr(std::string s) {
    return Value(std::in_place_type<std::string>, std::move(s));
  }
  static Value OfBytes(Bytes b) {
    return Value(std::in_place_type<Bytes>, std::move(b));
  }

  ValueType type() const;

  bool AsBool() const { return std::get<bool>(data_); }
  std::int64_t AsInt() const { return std::get<std::int64_t>(data_); }
  const std::string& AsStr() const { return std::get<std::string>(data_); }
  const Bytes& AsBytes() const { return std::get<Bytes>(data_); }

  // Total order: first by type tag, then by payload. Used for
  // canonical iteration order in state fingerprints.
  std::strong_ordering operator<=>(const Value& other) const;
  bool operator==(const Value& other) const = default;

  void Encode(serial::Writer* w) const;
  static Status Decode(serial::Reader* r, Value* out);

  // Debug rendering, e.g. `int:42`, `str:"abc"`.
  std::string ToString() const;

 private:
  using Payload = std::variant<bool, std::int64_t, std::string, Bytes>;
  // Builds the alternative in place: no temporary variant is moved, so
  // GCC 12's -Wmaybe-uninitialized has no variant move to misread.
  template <typename T>
  Value(std::in_place_type_t<T> type, T v) : data_(type, std::move(v)) {}

  Payload data_;
};

}  // namespace vegvisir::crdt
