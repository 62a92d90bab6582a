// Scalar arithmetic modulo the Ed25519 group order
// L = 2^252 + 27742317777372353535851937790883648493.
//
// Scalars are 4 little-endian 64-bit words. Reduction of 512-bit
// values is Barrett reduction on 64-bit words: a 5x5-word and a
// 4x4-word product and at most two subtractions.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace vegvisir::crypto {

struct Scalar {
  std::uint64_t w[4];  // little-endian words; value < L when canonical
};

Scalar ScZero();

// Loads up to 64 little-endian bytes and reduces mod L.
Scalar ScFromBytesModL(ByteSpan bytes);

// Canonical 32-byte little-endian encoding.
std::array<std::uint8_t, 32> ScToBytes(const Scalar& s);

// (a + b) mod L.
Scalar ScAdd(const Scalar& a, const Scalar& b);

// (a * b + c) mod L — the core of Ed25519 signing (s = r + k*a).
Scalar ScMulAdd(const Scalar& a, const Scalar& b, const Scalar& c);

// True iff the 32-byte encoding represents a value < L (RFC 8032
// requires rejecting signatures whose s is non-canonical).
bool ScIsCanonical(ByteSpan bytes32);

bool ScIsZero(const Scalar& s);

}  // namespace vegvisir::crypto
