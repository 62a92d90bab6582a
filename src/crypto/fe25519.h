// Field arithmetic modulo p = 2^255 - 19, for Ed25519.
//
// Elements are stored as 5 limbs of 51 bits each (radix 2^51), the
// standard portable representation. Products are accumulated in
// unsigned __int128.
//
// NOTE: operations here are *not* constant-time (variable-time
// canonicalization and exponentiation). That is acceptable for this
// codebase, which runs simulations on trusted hosts; a production
// deployment on adversarially-observable hardware would swap in a
// constant-time backend behind the same interface.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace vegvisir::crypto {

// A field element: value = sum of v[i] * 2^(51 i), taken mod p.
//
// Limb contract. No operation fully reduces its output; each one
// states the largest limbs it accepts and returns:
//   tight    every limb below 2^51 + 2^18;
//   loose    every limb below 2^54.
// A tight element is loose, and so is the FeAdd of two tight ones.
//
//   operation                inputs                      output
//   FeZero/FeOne/FeFromU64   -                           limbs < 2^51
//   FeFromBytes              -                           limbs < 2^51
//   FeAdd(f, g)              f[i] + g[i] < 2^54          f + g, no carry
//   FeSub(f, g), FeNeg(g)    f loose, g[i] <= 4p[i]      tight
//   FeMul, FeSquare          loose                       tight
//   FeInvert, FePow*         loose                       tight
//   FeToBytes, FeIsZero,     loose                       canonical
//     FeIsNegative
//   FeEqual(f, g)            as FeSub(f, g)              -
//
// 4p[i] is 2^53 - 76 for limb 0 and 2^53 - 4 for the others, so the
// FeAdd of two tight elements is a valid subtrahend. The tests in
// crypto_test.cpp run every bound at its maximum.
struct Fe {
  std::uint64_t v[5];
};

// 0 and 1.
Fe FeZero();
Fe FeOne();
Fe FeFromU64(std::uint64_t x);

// h = f + g, limb by limb (no carry).
Fe FeAdd(const Fe& f, const Fe& g);
// h = f - g, computed as f + 4p - g with one carry pass.
Fe FeSub(const Fe& f, const Fe& g);
// h = -f.
Fe FeNeg(const Fe& f);
// h = f * g.
Fe FeMul(const Fe& f, const Fe& g);
// h = f^2, with 15 limb products instead of FeMul's 25.
Fe FeSquare(const Fe& f);
// h = f^-1 (via Fermat: f^(p-2)). f must be nonzero.
Fe FeInvert(const Fe& f);
// h = f^((p-5)/8) = f^(2^252 - 3); used by point decompression.
Fe FePow22523(const Fe& f);
// h = f^e where e is a 256-bit little-endian exponent.
Fe FePow(const Fe& f, const std::array<std::uint8_t, 32>& exponent_le);

// Canonical 32-byte little-endian encoding (top bit clear).
std::array<std::uint8_t, 32> FeToBytes(const Fe& f);
// Loads 32 little-endian bytes; the top bit (bit 255) is ignored.
Fe FeFromBytes(ByteSpan bytes);

// True iff f == 0 (mod p).
bool FeIsZero(const Fe& f);
// True iff f == g (mod p).
bool FeEqual(const Fe& f, const Fe& g);
// The low bit of the canonical encoding ("sign" in RFC 8032).
bool FeIsNegative(const Fe& f);

// Curve constants (computed once, on first use; tight).
const Fe& FeConstD();       // d = -121665/121666
const Fe& FeConstD2();      // 2d
const Fe& FeConstSqrtM1();  // sqrt(-1) = 2^((p-1)/4)

}  // namespace vegvisir::crypto
