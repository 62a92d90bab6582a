// Edwards-curve group operations for Ed25519.
//
// Points on -x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255 - 19), held in
// extended coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z,
// x*y = T/Z.
//
// Two layers live here:
//   - GeAdd, GeDouble and GeScalarMult: the EFD "add-2008-hwcd-3"
//     (a = -1) addition, "dbl-2008-hwcd" doubling and a plain
//     double-and-add loop. They are the readable reference that the
//     tests check the fast paths against; the signing and verifying
//     code does not call them.
//   - GeScalarMultBase and the two GeDoubleScalarMultBase overloads:
//     the fast paths. Internally they use ref10's point forms
//     (projective, completed and cached, private to ge25519.cpp, and
//     the affine cached GeAffineCached) so that doublings and
//     additions skip the multiplications whose results the next step
//     discards.
//       * [s]B for signing is a fixed-base signed radix-16 walk over
//         a table of j * 16^i * B (i < 64, j <= 8) built once: about
//         64 mixed additions and no doublings.
//       * [a]P + [b]B for verifying is one joint width-w NAF loop
//         (Straus) whose doublings all terms share. Given a bare P,
//         it runs ~253 doublings over odd multiples of P (w = 5) built
//         per call and of B (w = 8) built once; about 70 additions.
//       * Given P prepared by GePrepare (a key verified many times),
//         both scalars are split into 128-bit halves and the same loop
//         runs four terms over w = 8 tables of P, [2^128]P, B and
//         [2^128]B: ~128 doublings and about 60 additions. Preparing
//         costs about 130 doublings, 126 additions and one inversion.
// All of it is variable-time; see the fe25519.h timing note.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "crypto/fe25519.h"
#include "util/bytes.h"

namespace vegvisir::crypto {

struct GePoint {
  Fe x, y, z, t;
};

// The neutral element (0, 1).
GePoint GeIdentity();

// The standard base point B (decompressed from its RFC 8032 encoding).
const GePoint& GeBasePoint();

GePoint GeAdd(const GePoint& p, const GePoint& q);
GePoint GeDouble(const GePoint& p);
// -p = (-x, y).
GePoint GeNeg(const GePoint& p);

// [scalar] * p, scalar given as 32 little-endian bytes (any 256-bit
// value). Reference double-and-add: 256 doublings, one addition per
// set bit.
GePoint GeScalarMult(const GePoint& p, const std::array<std::uint8_t, 32>& scalar_le);

// [scalar] * B for any 256-bit scalar; callers pass the clamped
// secret scalar unreduced. A scalar with bit 255 set is reduced mod L
// first (B has order L). Fixed-base table walk, no doublings.
GePoint GeScalarMultBase(const std::array<std::uint8_t, 32>& scalar_le);

// [a] * p + [b] * B in one joint loop. Both scalars must be below
// 2^255; Verify passes values reduced mod L.
GePoint GeDoubleScalarMultBase(const std::array<std::uint8_t, 32>& a_le,
                               const GePoint& p,
                               const std::array<std::uint8_t, 32>& b_le);

// A point with Z = 1 as (y + x, y - x, 2dxy): a table entry built
// once, whose addition skips the Z multiplication. 120 bytes.
struct GeAffineCached {
  Fe y_plus_x, y_minus_x, xy2d;
};

// p tabled for many GeDoubleScalarMultBase calls: the 64 odd
// multiples p, 3p, ..., 127p of p and of [2^128]p (2 x 64 x 120 B,
// about 15 KB).
struct GePrepared {
  std::vector<GeAffineCached> low;   // j * p
  std::vector<GeAffineCached> high;  // j * [2^128]p
};

GePrepared GePrepare(const GePoint& p);

// [a] * p + [b] * B for any 256-bit scalars, p as prepared by
// GePrepare: one loop over the 128-bit halves of both scalars, so
// half the doublings of the overload above.
GePoint GeDoubleScalarMultBase(const std::array<std::uint8_t, 32>& a_le,
                               const GePrepared& p,
                               const std::array<std::uint8_t, 32>& b_le);

// RFC 8032 point compression: 32 bytes = y with sign(x) in bit 255.
std::array<std::uint8_t, 32> GeCompress(const GePoint& p);

// Decompression; empty if the encoding is not a curve point.
std::optional<GePoint> GeDecompress(ByteSpan bytes32);

// Projective equality: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
bool GeEqual(const GePoint& p, const GePoint& q);

// True iff p is on the curve and T is consistent (test support).
bool GeIsValid(const GePoint& p);

}  // namespace vegvisir::crypto
