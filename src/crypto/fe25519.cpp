#include "crypto/fe25519.h"

#include <cstring>

namespace vegvisir::crypto {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask51 = (u64{1} << 51) - 1;

// p = 2^255 - 19 in radix-2^51 limbs.
constexpr u64 kP[5] = {
    kMask51 - 18, kMask51, kMask51, kMask51, kMask51,
};

// 4p, the bias FeSub adds so that no limb goes negative.
constexpr u64 k4P[5] = {
    4 * kP[0], 4 * kP[1], 4 * kP[2], 4 * kP[3], 4 * kP[4],
};

// One pass of carry propagation with the 2^255 = 19 wraparound. On
// limbs below 2^55 it leaves every limb below 2^51 + 2^9.
void CarryPass(Fe* f) {
  u64 c;
  c = f->v[0] >> 51; f->v[0] &= kMask51; f->v[1] += c;
  c = f->v[1] >> 51; f->v[1] &= kMask51; f->v[2] += c;
  c = f->v[2] >> 51; f->v[2] &= kMask51; f->v[3] += c;
  c = f->v[3] >> 51; f->v[3] &= kMask51; f->v[4] += c;
  c = f->v[4] >> 51; f->v[4] &= kMask51; f->v[0] += 19 * c;
}

u64 Load64Le(const std::uint8_t* p) {
  u64 v;
  std::memcpy(&v, p, 8);  // little-endian hosts only; asserted in tests
  return v;
}

}  // namespace

Fe FeZero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe FeOne() { return Fe{{1, 0, 0, 0, 0}}; }
Fe FeFromU64(std::uint64_t x) {
  Fe f{{x & kMask51, (x >> 51) & kMask51, 0, 0, 0}};
  return f;
}

Fe FeAdd(const Fe& f, const Fe& g) {
  Fe h;
  for (int i = 0; i < 5; ++i) h.v[i] = f.v[i] + g.v[i];
  return h;
}

Fe FeSub(const Fe& f, const Fe& g) {
  Fe h;
  for (int i = 0; i < 5; ++i) h.v[i] = f.v[i] + k4P[i] - g.v[i];
  CarryPass(&h);
  return h;
}

Fe FeNeg(const Fe& f) { return FeSub(FeZero(), f); }

namespace {

// Carries 128-bit column sums (each below 2^116) down to a tight
// element: limb 1 below 2^51 + 2^18, the others below 2^51.
Fe CarryWide(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  u128 c;
  c = r0 >> 51; r0 &= kMask51; r1 += c;
  c = r1 >> 51; r1 &= kMask51; r2 += c;
  c = r2 >> 51; r2 &= kMask51; r3 += c;
  c = r3 >> 51; r3 &= kMask51; r4 += c;
  c = r4 >> 51; r4 &= kMask51; r0 += c * 19;
  c = r0 >> 51; r0 &= kMask51; r1 += c;
  return Fe{{(u64)r0, (u64)r1, (u64)r2, (u64)r3, (u64)r4}};
}

}  // namespace

Fe FeMul(const Fe& f, const Fe& g) {
  const u64 f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const u64 g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3], g4 = g.v[4];

  // 19*g_i factors fold the 2^255 == 19 identity into the product.
  const u64 g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
            g4_19 = 19 * g4;

  const u128 r0 = (u128)f0 * g0 + (u128)f1 * g4_19 + (u128)f2 * g3_19 +
                  (u128)f3 * g2_19 + (u128)f4 * g1_19;
  const u128 r1 = (u128)f0 * g1 + (u128)f1 * g0 + (u128)f2 * g4_19 +
                  (u128)f3 * g3_19 + (u128)f4 * g2_19;
  const u128 r2 = (u128)f0 * g2 + (u128)f1 * g1 + (u128)f2 * g0 +
                  (u128)f3 * g4_19 + (u128)f4 * g3_19;
  const u128 r3 = (u128)f0 * g3 + (u128)f1 * g2 + (u128)f2 * g1 +
                  (u128)f3 * g0 + (u128)f4 * g4_19;
  const u128 r4 = (u128)f0 * g4 + (u128)f1 * g3 + (u128)f2 * g2 +
                  (u128)f3 * g1 + (u128)f4 * g0;
  return CarryWide(r0, r1, r2, r3, r4);
}

Fe FeSquare(const Fe& f) {
  // FeMul(f, f) with the symmetric cross terms merged: 15 products
  // instead of 25.
  const u64 f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const u64 f0_2 = 2 * f0, f1_2 = 2 * f1;
  const u64 f1_38 = 38 * f1, f2_38 = 38 * f2, f3_38 = 38 * f3;
  const u64 f3_19 = 19 * f3, f4_19 = 19 * f4;

  const u128 r0 = (u128)f0 * f0 + (u128)f1_38 * f4 + (u128)f2_38 * f3;
  const u128 r1 = (u128)f0_2 * f1 + (u128)f2_38 * f4 + (u128)f3_19 * f3;
  const u128 r2 = (u128)f0_2 * f2 + (u128)f1 * f1 + (u128)f3_38 * f4;
  const u128 r3 = (u128)f0_2 * f3 + (u128)f1_2 * f2 + (u128)f4_19 * f4;
  const u128 r4 = (u128)f0_2 * f4 + (u128)f1_2 * f3 + (u128)f2 * f2;
  return CarryWide(r0, r1, r2, r3, r4);
}

Fe FePow(const Fe& f, const std::array<std::uint8_t, 32>& exponent_le) {
  Fe result = FeOne();
  for (int bit = 255; bit >= 0; --bit) {
    result = FeSquare(result);
    if ((exponent_le[bit / 8] >> (bit % 8)) & 1) result = FeMul(result, f);
  }
  return result;
}

namespace {

Fe FeSquareN(Fe f, int n) {
  for (int i = 0; i < n; ++i) f = FeSquare(f);
  return f;
}

// Shared prefix of the inversion / pow22523 addition chain:
// returns z^(2^250 - 1) together with z^11 and z^(2^10 - 1)
// intermediates needed by the callers.
struct ChainTail {
  Fe z250_0;  // z^(2^250 - 1)
  Fe z11;     // z^11
};

ChainTail PowChain(const Fe& z) {
  const Fe z2 = FeSquare(z);                     // z^2
  const Fe z8 = FeSquareN(z2, 2);                // z^8
  const Fe z9 = FeMul(z, z8);                    // z^9
  const Fe z11 = FeMul(z2, z9);                  // z^11
  const Fe z22 = FeSquare(z11);                  // z^22
  const Fe z_5_0 = FeMul(z9, z22);               // z^(2^5 - 1)
  const Fe z_10_5 = FeSquareN(z_5_0, 5);
  const Fe z_10_0 = FeMul(z_10_5, z_5_0);        // z^(2^10 - 1)
  const Fe z_20_10 = FeSquareN(z_10_0, 10);
  const Fe z_20_0 = FeMul(z_20_10, z_10_0);      // z^(2^20 - 1)
  const Fe z_40_20 = FeSquareN(z_20_0, 20);
  const Fe z_40_0 = FeMul(z_40_20, z_20_0);      // z^(2^40 - 1)
  const Fe z_50_10 = FeSquareN(z_40_0, 10);
  const Fe z_50_0 = FeMul(z_50_10, z_10_0);      // z^(2^50 - 1)
  const Fe z_100_50 = FeSquareN(z_50_0, 50);
  const Fe z_100_0 = FeMul(z_100_50, z_50_0);    // z^(2^100 - 1)
  const Fe z_200_100 = FeSquareN(z_100_0, 100);
  const Fe z_200_0 = FeMul(z_200_100, z_100_0);  // z^(2^200 - 1)
  const Fe z_250_50 = FeSquareN(z_200_0, 50);
  const Fe z_250_0 = FeMul(z_250_50, z_50_0);    // z^(2^250 - 1)
  return ChainTail{z_250_0, z11};
}

}  // namespace

Fe FeInvert(const Fe& f) {
  // f^(p-2) = f^(2^255 - 21).
  const ChainTail tail = PowChain(f);
  const Fe z_255_5 = FeSquareN(tail.z250_0, 5);  // z^(2^255 - 2^5)
  return FeMul(z_255_5, tail.z11);               // z^(2^255 - 21)
}

Fe FePow22523(const Fe& f) {
  // f^(2^252 - 3).
  const ChainTail tail = PowChain(f);
  const Fe z_252_2 = FeSquareN(tail.z250_0, 2);  // z^(2^252 - 4)
  return FeMul(z_252_2, f);                      // z^(2^252 - 3)
}

std::array<std::uint8_t, 32> FeToBytes(const Fe& f) {
  Fe t = f;
  CarryPass(&t);
  CarryPass(&t);
  // Every limb is now below 2^51: t < 2^255; subtract p while t >= p.
  for (int round = 0; round < 2; ++round) {
    bool ge = true;
    for (int i = 4; i >= 0; --i) {
      if (t.v[i] > kP[i]) break;
      if (t.v[i] < kP[i]) {
        ge = false;
        break;
      }
    }
    if (!ge) break;
    u64 borrow = 0;
    for (int i = 0; i < 5; ++i) {
      const u64 sub = kP[i] + borrow;
      if (t.v[i] >= sub) {
        t.v[i] -= sub;
        borrow = 0;
      } else {
        t.v[i] = t.v[i] + (kMask51 + 1) - sub;
        borrow = 1;
      }
    }
  }

  std::array<std::uint8_t, 32> out{};
  u128 acc = 0;
  int acc_bits = 0;
  std::size_t pos = 0;
  for (int i = 0; i < 5; ++i) {
    acc |= (u128)t.v[i] << acc_bits;
    acc_bits += 51;
    while (acc_bits >= 8 && pos < 32) {
      out[pos++] = (std::uint8_t)(acc & 0xff);
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (pos < 32) out[pos] = (std::uint8_t)(acc & 0xff);
  return out;
}

Fe FeFromBytes(ByteSpan bytes) {
  // Callers guarantee 32 bytes; tolerate short input by zero-padding.
  std::uint8_t b[32] = {0};
  std::memcpy(b, bytes.data(), std::min<std::size_t>(bytes.size(), 32));
  Fe f;
  f.v[0] = Load64Le(b + 0) & kMask51;
  f.v[1] = (Load64Le(b + 6) >> 3) & kMask51;
  f.v[2] = (Load64Le(b + 12) >> 6) & kMask51;
  f.v[3] = (Load64Le(b + 19) >> 1) & kMask51;
  f.v[4] = (Load64Le(b + 24) >> 12) & kMask51;  // drops bit 255
  return f;
}

bool FeIsZero(const Fe& f) {
  const auto bytes = FeToBytes(f);
  for (std::uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

bool FeEqual(const Fe& f, const Fe& g) { return FeIsZero(FeSub(f, g)); }

bool FeIsNegative(const Fe& f) { return (FeToBytes(f)[0] & 1) != 0; }

const Fe& FeConstD() {
  static const Fe d = [] {
    // d = -121665 / 121666 mod p.
    const Fe num = FeNeg(FeFromU64(121665));
    const Fe den = FeFromU64(121666);
    return FeMul(num, FeInvert(den));
  }();
  return d;
}

const Fe& FeConstD2() {
  static const Fe d2 = FeMul(FeConstD(), FeFromU64(2));
  return d2;
}

const Fe& FeConstSqrtM1() {
  static const Fe sqrt_m1 = [] {
    // sqrt(-1) = 2^((p-1)/4) mod p, exponent (p-1)/4 = 2^253 - 5.
    std::array<std::uint8_t, 32> exp{};
    exp[0] = 0xfb;  // 2^253 - 5: low byte 0x100 - 5 with borrow chain
    for (int i = 1; i < 31; ++i) exp[i] = 0xff;
    exp[31] = 0x1f;
    return FePow(FeFromU64(2), exp);
  }();
  return sqrt_m1;
}

}  // namespace vegvisir::crypto
