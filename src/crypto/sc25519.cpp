#include "crypto/sc25519.h"

#include <cstring>

namespace vegvisir::crypto {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// L, little-endian words.
constexpr u64 kL[4] = {
    0x5812631a5cf5d3edULL,
    0x14def9dea2f79cd6ULL,
    0x0000000000000000ULL,
    0x1000000000000000ULL,
};

// Returns a >= b for 4-word little-endian values.
bool GreaterEqual256(const u64 a[4], const u64 b[4]) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] > b[i]) return true;
    if (a[i] < b[i]) return false;
  }
  return true;  // equal
}

// a -= b mod 2^256.
void Sub256(u64 a[4], const u64 b[4]) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 bi = b[i] + borrow;
    borrow = (bi < borrow) ? 1 : (a[i] < bi ? 1 : 0);
    a[i] -= bi;
  }
}

// mu = floor(2^512 / L), the Barrett constant, little-endian words.
constexpr u64 kMu[5] = {
    0xed9ce5a30a2c131bULL,
    0x2106215d086329a7ULL,
    0xffffffffffffffebULL,
    0xffffffffffffffffULL,
    0x000000000000000fULL,
};

// Reduces a 512-bit little-endian value mod L into `out` by Barrett
// reduction in base 2^64 (HAC 14.42 with k = 4 words): the quotient
// estimate q = ((x >> 192) * mu) >> 320 is at most 2 below
// floor(x / L), so x - q*L lies in [0, 3L) and at most two
// subtractions of L finish.
void ReduceModL(const u64 x[8], u64 out[4]) {
  // q = ((x >> 192) * mu) >> 320: the top 5 words of a 10-word product.
  u64 prod[10] = {0};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 t = (u128)x[3 + i] * kMu[j] + prod[i + j] + carry;
      prod[i + j] = (u64)t;
      carry = (u64)(t >> 64);
    }
    prod[i + 5] = carry;
  }
  const u64* q = prod + 5;

  // r = x - q*L. Its true value is below 3L < 2^256, so computing it
  // mod 2^256 loses nothing.
  u64 ql[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; i + j < 4; ++j) {
      const u128 t = (u128)q[i] * kL[j] + ql[i + j] + carry;
      ql[i + j] = (u64)t;
      carry = (u64)(t >> 64);
    }
  }
  u64 r[4];
  std::memcpy(r, x, sizeof(r));
  Sub256(r, ql);
  while (GreaterEqual256(r, kL)) Sub256(r, kL);
  std::memcpy(out, r, sizeof(r));
}

}  // namespace

Scalar ScZero() { return Scalar{{0, 0, 0, 0}}; }

Scalar ScFromBytesModL(ByteSpan bytes) {
  std::uint8_t buf[64] = {0};
  std::memcpy(buf, bytes.data(), std::min<std::size_t>(bytes.size(), 64));
  u64 words[8];
  for (int i = 0; i < 8; ++i) {
    std::memcpy(&words[i], buf + 8 * i, 8);  // little-endian host
  }
  Scalar s;
  ReduceModL(words, s.w);
  return s;
}

std::array<std::uint8_t, 32> ScToBytes(const Scalar& s) {
  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 4; ++i) std::memcpy(out.data() + 8 * i, &s.w[i], 8);
  return out;
}

Scalar ScAdd(const Scalar& a, const Scalar& b) {
  Scalar r;
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 sum = a.w[i] + b.w[i];
    const u64 with_carry = sum + carry;
    const u64 new_carry = (sum < a.w[i]) || (with_carry < sum) ? 1 : 0;
    r.w[i] = with_carry;
    carry = new_carry;
  }
  // a, b < L < 2^253 so no carry out of word 3; one subtraction suffices.
  if (GreaterEqual256(r.w, kL)) Sub256(r.w, kL);
  return r;
}

Scalar ScMulAdd(const Scalar& a, const Scalar& b, const Scalar& c) {
  // Schoolbook 4x4 -> 8-word product, then add c, then reduce.
  u64 prod[8] = {0};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 t = (u128)a.w[i] * b.w[j] + prod[i + j] + carry;
      prod[i + j] = (u64)t;
      carry = (u64)(t >> 64);
    }
    prod[i + 4] += carry;
  }
  // prod += c.
  u64 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u64 add = (i < 4 ? c.w[i] : 0);
    const u64 sum = prod[i] + add;
    const u64 with_carry = sum + carry;
    carry = (sum < prod[i]) || (with_carry < sum) ? 1 : 0;
    prod[i] = with_carry;
  }
  Scalar r;
  ReduceModL(prod, r.w);
  return r;
}

bool ScIsCanonical(ByteSpan bytes32) {
  if (bytes32.size() != 32) return false;
  u64 words[4];
  for (int i = 0; i < 4; ++i) std::memcpy(&words[i], bytes32.data() + 8 * i, 8);
  return !GreaterEqual256(words, kL);
}

bool ScIsZero(const Scalar& s) {
  return (s.w[0] | s.w[1] | s.w[2] | s.w[3]) == 0;
}

}  // namespace vegvisir::crypto
