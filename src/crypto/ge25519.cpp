#include "crypto/ge25519.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "crypto/sc25519.h"

namespace vegvisir::crypto {
namespace {

// ref10's point forms. GePoint is the extended form ("P3") and
// GeAffineCached (ge25519.h) the affine cached one.
//
// Projective (X : Y : Z), x = X/Z, y = Y/Z: what doubling reads.
struct P2 {
  Fe x, y, z;
};

// Completed ((X : Z), (Y : T)), x = X/Z, y = Y/T: what doubling and
// addition produce before the caller picks the form it needs next.
struct P1P1 {
  Fe x, y, z, t;
};

// Cached (Y + X, Y - X, Z, 2dT): an addend reused many times.
struct Cached {
  Fe y_plus_x, y_minus_x, z, t2d;
};

P2 ToP2(const P1P1& p) {
  return P2{FeMul(p.x, p.t), FeMul(p.y, p.z), FeMul(p.z, p.t)};
}

GePoint ToP3(const P1P1& p) {
  return GePoint{FeMul(p.x, p.t), FeMul(p.y, p.z), FeMul(p.z, p.t),
                 FeMul(p.x, p.y)};
}

Cached ToCached(const GePoint& p) {
  return Cached{FeAdd(p.y, p.x), FeSub(p.y, p.x), p.z,
                FeMul(p.t, FeConstD2())};
}

// -q: negating x swaps y + x with y - x and flips the sign of 2dT.
Cached Neg(const Cached& q) {
  return Cached{q.y_minus_x, q.y_plus_x, q.z, FeNeg(q.t2d)};
}

GeAffineCached Neg(const GeAffineCached& q) {
  return GeAffineCached{q.y_minus_x, q.y_plus_x, FeNeg(q.xy2d)};
}

// 2p (ref10 ge_p2_dbl).
P1P1 Dbl(const P2& p) {
  const Fe xx = FeSquare(p.x);
  const Fe yy = FeSquare(p.y);
  const Fe zz = FeSquare(p.z);
  const Fe sum_sq = FeSquare(FeAdd(p.x, p.y));
  const Fe y = FeAdd(yy, xx);
  const Fe z = FeSub(yy, xx);
  return P1P1{FeSub(sum_sq, y), y, z, FeSub(FeAdd(zz, zz), z)};
}

P1P1 Dbl(const GePoint& p) { return Dbl(P2{p.x, p.y, p.z}); }

// p + q given q's y + x, y - x, 2dxy-term and the product of the two
// Z coordinates (ref10 ge_add / ge_madd).
P1P1 AddTerms(const GePoint& p, const Fe& y_plus_x, const Fe& y_minus_x,
              const Fe& t2d, const Fe& zz) {
  const Fe a = FeMul(FeAdd(p.y, p.x), y_plus_x);
  const Fe b = FeMul(FeSub(p.y, p.x), y_minus_x);
  const Fe c = FeMul(p.t, t2d);
  const Fe d = FeAdd(zz, zz);
  return P1P1{FeSub(a, b), FeAdd(a, b), FeAdd(d, c), FeSub(d, c)};
}

P1P1 Add(const GePoint& p, const Cached& q) {
  return AddTerms(p, q.y_plus_x, q.y_minus_x, q.t2d, FeMul(p.z, q.z));
}

P1P1 Add(const GePoint& p, const GeAffineCached& q) {
  return AddTerms(p, q.y_plus_x, q.y_minus_x, q.xy2d, p.z);
}

// Converts points to affine cached form with a single field inversion
// (Montgomery's trick): prefix products of the Z coordinates, one
// inversion of the total, then a backward pass peeling off each 1/Z.
std::vector<GeAffineCached> ToAffineCached(const std::vector<GePoint>& points) {
  std::vector<Fe> prefix(points.size());  // Z_0 * ... * Z_(i-1)
  Fe acc = FeOne();
  for (std::size_t i = 0; i < points.size(); ++i) {
    prefix[i] = acc;
    acc = FeMul(acc, points[i].z);
  }
  Fe inv = FeInvert(acc);
  std::vector<GeAffineCached> out(points.size());
  for (std::size_t i = points.size(); i-- > 0;) {
    const Fe z_inv = FeMul(inv, prefix[i]);
    inv = FeMul(inv, points[i].z);
    const Fe x = FeMul(points[i].x, z_inv);
    const Fe y = FeMul(points[i].y, z_inv);
    out[i] = GeAffineCached{FeAdd(y, x), FeSub(y, x),
                            FeMul(FeMul(x, y), FeConstD2())};
  }
  return out;
}

// p, 3p, 5p, ..., (2n - 1)p.
std::vector<GePoint> OddMultiples(const GePoint& p, int n) {
  const Cached p2 = ToCached(ToP3(Dbl(p)));
  std::vector<GePoint> out{p};
  while (static_cast<int>(out.size()) < n) out.push_back(ToP3(Add(out.back(), p2)));
  return out;
}

// NAF window widths of the joint verify loop. A width-w table holds
// the 2^(w-2) odd multiples 1, 3, ..., 2^(w-1) - 1 of its point: built
// per call for a bare P, once for B and for each prepared point.
constexpr int kPointWindow = 5;
constexpr int kPreparedWindow = 8;

// B and [2^128]B prepared once, for both GeDoubleScalarMultBase
// overloads.
const GePrepared& BasePrepared() {
  static const GePrepared table = GePrepare(GeBasePoint());
  return table;
}

// Row i holds j * 16^i * B for j = 1..8, for GeScalarMultBase.
const std::vector<GeAffineCached>& BaseRadix16Table() {
  static const std::vector<GeAffineCached> table = [] {
    std::vector<GePoint> points;
    points.reserve(64 * 8);
    GePoint row_base = GeBasePoint();  // 16^i * B
    for (int i = 0; i < 64; ++i) {
      const Cached step = ToCached(row_base);
      points.push_back(row_base);
      for (int j = 1; j < 8; ++j) points.push_back(ToP3(Add(points.back(), step)));
      row_base = ToP3(Dbl(points.back()));  // 2 * (8 * 16^i * B)
    }
    return ToAffineCached(points);
  }();
  return table;
}

// Width-w NAF of a scalar below 2^255: every digit is 0 or odd with
// |digit| < 2^(w-1), nonzero digits are at least w positions apart,
// and the sum of digit[i] * 2^i is the scalar.
std::array<int, 256> Wnaf(const std::array<std::uint8_t, 32>& scalar_le, int w) {
  std::uint64_t words[5] = {0, 0, 0, 0, 0};
  std::memcpy(words, scalar_le.data(), 32);  // little-endian host
  const int width = 1 << w;
  std::array<int, 256> naf{};
  int carry = 0;
  int pos = 0;
  while (pos < 256) {
    const int word = pos / 64, shift = pos % 64;
    std::uint64_t bits = words[word] >> shift;
    if (shift + w > 64) bits |= words[word + 1] << (64 - shift);
    const int window = carry + static_cast<int>(bits & (width - 1));
    if ((window & 1) == 0) {  // lowest bit 0: no digit here
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      naf[pos] = window;
    } else {
      carry = 1;
      naf[pos] = window - width;
    }
    pos += w;
  }
  return naf;
}

// The table entry for an odd digit d: table[|d| / 2], negated if d < 0.
template <typename Entry>
Entry Select(const std::vector<Entry>& table, int digit) {
  return digit > 0 ? table[digit / 2] : Neg(table[-digit / 2]);
}

// One term [scalar]Q of a Straus sum: the scalar's NAF and Q's odd
// multiples, in cached or affine cached form.
template <typename Entry>
struct StrausTerm {
  std::array<int, 256> naf;
  const std::vector<Entry>& table;
};

// The sum of the terms in one Horner loop over their digits, most
// significant first, all terms sharing its doublings.
template <typename... Entries>
GePoint Straus(const StrausTerm<Entries>&... terms) {
  int top = 255;
  while (top >= 0 && ((terms.naf[top] == 0) && ...)) --top;

  // t starts as the identity in completed form.
  P1P1 t{FeZero(), FeOne(), FeOne(), FeOne()};
  const auto add = [&t](const auto& term, int i) {
    if (term.naf[i] != 0) t = Add(ToP3(t), Select(term.table, term.naf[i]));
  };
  for (int i = top; i >= 0; --i) {
    t = Dbl(ToP2(t));
    (add(terms, i), ...);
  }
  return ToP3(t);
}

// The low and the high 128 bits of a scalar, each as a 32-byte scalar.
std::array<std::array<std::uint8_t, 32>, 2> SplitHalves(
    const std::array<std::uint8_t, 32>& scalar_le) {
  std::array<std::array<std::uint8_t, 32>, 2> halves{};
  std::memcpy(halves[0].data(), scalar_le.data(), 16);
  std::memcpy(halves[1].data(), scalar_le.data() + 16, 16);
  return halves;
}

}  // namespace

GePoint GeIdentity() {
  return GePoint{FeZero(), FeOne(), FeOne(), FeZero()};
}

const GePoint& GeBasePoint() {
  static const GePoint base = [] {
    // Encoded base point: y = 4/5 with sign bit 0 (RFC 8032 §5.1).
    std::array<std::uint8_t, 32> enc;
    enc[0] = 0x58;
    for (int i = 1; i < 32; ++i) enc[i] = 0x66;
    const auto p = GeDecompress(ByteSpan(enc.data(), enc.size()));
    return *p;  // the constant is well-formed by construction
  }();
  return base;
}

GePoint GeAdd(const GePoint& p, const GePoint& q) {
  // add-2008-hwcd-3 with k = 2d (a = -1).
  const Fe a = FeMul(FeSub(p.y, p.x), FeSub(q.y, q.x));
  const Fe b = FeMul(FeAdd(p.y, p.x), FeAdd(q.y, q.x));
  const Fe c = FeMul(FeMul(p.t, FeConstD2()), q.t);
  const Fe d = FeMul(FeAdd(p.z, p.z), q.z);
  const Fe e = FeSub(b, a);
  const Fe f = FeSub(d, c);
  const Fe g = FeAdd(d, c);
  const Fe h = FeAdd(b, a);
  return GePoint{FeMul(e, f), FeMul(g, h), FeMul(f, g), FeMul(e, h)};
}

GePoint GeDouble(const GePoint& p) {
  // dbl-2008-hwcd with a = -1 (D = -A).
  const Fe a = FeSquare(p.x);
  const Fe b = FeSquare(p.y);
  const Fe c = FeAdd(FeSquare(p.z), FeSquare(p.z));
  const Fe d = FeNeg(a);
  const Fe e = FeSub(FeSub(FeSquare(FeAdd(p.x, p.y)), a), b);
  const Fe g = FeAdd(d, b);
  const Fe f = FeSub(g, c);
  const Fe h = FeSub(d, b);
  return GePoint{FeMul(e, f), FeMul(g, h), FeMul(f, g), FeMul(e, h)};
}

GePoint GeScalarMult(const GePoint& p,
                     const std::array<std::uint8_t, 32>& scalar_le) {
  GePoint r = GeIdentity();
  for (int bit = 255; bit >= 0; --bit) {
    r = GeDouble(r);
    if ((scalar_le[bit / 8] >> (bit % 8)) & 1) r = GeAdd(r, p);
  }
  return r;
}

GePoint GeNeg(const GePoint& p) {
  return GePoint{FeNeg(p.x), p.y, p.z, FeNeg(p.t)};
}

GePoint GeScalarMultBase(const std::array<std::uint8_t, 32>& scalar_le) {
  // The recoding below needs a scalar below 2^255; B has order L, so
  // reducing a larger one mod L gives the same point.
  std::array<std::uint8_t, 32> s = scalar_le;
  if (s[31] & 0x80) s = ScToBytes(ScFromBytesModL(ByteSpan(s.data(), 32)));

  // Signed radix-16 digits e[i] in [-8, 8] with scalar = sum e[i] 16^i.
  int e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = s[i] & 15;
    e[2 * i + 1] = s[i] >> 4;
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] += carry;
    carry = (e[i] + 8) >> 4;
    e[i] -= carry << 4;
  }
  e[63] += carry;  // at most 7 + 1, as the scalar is below 2^255

  const std::vector<GeAffineCached>& table = BaseRadix16Table();
  GePoint r = GeIdentity();
  for (int i = 0; i < 64; ++i) {
    if (e[i] == 0) continue;
    const GeAffineCached& entry = table[8 * i + std::abs(e[i]) - 1];
    r = ToP3(Add(r, e[i] > 0 ? entry : Neg(entry)));
  }
  return r;
}

GePoint GeDoubleScalarMultBase(const std::array<std::uint8_t, 32>& a_le,
                               const GePoint& p,
                               const std::array<std::uint8_t, 32>& b_le) {
  std::vector<Cached> p_table;
  for (const GePoint& m : OddMultiples(p, 1 << (kPointWindow - 2))) {
    p_table.push_back(ToCached(m));
  }
  return Straus(
      StrausTerm<Cached>{Wnaf(a_le, kPointWindow), p_table},
      StrausTerm<GeAffineCached>{Wnaf(b_le, kPreparedWindow),
                                 BasePrepared().low});
}

GePrepared GePrepare(const GePoint& p) {
  // [2^128]p, then both tables through one shared inversion.
  P1P1 shifted = Dbl(p);
  for (int i = 1; i < 128; ++i) shifted = Dbl(ToP2(shifted));
  const int n = 1 << (kPreparedWindow - 2);
  std::vector<GePoint> points = OddMultiples(p, n);
  const std::vector<GePoint> high = OddMultiples(ToP3(shifted), n);
  points.insert(points.end(), high.begin(), high.end());
  const std::vector<GeAffineCached> table = ToAffineCached(points);
  return GePrepared{{table.begin(), table.begin() + n},
                    {table.begin() + n, table.end()}};
}

GePoint GeDoubleScalarMultBase(const std::array<std::uint8_t, 32>& a_le,
                               const GePrepared& p,
                               const std::array<std::uint8_t, 32>& b_le) {
  // [a]p + [b]B = [a_lo]p + [a_hi][2^128]p + [b_lo]B + [b_hi][2^128]B.
  const auto a = SplitHalves(a_le);
  const auto b = SplitHalves(b_le);
  const GePrepared& base = BasePrepared();
  return Straus(
      StrausTerm<GeAffineCached>{Wnaf(a[0], kPreparedWindow), p.low},
      StrausTerm<GeAffineCached>{Wnaf(a[1], kPreparedWindow), p.high},
      StrausTerm<GeAffineCached>{Wnaf(b[0], kPreparedWindow), base.low},
      StrausTerm<GeAffineCached>{Wnaf(b[1], kPreparedWindow), base.high});
}

std::array<std::uint8_t, 32> GeCompress(const GePoint& p) {
  const Fe z_inv = FeInvert(p.z);
  const Fe x = FeMul(p.x, z_inv);
  const Fe y = FeMul(p.y, z_inv);
  auto out = FeToBytes(y);
  if (FeIsNegative(x)) out[31] |= 0x80;
  return out;
}

std::optional<GePoint> GeDecompress(ByteSpan bytes32) {
  if (bytes32.size() != 32) return std::nullopt;
  const bool sign = (bytes32[31] & 0x80) != 0;
  const Fe y = FeFromBytes(bytes32);  // ignores bit 255

  // x^2 = (y^2 - 1) / (d*y^2 + 1).
  const Fe y2 = FeSquare(y);
  const Fe u = FeSub(y2, FeOne());
  const Fe v = FeAdd(FeMul(FeConstD(), y2), FeOne());

  // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8).
  const Fe v3 = FeMul(FeSquare(v), v);
  const Fe v7 = FeMul(FeSquare(v3), v);
  Fe x = FeMul(FeMul(u, v3), FePow22523(FeMul(u, v7)));

  const Fe vx2 = FeMul(v, FeSquare(x));
  if (!FeEqual(vx2, u)) {
    if (FeEqual(vx2, FeNeg(u))) {
      x = FeMul(x, FeConstSqrtM1());
    } else {
      return std::nullopt;  // not a quadratic residue: invalid encoding
    }
  }

  if (FeIsZero(x) && sign) return std::nullopt;  // -0 is not encodable
  if (FeIsNegative(x) != sign) x = FeNeg(x);

  return GePoint{x, y, FeOne(), FeMul(x, y)};
}

bool GeEqual(const GePoint& p, const GePoint& q) {
  return FeEqual(FeMul(p.x, q.z), FeMul(q.x, p.z)) &&
         FeEqual(FeMul(p.y, q.z), FeMul(q.y, p.z));
}

bool GeIsValid(const GePoint& p) {
  // Affine coordinates.
  if (FeIsZero(p.z)) return false;
  const Fe z_inv = FeInvert(p.z);
  const Fe x = FeMul(p.x, z_inv);
  const Fe y = FeMul(p.y, z_inv);
  const Fe t = FeMul(p.t, z_inv);
  if (!FeEqual(t, FeMul(x, y))) return false;
  // -x^2 + y^2 == 1 + d x^2 y^2.
  const Fe x2 = FeSquare(x);
  const Fe y2 = FeSquare(y);
  const Fe lhs = FeSub(y2, x2);
  const Fe rhs = FeAdd(FeOne(), FeMul(FeConstD(), FeMul(x2, y2)));
  return FeEqual(lhs, rhs);
}

}  // namespace vegvisir::crypto
