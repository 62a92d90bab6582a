#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/drbg.h"
#include "crypto/poly1305.h"
#include "crypto/ed25519.h"
#include "crypto/fe25519.h"
#include "crypto/ge25519.h"
#include "crypto/hmac.h"
#include "crypto/sc25519.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "util/bytes.h"

namespace vegvisir::crypto {
namespace {

std::string DigestHex(ByteSpan d) { return ToHex(d); }

constexpr char kLHex[] =
    "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";
constexpr char kLMinus1Hex[] =
    "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

std::array<std::uint8_t, 32> Bytes32(const Bytes& b) {
  std::array<std::uint8_t, 32> out{};
  std::memcpy(out.data(), b.data(), 32);
  return out;
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyString) {
  const auto d = Sha256::Hash({});
  EXPECT_EQ(DigestHex(d),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  const auto d = Sha256::Hash(BytesOf("abc"));
  EXPECT_EQ(DigestHex(d),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const auto d = Sha256::Hash(
      BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  EXPECT_EQ(DigestHex(d),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes msg = BytesOf("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(ByteSpan(msg.data(), split));
    h.Update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update(BytesOf("garbage"));
  (void)h.Finish();
  h.Reset();
  h.Update(BytesOf("abc"));
  EXPECT_EQ(DigestHex(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, LengthBoundaryPaddings) {
  // 55/56/64-byte messages exercise the three padding branches.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    const Bytes msg(len, 0x5a);
    Sha256 whole;
    whole.Update(msg);
    Sha256 split;
    split.Update(ByteSpan(msg.data(), len / 2));
    split.Update(ByteSpan(msg.data() + len / 2, len - len / 2));
    EXPECT_EQ(whole.Finish(), split.Finish()) << len;
  }
}

// ---------------------------------------------------------------- SHA-512

TEST(Sha512Test, EmptyString) {
  const auto d = Sha512::Hash({});
  EXPECT_EQ(DigestHex(d),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  const auto d = Sha512::Hash(BytesOf("abc"));
  EXPECT_EQ(DigestHex(d),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, TwoBlockMessage) {
  const auto d = Sha512::Hash(BytesOf(
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"));
  EXPECT_EQ(DigestHex(d),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, MillionAs) {
  Sha512 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestHex(h.Finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512Test, IncrementalMatchesOneShot) {
  const Bytes msg(300, 0xa7);
  for (std::size_t split : {0u, 1u, 127u, 128u, 129u, 300u}) {
    Sha512 h;
    h.Update(ByteSpan(msg.data(), split));
    h.Update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.Finish(), Sha512::Hash(msg)) << split;
  }
}

// ------------------------------------------------------------- HMAC-SHA256

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = HmacSha256::Mac(key, BytesOf("Hi There"));
  EXPECT_EQ(DigestHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const auto mac = HmacSha256::Mac(BytesOf("Jefe"),
                                   BytesOf("what do ya want for nothing?"));
  EXPECT_EQ(DigestHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const auto mac = HmacSha256::Mac(key, data);
  EXPECT_EQ(DigestHex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const auto mac = HmacSha256::Mac(
      key, BytesOf("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(DigestHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, IncrementalMatchesOneShot) {
  const Bytes key = BytesOf("k");
  const Bytes msg = BytesOf("split message");
  HmacSha256 mac(key);
  mac.Update(ByteSpan(msg.data(), 5));
  mac.Update(ByteSpan(msg.data() + 5, msg.size() - 5));
  EXPECT_EQ(mac.Finish(), HmacSha256::Mac(key, msg));
}

// ----------------------------------------------------------------- DRBG

TEST(DrbgTest, DeterministicFromSeed) {
  Drbg a(BytesOf("seed material"));
  Drbg b(BytesOf("seed material"));
  EXPECT_EQ(a.Generate(64), b.Generate(64));
}

TEST(DrbgTest, DifferentSeedsDiffer) {
  Drbg a(BytesOf("seed-a"));
  Drbg b(BytesOf("seed-b"));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, SequentialOutputsDiffer) {
  Drbg d(std::uint64_t{99});
  EXPECT_NE(d.Generate(32), d.Generate(32));
}

TEST(DrbgTest, ReseedChangesStream) {
  Drbg a(std::uint64_t{7});
  Drbg b(std::uint64_t{7});
  b.Reseed(BytesOf("extra entropy"));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, LargeGenerate) {
  Drbg d(std::uint64_t{1});
  const Bytes big = d.Generate(1000);
  EXPECT_EQ(big.size(), 1000u);
  // Output should not be trivially constant.
  EXPECT_NE(big[0], big[500]);
}

// --------------------------------------------------------------- ChaCha20

TEST(ChaCha20Test, Rfc8439BlockFunction) {
  ChaCha20Key key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaCha20Nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                         0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = ChaCha20Block(key, nonce, 1);
  EXPECT_EQ(ToHex(ByteSpan(block.data(), block.size())),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439Encryption) {
  ChaCha20Key key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaCha20Nonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                         0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const Bytes plaintext = BytesOf(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const Bytes ciphertext = ChaCha20Xor(key, nonce, 1, plaintext);
  EXPECT_EQ(ToHex(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20Test, EncryptDecryptRoundTrip) {
  ChaCha20Key key{};
  key[0] = 0x42;
  ChaCha20Nonce nonce{};
  const Bytes plaintext = BytesOf("attack at dawn");
  const Bytes ciphertext = ChaCha20Xor(key, nonce, 0, plaintext);
  EXPECT_NE(ciphertext, plaintext);
  EXPECT_EQ(ChaCha20Xor(key, nonce, 0, ciphertext), plaintext);
}

TEST(ChaCha20Test, NonBlockAlignedLengths) {
  ChaCha20Key key{};
  ChaCha20Nonce nonce{};
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 130u}) {
    const Bytes plaintext(len, 0x11);
    const Bytes ct = ChaCha20Xor(key, nonce, 0, plaintext);
    EXPECT_EQ(ct.size(), len);
    EXPECT_EQ(ChaCha20Xor(key, nonce, 0, ct), plaintext);
  }
}

// --------------------------------------------------------------- Poly1305

TEST(Poly1305Test, Rfc8439Vector) {
  Poly1305Key key;
  const Bytes key_bytes = MustFromHex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::memcpy(key.data(), key_bytes.data(), key.size());
  const auto tag =
      Poly1305::Mac(key, BytesOf("Cryptographic Forum Research Group"));
  EXPECT_EQ(ToHex(ByteSpan(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305Test, IncrementalMatchesOneShot) {
  Poly1305Key key{};
  key[0] = 0x42;
  key[17] = 0x24;
  const Bytes msg(100, 0x5a);
  for (std::size_t split : {0u, 1u, 15u, 16u, 17u, 99u}) {
    Poly1305 mac(key);
    mac.Update(ByteSpan(msg.data(), split));
    mac.Update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(mac.Finish(), Poly1305::Mac(key, msg)) << split;
  }
}

TEST(Poly1305Test, DifferentKeysDifferentTags) {
  Poly1305Key k1{}, k2{};
  k1[0] = 1;
  k2[0] = 2;
  const Bytes msg = BytesOf("same message");
  EXPECT_NE(Poly1305::Mac(k1, msg), Poly1305::Mac(k2, msg));
}

// ------------------------------------------------------------------ AEAD

TEST(AeadTest, Rfc8439Vector) {
  ChaCha20Key key;
  const Bytes key_bytes = MustFromHex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  std::memcpy(key.data(), key_bytes.data(), key.size());
  ChaCha20Nonce nonce;
  const Bytes nonce_bytes = MustFromHex("070000004041424344454647");
  std::memcpy(nonce.data(), nonce_bytes.data(), nonce.size());
  const Bytes aad = MustFromHex("50515253c0c1c2c3c4c5c6c7");
  const Bytes plaintext = BytesOf(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");

  const Bytes sealed = AeadSeal(key, nonce, plaintext, aad);
  ASSERT_EQ(sealed.size(), plaintext.size() + kPoly1305TagSize);
  EXPECT_EQ(ToHex(ByteSpan(sealed.data(), plaintext.size())),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116");
  EXPECT_EQ(ToHex(ByteSpan(sealed.data() + plaintext.size(),
                           kPoly1305TagSize)),
            "1ae10b594f09e26a7e902ecbd0600691");

  const auto opened = AeadOpen(key, nonce, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(AeadTest, TamperedCiphertextRejected) {
  ChaCha20Key key{};
  key[5] = 9;
  ChaCha20Nonce nonce{};
  Bytes sealed = AeadSeal(key, nonce, BytesOf("payload"), BytesOf("aad"));
  sealed[2] ^= 0x01;
  EXPECT_FALSE(AeadOpen(key, nonce, sealed, BytesOf("aad")).has_value());
}

TEST(AeadTest, TamperedTagRejected) {
  ChaCha20Key key{};
  ChaCha20Nonce nonce{};
  Bytes sealed = AeadSeal(key, nonce, BytesOf("payload"));
  sealed.back() ^= 0x80;
  EXPECT_FALSE(AeadOpen(key, nonce, sealed).has_value());
}

TEST(AeadTest, WrongAadRejected) {
  ChaCha20Key key{};
  ChaCha20Nonce nonce{};
  const Bytes sealed = AeadSeal(key, nonce, BytesOf("payload"),
                                BytesOf("context-A"));
  EXPECT_FALSE(AeadOpen(key, nonce, sealed, BytesOf("context-B")).has_value());
  EXPECT_TRUE(AeadOpen(key, nonce, sealed, BytesOf("context-A")).has_value());
}

TEST(AeadTest, EmptyPlaintextAndAad) {
  ChaCha20Key key{};
  ChaCha20Nonce nonce{};
  const Bytes sealed = AeadSeal(key, nonce, {});
  EXPECT_EQ(sealed.size(), kPoly1305TagSize);
  const auto opened = AeadOpen(key, nonce, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
  // Too-short input refused.
  EXPECT_FALSE(AeadOpen(key, nonce, Bytes(8, 0)).has_value());
}

// ------------------------------------------------------------ field arith

TEST(Fe25519Test, AddSubInverse) {
  const Fe a = FeFromU64(123456789);
  const Fe b = FeFromU64(987654321);
  EXPECT_TRUE(FeEqual(FeSub(FeAdd(a, b), b), a));
}

TEST(Fe25519Test, MulByOneIsIdentity) {
  const Fe a = FeFromU64(0xdeadbeefcafeULL);
  EXPECT_TRUE(FeEqual(FeMul(a, FeOne()), a));
}

TEST(Fe25519Test, MulCommutes) {
  const Fe a = FeFromU64(1234567);
  const Fe b = FeFromU64(7654321);
  EXPECT_TRUE(FeEqual(FeMul(a, b), FeMul(b, a)));
}

TEST(Fe25519Test, InvertIsMultiplicativeInverse) {
  const Fe a = FeFromU64(314159265358979ULL);
  EXPECT_TRUE(FeEqual(FeMul(a, FeInvert(a)), FeOne()));
}

TEST(Fe25519Test, SquareMatchesMul) {
  const Fe a = FeFromU64(271828182845ULL);
  EXPECT_TRUE(FeEqual(FeSquare(a), FeMul(a, a)));
}

TEST(Fe25519Test, NegIsAdditiveInverse) {
  const Fe a = FeFromU64(42);
  EXPECT_TRUE(FeIsZero(FeAdd(a, FeNeg(a))));
}

TEST(Fe25519Test, SqrtM1SquaresToMinusOne) {
  const Fe& s = FeConstSqrtM1();
  EXPECT_TRUE(FeEqual(FeSquare(s), FeNeg(FeOne())));
}

TEST(Fe25519Test, BytesRoundTrip) {
  const Fe a = FeFromU64(0x123456789abcdefULL);
  const auto bytes = FeToBytes(a);
  const Fe back = FeFromBytes(ByteSpan(bytes.data(), bytes.size()));
  EXPECT_TRUE(FeEqual(a, back));
}

TEST(Fe25519Test, CanonicalEncodingOfPMinusOne) {
  // p - 1 = 2^255 - 20 must encode canonically (not wrap).
  Fe p_minus_1 = FeNeg(FeOne());
  const auto bytes = FeToBytes(p_minus_1);
  EXPECT_EQ(bytes[0], 0xec);
  EXPECT_EQ(bytes[31], 0x7f);
}

TEST(Fe25519Test, ZeroEncodesToZeroBytes) {
  const auto bytes = FeToBytes(FeZero());
  for (auto b : bytes) EXPECT_EQ(b, 0);
}

TEST(Fe25519Test, DConstantMatchesRfc) {
  // d = 370957059346694393431380835087545651895421138798432190163887855330
  // 85940283555; canonical little-endian encoding from RFC 8032.
  const auto bytes = FeToBytes(FeConstD());
  EXPECT_EQ(ToHex(ByteSpan(bytes.data(), bytes.size())),
            "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352");
}

TEST(Fe25519Test, PowMatchesInvert) {
  // x^(p-2) via the generic ladder must equal FeInvert.
  std::array<std::uint8_t, 32> exp{};
  exp[0] = 0xeb;  // 2^255 - 21 little-endian: 0xeb, 0xff.., top 0x7f
  for (int i = 1; i < 31; ++i) exp[i] = 0xff;
  exp[31] = 0x7f;
  const Fe a = FeFromU64(9999999937ULL);
  EXPECT_TRUE(FeEqual(FePow(a, exp), FeInvert(a)));
}

// Limb bounds from the contract in fe25519.h.
constexpr std::uint64_t kLooseMax = (std::uint64_t{1} << 54) - 1;
constexpr std::uint64_t kTightMax =
    (std::uint64_t{1} << 51) + (std::uint64_t{1} << 18) - 1;
constexpr std::uint64_t k4PLimb0 = 4 * ((std::uint64_t{1} << 51) - 19);
constexpr std::uint64_t k4PLimb = 4 * ((std::uint64_t{1} << 51) - 1);

Fe AllLimbs(std::uint64_t limb) { return Fe{{limb, limb, limb, limb, limb}}; }

bool IsTight(const Fe& f) {
  for (std::uint64_t limb : f.v) {
    if (limb > kTightMax) return false;
  }
  return true;
}

std::string FeHex(const Fe& f) {
  const auto b = FeToBytes(f);
  return ToHex(ByteSpan(b.data(), b.size()));
}

// The value of f rebuilt from small inputs only: the sum of
// limb_i * 2^(51 i), each term a product of two elements with limbs
// below 2^51.
Fe ReducedCopy(const Fe& f) {
  Fe acc = FeZero();
  for (int i = 0; i < 5; ++i) {
    std::array<std::uint8_t, 32> pow2{};
    pow2[51 * i / 8] = static_cast<std::uint8_t>(1u << (51 * i % 8));
    const Fe term =
        FeMul(FeFromU64(f.v[i]), FeFromBytes(ByteSpan(pow2.data(), 32)));
    acc = FeMul(FeAdd(acc, term), FeOne());
  }
  return acc;
}

TEST(Fe25519Test, MaxLimbInputsMatchReducedInputs) {
  const Fe loose = AllLimbs(kLooseMax);
  const Fe reduced = ReducedCopy(loose);
  EXPECT_EQ(FeHex(loose), FeHex(reduced));

  const Fe product = FeMul(loose, loose);
  EXPECT_TRUE(IsTight(product));
  EXPECT_EQ(FeHex(product), FeHex(FeMul(reduced, reduced)));
  const Fe square = FeSquare(loose);
  EXPECT_TRUE(IsTight(square));
  EXPECT_EQ(FeHex(square), FeHex(FeMul(reduced, reduced)));

  // Largest subtrahends: every limb at 4p (a multiple of p), and the
  // sum of two maximal tight elements.
  const Fe four_p{{k4PLimb0, k4PLimb, k4PLimb, k4PLimb, k4PLimb}};
  const Fe minus_four_p = FeSub(loose, four_p);
  EXPECT_TRUE(IsTight(minus_four_p));
  EXPECT_EQ(FeHex(minus_four_p), FeHex(reduced));
  const Fe two_tight = FeAdd(AllLimbs(kTightMax), AllLimbs(kTightMax));
  const Fe diff = FeSub(loose, two_tight);
  EXPECT_TRUE(IsTight(diff));
  EXPECT_EQ(FeHex(diff), FeHex(FeSub(reduced, ReducedCopy(two_tight))));
  EXPECT_EQ(FeHex(FeSub(FeZero(), four_p)), FeHex(FeZero()));
}

TEST(Fe25519Test, SquareMatchesMulOnRandomAndMaxLimbInputs) {
  std::vector<Fe> inputs = {AllLimbs(kLooseMax), AllLimbs(kTightMax),
                            FeZero(), FeOne(), FeNeg(FeOne())};
  Drbg drbg(std::uint64_t{2040});
  for (int i = 0; i < 10000; ++i) {
    const Bytes b = drbg.Generate(40);
    Fe f;
    for (int j = 0; j < 5; ++j) {
      std::uint64_t w;
      std::memcpy(&w, b.data() + 8 * j, 8);
      f.v[j] = (i % 2 == 0) ? (w & kLooseMax) : (w % (kTightMax + 1));
    }
    inputs.push_back(f);
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Fe sq = FeSquare(inputs[i]);
    const Fe mul = FeMul(inputs[i], inputs[i]);
    // Same column sums, same carry chain: identical limbs, not just
    // the same value.
    ASSERT_EQ(std::memcmp(sq.v, mul.v, sizeof(sq.v)), 0) << i;
  }
}

// ------------------------------------------------------------ scalar arith

TEST(Sc25519Test, ZeroIsZero) {
  EXPECT_TRUE(ScIsZero(ScZero()));
  EXPECT_FALSE(ScIsZero(ScFromBytesModL(BytesOf("x"))));
}

TEST(Sc25519Test, ReduceOfLIsZero) {
  // L itself reduces to zero.
  const Bytes l_bytes = MustFromHex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  EXPECT_TRUE(ScIsZero(ScFromBytesModL(l_bytes)));
}

TEST(Sc25519Test, SmallValuePassesThrough) {
  Bytes b(32, 0);
  b[0] = 42;
  const Scalar s = ScFromBytesModL(b);
  EXPECT_EQ(ScToBytes(s)[0], 42);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(ScToBytes(s)[i], 0);
}

TEST(Sc25519Test, AddWrapsModL) {
  // (L - 1) + 2 == 1 mod L.
  const Bytes l_minus_1 = MustFromHex(
      "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  Bytes two(32, 0);
  two[0] = 2;
  const Scalar r = ScAdd(ScFromBytesModL(l_minus_1), ScFromBytesModL(two));
  auto bytes = ScToBytes(r);
  EXPECT_EQ(bytes[0], 1);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(bytes[i], 0);
}

TEST(Sc25519Test, MulAddSmallValues) {
  Bytes a(32, 0), b(32, 0), c(32, 0);
  a[0] = 7;
  b[0] = 6;
  c[0] = 5;
  const Scalar r =
      ScMulAdd(ScFromBytesModL(a), ScFromBytesModL(b), ScFromBytesModL(c));
  EXPECT_EQ(ScToBytes(r)[0], 47);
}

TEST(Sc25519Test, CanonicalityCheck) {
  const Bytes l_bytes = MustFromHex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  EXPECT_FALSE(ScIsCanonical(l_bytes));
  const Bytes l_minus_1 = MustFromHex(
      "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  EXPECT_TRUE(ScIsCanonical(l_minus_1));
  Bytes zero(32, 0);
  EXPECT_TRUE(ScIsCanonical(zero));
  EXPECT_FALSE(ScIsCanonical(Bytes(31, 0)));  // wrong length
}

// The bit-serial reduction that Barrett reduction replaced, kept as the
// oracle: r = 2r + bit, minus L whenever r >= L, over all 512 bits.
std::array<std::uint8_t, 32> BitSerialModL(const Bytes& in64) {
  std::uint64_t l[4];
  std::memcpy(l, MustFromHex(kLHex).data(), 32);
  std::uint64_t x[8];
  std::memcpy(x, in64.data(), 64);
  std::uint64_t r[4] = {0, 0, 0, 0};
  for (int bit = 511; bit >= 0; --bit) {
    for (int i = 3; i > 0; --i) r[i] = (r[i] << 1) | (r[i - 1] >> 63);
    r[0] = (r[0] << 1) | ((x[bit / 64] >> (bit % 64)) & 1);
    bool ge = true;
    for (int i = 3; i >= 0; --i) {
      if (r[i] != l[i]) {
        ge = r[i] > l[i];
        break;
      }
    }
    if (!ge) continue;
    std::uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t sub = l[i] + borrow;
      borrow = (sub < borrow || r[i] < sub) ? 1 : 0;
      r[i] -= sub;
    }
  }
  std::array<std::uint8_t, 32> out;
  std::memcpy(out.data(), r, 32);
  return out;
}

TEST(Sc25519Test, BarrettReductionMatchesBitSerial) {
  const auto padded = [](const char* hex) {
    Bytes b = MustFromHex(hex);
    b.resize(64, 0);
    return b;
  };
  const Bytes zero(64, 0);
  const Bytes all_ones(64, 0xff);
  const Bytes two_l = padded(
      "daa7ebb934c624b0ac39ef45bdf3bd2900000000000000000000000000000020");
  std::vector<Bytes> inputs = {zero, padded(kLMinus1Hex), padded(kLHex), two_l,
                               all_ones};
  EXPECT_EQ(ToHex(ScToBytes(ScFromBytesModL(padded(kLMinus1Hex)))),
            kLMinus1Hex);
  EXPECT_TRUE(ScIsZero(ScFromBytesModL(padded(kLHex))));
  EXPECT_TRUE(ScIsZero(ScFromBytesModL(two_l)));
  Drbg drbg(std::uint64_t{2041});
  for (int i = 0; i < 10000; ++i) inputs.push_back(drbg.Generate(64));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(ScToBytes(ScFromBytesModL(inputs[i])), BitSerialModL(inputs[i]))
        << i;
  }
}

// ------------------------------------------------------------- group ops

TEST(Ge25519Test, BasePointIsValid) {
  EXPECT_TRUE(GeIsValid(GeBasePoint()));
}

TEST(Ge25519Test, IdentityIsValid) {
  EXPECT_TRUE(GeIsValid(GeIdentity()));
}

TEST(Ge25519Test, AddIdentityIsNoOp) {
  const GePoint& b = GeBasePoint();
  EXPECT_TRUE(GeEqual(GeAdd(b, GeIdentity()), b));
}

TEST(Ge25519Test, DoubleMatchesAdd) {
  const GePoint& b = GeBasePoint();
  EXPECT_TRUE(GeEqual(GeDouble(b), GeAdd(b, b)));
}

TEST(Ge25519Test, AddCommutes) {
  const GePoint& b = GeBasePoint();
  const GePoint b2 = GeDouble(b);
  EXPECT_TRUE(GeEqual(GeAdd(b, b2), GeAdd(b2, b)));
}

TEST(Ge25519Test, AddAssociates) {
  const GePoint& b = GeBasePoint();
  const GePoint b2 = GeDouble(b);
  const GePoint b4 = GeDouble(b2);
  EXPECT_TRUE(GeEqual(GeAdd(GeAdd(b, b2), b4), GeAdd(b, GeAdd(b2, b4))));
}

TEST(Ge25519Test, OrderOfBasePointIsL) {
  // [L]B == identity.
  std::array<std::uint8_t, 32> l_le{};
  const Bytes l_bytes = MustFromHex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::memcpy(l_le.data(), l_bytes.data(), 32);
  const GePoint p = GeScalarMultBase(l_le);
  EXPECT_TRUE(GeEqual(p, GeIdentity()));
}

TEST(Ge25519Test, ScalarMultByOneAndTwo) {
  std::array<std::uint8_t, 32> one{};
  one[0] = 1;
  std::array<std::uint8_t, 32> two{};
  two[0] = 2;
  EXPECT_TRUE(GeEqual(GeScalarMultBase(one), GeBasePoint()));
  EXPECT_TRUE(GeEqual(GeScalarMultBase(two), GeDouble(GeBasePoint())));
}

TEST(Ge25519Test, ScalarMultDistributes) {
  // [3]B == [2]B + B.
  std::array<std::uint8_t, 32> three{};
  three[0] = 3;
  EXPECT_TRUE(GeEqual(GeScalarMultBase(three),
                      GeAdd(GeDouble(GeBasePoint()), GeBasePoint())));
}

TEST(Ge25519Test, CompressDecompressRoundTrip) {
  std::array<std::uint8_t, 32> k{};
  k[0] = 0x37;
  k[5] = 0x99;
  const GePoint p = GeScalarMultBase(k);
  const auto enc = GeCompress(p);
  const auto q = GeDecompress(ByteSpan(enc.data(), enc.size()));
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(GeEqual(p, *q));
}

TEST(Ge25519Test, DecompressRejectsNonCurvePoint) {
  // y = 2 gives x^2 = 3/(4d+1); overwhelmingly not a square for most
  // small y; this particular value is a known non-point.
  Bytes enc(32, 0);
  enc[0] = 0x02;
  int failures = 0;
  for (std::uint8_t y = 2; y < 12; ++y) {
    enc[0] = y;
    if (!GeDecompress(enc).has_value()) ++failures;
  }
  EXPECT_GT(failures, 0);
}

TEST(Ge25519Test, BasePointEncodingMatchesRfc) {
  const auto enc = GeCompress(GeBasePoint());
  EXPECT_EQ(ToHex(ByteSpan(enc.data(), enc.size())),
            "5866666666666666666666666666666666666666666666666666666666666666");
}

// An order-8 point (a small-order encoding Verify must handle).
constexpr char kOrder8Hex[] =
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a";

// 0, 1, 2, L - 1 and 2^252, then `random` seeded scalars below 2^255.
std::vector<std::array<std::uint8_t, 32>> TestScalars(int random,
                                                      std::uint64_t seed) {
  std::array<std::uint8_t, 32> zero{}, one{}, two{}, pow252{};
  one[0] = 1;
  two[0] = 2;
  pow252[31] = 0x10;
  std::vector<std::array<std::uint8_t, 32>> out = {
      zero, one, two, Bytes32(MustFromHex(kLMinus1Hex)), pow252};
  Drbg drbg(seed);
  for (int i = 0; i < random; ++i) {
    auto s = Bytes32(drbg.Generate(32));
    s[31] &= 0x7f;
    out.push_back(s);
  }
  return out;
}

TEST(Ge25519Test, DoubleScalarMultMatchesReference) {
  Drbg drbg(std::uint64_t{2042});
  const KeyPair kp = KeyPair::Generate(drbg);
  const GePoint key = *GeDecompress(ByteSpan(kp.public_key().bytes.data(), 32));
  const GePoint torsion = *GeDecompress(MustFromHex(kOrder8Hex));
  const GePoint mixed = GeAdd(key, torsion);  // full order times 8
  const auto scalars = TestScalars(256, 2043);
  const std::size_t n = scalars.size();
  for (const GePoint& p : {key, mixed}) {
    const auto check = [&](const auto& a, const auto& b) {
      const GePoint expect =
          GeAdd(GeScalarMult(p, a), GeScalarMult(GeBasePoint(), b));
      return GeEqual(GeDoubleScalarMultBase(a, p, b), expect);
    };
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(check(scalars[i], scalars[n - 1 - i])) << i;
    }
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_TRUE(check(scalars[i], scalars[j])) << i << "," << j;
      }
    }
  }
}

// The prepared loop splits both scalars at bit 128; check it at the
// split's edges (bit 127 or 128 alone, an all-ones low half, 0, L - 1,
// 2^256 - 1) and on seeded full-width scalars, for a prime-order and
// a mixed-order point.
TEST(Ge25519Test, SplitScalarMultMatchesReference) {
  Drbg drbg(std::uint64_t{2047});
  const KeyPair kp = KeyPair::Generate(drbg);
  const GePoint key = *GeDecompress(ByteSpan(kp.public_key().bytes.data(), 32));
  const GePoint torsion = *GeDecompress(MustFromHex(kOrder8Hex));
  std::array<std::uint8_t, 32> zero{}, bit127{}, bit128{}, low_ones{},
      both_edges{};
  bit127[15] = 0x80;
  bit128[16] = 0x01;
  std::memset(low_ones.data(), 0xff, 16);
  both_edges[15] = 0x80;
  both_edges[16] = 0x01;
  std::vector<std::array<std::uint8_t, 32>> scalars = {
      zero, bit127, bit128, low_ones, both_edges,
      Bytes32(MustFromHex(kLMinus1Hex)), Bytes32(Bytes(32, 0xff))};
  for (int i = 0; i < 8; ++i) scalars.push_back(Bytes32(drbg.Generate(32)));

  for (const GePoint& p : {key, GeAdd(key, torsion)}) {
    const GePrepared prepared = GePrepare(p);
    for (const auto& a : scalars) {
      for (const auto& b : scalars) {
        const GePoint expect =
            GeAdd(GeScalarMult(p, a), GeScalarMult(GeBasePoint(), b));
        EXPECT_TRUE(GeEqual(GeDoubleScalarMultBase(a, prepared, b), expect))
            << ToHex(ByteSpan(a.data(), 32)) << " "
            << ToHex(ByteSpan(b.data(), 32));
      }
    }
  }
}

TEST(Ge25519Test, FixedBaseMatchesReference) {
  auto scalars = TestScalars(64, 2044);
  // The clamped secret scalar and anything else up to 2^256 - 1.
  Drbg drbg(std::uint64_t{2045});
  for (int i = 0; i < 16; ++i) {
    auto s = Bytes32(drbg.Generate(32));
    s[31] |= 0x80;
    scalars.push_back(s);
  }
  scalars.push_back(Bytes32(Bytes(32, 0xff)));
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    EXPECT_TRUE(GeEqual(GeScalarMultBase(scalars[i]),
                        GeScalarMult(GeBasePoint(), scalars[i])))
        << i;
  }
}

// --------------------------------------------------------------- Ed25519

struct Rfc8032Vector {
  const char* name;
  const char* secret;
  const char* public_key;
  const char* message;
  const char* signature;
};

// Prints the vector's name so the test names stay the same from run to
// run; the default printer would dump the string pointers.
void PrintTo(const Rfc8032Vector& v, std::ostream* os) { *os << v.name; }

class Ed25519VectorTest : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Ed25519VectorTest, SignMatchesVector) {
  const auto& v = GetParam();
  std::array<std::uint8_t, 32> seed;
  const Bytes seed_bytes = MustFromHex(v.secret);
  std::memcpy(seed.data(), seed_bytes.data(), 32);
  const KeyPair kp = KeyPair::FromSeed(seed);
  EXPECT_EQ(ToHex(ByteSpan(kp.public_key().bytes.data(), 32)), v.public_key);
  const Bytes message = MustFromHex(v.message);
  const Signature sig = kp.Sign(message);
  EXPECT_EQ(ToHex(ByteSpan(sig.bytes.data(), 64)), v.signature);
  EXPECT_TRUE(Verify(kp.public_key(), message, sig));
}

INSTANTIATE_TEST_SUITE_P(
    Rfc8032, Ed25519VectorTest,
    ::testing::Values(
        Rfc8032Vector{
            "test1",
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
        Rfc8032Vector{
            "test2",
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
        Rfc8032Vector{
            "test3",
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
        Rfc8032Vector{
            "test_sha_abc",
            "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
            "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"}));

TEST(Ed25519Test, SignVerifyRoundTrip) {
  Drbg drbg(std::uint64_t{2026});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg = BytesOf("vegvisir block payload");
  const Signature sig = kp.Sign(msg);
  EXPECT_TRUE(Verify(kp.public_key(), msg, sig));
}

TEST(Ed25519Test, TamperedMessageFailsVerify) {
  Drbg drbg(std::uint64_t{2027});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg = BytesOf("original");
  const Signature sig = kp.Sign(msg);
  EXPECT_FALSE(Verify(kp.public_key(), BytesOf("originaX"), sig));
}

TEST(Ed25519Test, TamperedSignatureFailsVerify) {
  Drbg drbg(std::uint64_t{2028});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg = BytesOf("message");
  Signature sig = kp.Sign(msg);
  sig.bytes[3] ^= 0x01;
  EXPECT_FALSE(Verify(kp.public_key(), msg, sig));
  sig.bytes[3] ^= 0x01;
  sig.bytes[40] ^= 0x80;  // flip a bit in s
  EXPECT_FALSE(Verify(kp.public_key(), msg, sig));
}

TEST(Ed25519Test, WrongKeyFailsVerify) {
  Drbg drbg(std::uint64_t{2029});
  const KeyPair kp1 = KeyPair::Generate(drbg);
  const KeyPair kp2 = KeyPair::Generate(drbg);
  ASSERT_NE(kp1.public_key(), kp2.public_key());
  const Bytes msg = BytesOf("message");
  EXPECT_FALSE(Verify(kp2.public_key(), msg, kp1.Sign(msg)));
}

TEST(Ed25519Test, NonCanonicalSRejected) {
  Drbg drbg(std::uint64_t{2030});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg = BytesOf("message");
  Signature sig = kp.Sign(msg);
  // Force s >= L by setting the top word region to all-ones.
  for (int i = 32; i < 64; ++i) sig.bytes[i] = 0xff;
  EXPECT_FALSE(Verify(kp.public_key(), msg, sig));
}

TEST(Ed25519Test, DeterministicSignatures) {
  Drbg drbg(std::uint64_t{2031});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg = BytesOf("same message");
  EXPECT_EQ(kp.Sign(msg).bytes, kp.Sign(msg).bytes);
}

TEST(Ed25519Test, GenerateProducesDistinctKeys) {
  Drbg drbg(std::uint64_t{2032});
  const KeyPair a = KeyPair::Generate(drbg);
  const KeyPair b = KeyPair::Generate(drbg);
  EXPECT_NE(a.public_key(), b.public_key());
}

TEST(Ed25519Test, ManyRandomRoundTrips) {
  Drbg drbg(std::uint64_t{2033});
  for (int i = 0; i < 8; ++i) {
    const KeyPair kp = KeyPair::Generate(drbg);
    const Bytes msg = drbg.Generate(1 + i * 17);
    const Signature sig = kp.Sign(msg);
    EXPECT_TRUE(Verify(kp.public_key(), msg, sig)) << i;
  }
}

// Verify's verdicts on hostile encodings, recorded from the
// double-and-add implementation this kernel replaced. Each encoding is
// used as A (with the valid R), as R (with the valid A), as both, and
// as A with R = B; each verdict string covers s = 0, 1, L - 1, L and
// the valid signature's s. Non-canonical y >= p encodings decompress
// (as y mod p) and must keep doing so.
struct EdgeCase {
  const char* encoding;
  const char* as_a;
  const char* as_r;
  const char* as_both;
  const char* as_a_with_base_r;
};

constexpr EdgeCase kEdgeCases[] = {
    // The eight small-order points.
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "00000", "00000", "10000", "01000"},
    {"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "00000", "00000", "10000", "00000"},
    {"0000000000000000000000000000000000000000000000000000000000000000",
     "00000", "00000", "00000", "00000"},
    {"0000000000000000000000000000000000000000000000000000000000000080",
     "00000", "00000", "10000", "00000"},
    {"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
     "00000", "00000", "00000", "00000"},
    {"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
     "00000", "00000", "00000", "00000"},
    {"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
     "00000", "00000", "10000", "00000"},
    {"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
     "00000", "00000", "00000", "01000"},
    // Non-canonical y >= p, with and without the sign bit.
    {"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "00000", "00000", "10000", "00000"},
    {"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "00000", "00000", "00000", "00000"},
    {"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "00000", "00000", "10000", "01000"},
    {"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "00000", "00000", "00000", "00000"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "00000", "00000", "00000", "00000"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "00000", "00000", "00000", "00000"},
    // -0: x = 0 with the sign bit set.
    {"0100000000000000000000000000000000000000000000000000000000000080",
     "00000", "00000", "00000", "00000"},
    {"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "00000", "00000", "00000", "00000"},
};

TEST(Ed25519Test, EdgeCaseVerdictsMatchParent) {
  std::array<std::uint8_t, 32> seed;
  seed.fill(0x5e);
  const KeyPair kp = KeyPair::FromSeed(seed);
  const Bytes msg = BytesOf("edge-case message");
  const Signature good = kp.Sign(msg);
  const Bytes base = MustFromHex(
      "5866666666666666666666666666666666666666666666666666666666666666");
  Bytes one(32, 0);
  one[0] = 1;
  const std::vector<Bytes> s_values = {
      Bytes(32, 0), one, MustFromHex(kLMinus1Hex), MustFromHex(kLHex),
      Bytes(good.bytes.begin() + 32, good.bytes.end())};

  for (const EdgeCase& c : kEdgeCases) {
    const Bytes e = MustFromHex(c.encoding);
    const char* expected[] = {c.as_a, c.as_r, c.as_both, c.as_a_with_base_r};
    for (int role = 0; role < 4; ++role) {
      std::string verdicts;
      for (const Bytes& s : s_values) {
        PublicKey pk = kp.public_key();
        Signature sig = good;
        if (role != 1) std::memcpy(pk.bytes.data(), e.data(), 32);
        if (role == 1 || role == 2) std::memcpy(sig.bytes.data(), e.data(), 32);
        if (role == 3) std::memcpy(sig.bytes.data(), base.data(), 32);
        std::memcpy(sig.bytes.data() + 32, s.data(), 32);
        verdicts += Verify(pk, msg, sig) ? '1' : '0';
      }
      EXPECT_EQ(verdicts, expected[role]) << c.encoding << " role " << role;
    }
  }
}

// A key with a torsion component, A' = [a]B + T for T of order 8, and
// signatures its owner makes for A' (k = H(R || A' || M), s = r + k*a).
// The cofactorless equation holds exactly when [k]T = 0, i.e. when
// k = 0 mod 8; a cofactored verifier would accept them all.
TEST(Ed25519Test, MixedOrderKeyVerdictsAreCofactorless) {
  const GePoint torsion = *GeDecompress(MustFromHex(kOrder8Hex));
  Drbg drbg(std::uint64_t{2046});
  int accepted = 0;
  for (int i = 0; i < 64; ++i) {
    const Sha512Digest expanded = Sha512::Hash(drbg.Generate(32));
    auto a = Bytes32(Bytes(expanded.begin(), expanded.begin() + 32));
    a[0] &= 0xf8;
    a[31] = (a[31] & 0x7f) | 0x40;
    PublicKey pk;
    pk.bytes = GeCompress(GeAdd(GeScalarMult(GeBasePoint(), a), torsion));

    const Bytes msg = drbg.Generate(16);
    const Scalar r = ScFromBytesModL(drbg.Generate(64));
    const auto r_enc = GeCompress(GeScalarMult(GeBasePoint(), ScToBytes(r)));
    Sha512 h;
    h.Update(ByteSpan(r_enc.data(), 32));
    h.Update(ByteSpan(pk.bytes.data(), 32));
    h.Update(msg);
    const Sha512Digest k_hash = h.Finish();
    const Scalar k = ScFromBytesModL(ByteSpan(k_hash.data(), k_hash.size()));
    const auto s = ScToBytes(
        ScMulAdd(k, ScFromBytesModL(ByteSpan(a.data(), 32)), r));
    Signature sig;
    std::memcpy(sig.bytes.data(), r_enc.data(), 32);
    std::memcpy(sig.bytes.data() + 32, s.data(), 32);

    const bool expected = (k.w[0] & 7) == 0;
    EXPECT_EQ(Verify(pk, msg, sig), expected) << i;
    accepted += expected ? 1 : 0;
  }
  EXPECT_GT(accepted, 0);  // both verdicts are exercised
  EXPECT_LT(accepted, 64);
}

// VerifyingKey must return crypto::Verify's verdict on every input:
// the whole hostile-encoding matrix above, keys with a torsion
// component, and seeded valid and tampered signatures.
TEST(Ed25519Test, PreparedVerdictsMatchOneShot) {
  int checked = 0, accepted = 0;
  const auto check = [&](const PublicKey& pk, ByteSpan msg,
                         const Signature& sig) {
    const bool one_shot = Verify(pk, msg, sig);
    EXPECT_EQ(VerifyingKey(pk).Verify(msg, sig), one_shot)
        << ToHex(ByteSpan(pk.bytes.data(), 32)) << " "
        << ToHex(ByteSpan(sig.bytes.data(), 64));
    ++checked;
    accepted += one_shot ? 1 : 0;
  };

  // The edge-case matrix: each encoding as A, as R, as both, and as A
  // with R = B, under every s value.
  std::array<std::uint8_t, 32> seed;
  seed.fill(0x5e);
  const KeyPair kp = KeyPair::FromSeed(seed);
  const Bytes msg = BytesOf("edge-case message");
  const Signature good = kp.Sign(msg);
  const Bytes base = MustFromHex(
      "5866666666666666666666666666666666666666666666666666666666666666");
  Bytes one(32, 0);
  one[0] = 1;
  const std::vector<Bytes> s_values = {
      Bytes(32, 0), one, MustFromHex(kLMinus1Hex), MustFromHex(kLHex),
      Bytes(good.bytes.begin() + 32, good.bytes.end())};
  for (const EdgeCase& c : kEdgeCases) {
    const Bytes e = MustFromHex(c.encoding);
    for (int role = 0; role < 4; ++role) {
      for (const Bytes& s : s_values) {
        PublicKey pk = kp.public_key();
        Signature sig = good;
        if (role != 1) std::memcpy(pk.bytes.data(), e.data(), 32);
        if (role == 1 || role == 2) std::memcpy(sig.bytes.data(), e.data(), 32);
        if (role == 3) std::memcpy(sig.bytes.data(), base.data(), 32);
        std::memcpy(sig.bytes.data() + 32, s.data(), 32);
        check(pk, msg, sig);
      }
    }
  }

  // Mixed-order keys A' = [a]B + T, signed by their owner: accepted
  // exactly when k = 0 mod 8.
  const GePoint torsion = *GeDecompress(MustFromHex(kOrder8Hex));
  Drbg drbg(std::uint64_t{2048});
  for (int i = 0; i < 32; ++i) {
    const Sha512Digest expanded = Sha512::Hash(drbg.Generate(32));
    auto a = Bytes32(Bytes(expanded.begin(), expanded.begin() + 32));
    a[0] &= 0xf8;
    a[31] = (a[31] & 0x7f) | 0x40;
    PublicKey pk;
    pk.bytes = GeCompress(GeAdd(GeScalarMult(GeBasePoint(), a), torsion));
    const Bytes m = drbg.Generate(16);
    const Scalar r = ScFromBytesModL(drbg.Generate(64));
    const auto r_enc = GeCompress(GeScalarMult(GeBasePoint(), ScToBytes(r)));
    Sha512 h;
    h.Update(ByteSpan(r_enc.data(), 32));
    h.Update(ByteSpan(pk.bytes.data(), 32));
    h.Update(m);
    const Sha512Digest k_hash = h.Finish();
    const Scalar k = ScFromBytesModL(ByteSpan(k_hash.data(), k_hash.size()));
    const auto s = ScToBytes(
        ScMulAdd(k, ScFromBytesModL(ByteSpan(a.data(), 32)), r));
    Signature sig;
    std::memcpy(sig.bytes.data(), r_enc.data(), 32);
    std::memcpy(sig.bytes.data() + 32, s.data(), 32);
    check(pk, m, sig);
  }

  // Seeded keys, each signature checked as signed, with one bit of R,
  // of s or of the message flipped, and under the wrong key.
  for (int i = 0; i < 16; ++i) {
    const KeyPair signer = KeyPair::Generate(drbg);
    const KeyPair other = KeyPair::Generate(drbg);
    Bytes m = drbg.Generate(1 + 13 * i);
    const Signature sig = signer.Sign(m);
    check(signer.public_key(), m, sig);
    check(other.public_key(), m, sig);
    for (const int byte : {i % 32, 32 + i % 32}) {
      Signature tampered = sig;
      tampered.bytes[byte] ^= static_cast<std::uint8_t>(1 << (i % 8));
      check(signer.public_key(), m, tampered);
    }
    m[0] ^= 0x01;
    check(signer.public_key(), m, sig);
  }

  // Both verdicts are exercised.
  EXPECT_GT(accepted, 16);
  EXPECT_LT(accepted, checked);
}

// SHA-256 over 16 seeded public keys and 256 signatures (16 per key,
// messages of 0..255 bytes), recorded from the double-and-add
// implementation. RFC 8032 signatures are deterministic, so any change
// here changes every block hash.
TEST(Ed25519Test, SignatureStreamMatchesParent) {
  Drbg drbg(std::uint64_t{2034});
  Sha256 h;
  for (int key = 0; key < 16; ++key) {
    const KeyPair kp = KeyPair::Generate(drbg);
    h.Update(ByteSpan(kp.public_key().bytes.data(), 32));
    for (int j = 0; j < 16; ++j) {
      const std::size_t len = static_cast<std::size_t>(16 * key + j);
      const Signature sig = kp.Sign(drbg.Generate(len));
      h.Update(ByteSpan(sig.bytes.data(), 64));
    }
  }
  EXPECT_EQ(DigestHex(h.Finish()),
            "ee87c9294889c2d9f2c4a1c6f73c3b06732d174a3dd821253fac3b3eccb8d542");
}

}  // namespace
}  // namespace vegvisir::crypto
