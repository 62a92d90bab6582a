#include "crypto/ed25519.h"

#include <cstring>

#include "crypto/ge25519.h"
#include "crypto/sc25519.h"
#include "crypto/sha512.h"

namespace vegvisir::crypto {
namespace {

// RFC 8032 secret-scalar clamping.
void Clamp(std::array<std::uint8_t, 32>* scalar) {
  (*scalar)[0] &= 0xf8;
  (*scalar)[31] &= 0x7f;
  (*scalar)[31] |= 0x40;
}

struct ExpandedKey {
  std::array<std::uint8_t, 32> scalar;  // clamped a
  std::array<std::uint8_t, 32> prefix;  // nonce-derivation prefix
};

ExpandedKey Expand(const std::array<std::uint8_t, kEd25519SeedSize>& seed) {
  const Sha512Digest h = Sha512::Hash(ByteSpan(seed.data(), seed.size()));
  ExpandedKey out;
  std::memcpy(out.scalar.data(), h.data(), 32);
  std::memcpy(out.prefix.data(), h.data() + 32, 32);
  Clamp(&out.scalar);
  return out;
}

}  // namespace

KeyPair KeyPair::FromSeed(
    const std::array<std::uint8_t, kEd25519SeedSize>& seed) {
  KeyPair kp;
  kp.seed_ = seed;
  const ExpandedKey ek = Expand(seed);
  kp.public_key_.bytes = GeCompress(GeScalarMultBase(ek.scalar));
  return kp;
}

KeyPair KeyPair::Generate(Drbg& drbg) {
  std::array<std::uint8_t, kEd25519SeedSize> seed;
  drbg.Generate(seed.data(), seed.size());
  return FromSeed(seed);
}

Signature KeyPair::Sign(ByteSpan message) const {
  const ExpandedKey ek = Expand(seed_);

  // r = SHA-512(prefix || M) mod L;  R = [r]B.
  Sha512 h;
  h.Update(ByteSpan(ek.prefix.data(), ek.prefix.size()));
  h.Update(message);
  const Sha512Digest r_hash = h.Finish();
  const Scalar r = ScFromBytesModL(ByteSpan(r_hash.data(), r_hash.size()));
  const auto r_enc = GeCompress(GeScalarMultBase(ScToBytes(r)));

  // k = SHA-512(enc(R) || enc(A) || M) mod L.
  Sha512 h2;
  h2.Update(ByteSpan(r_enc.data(), r_enc.size()));
  h2.Update(ByteSpan(public_key_.bytes.data(), public_key_.bytes.size()));
  h2.Update(message);
  const Sha512Digest k_hash = h2.Finish();
  const Scalar k = ScFromBytesModL(ByteSpan(k_hash.data(), k_hash.size()));

  // s = (r + k * a) mod L.
  const Scalar a = ScFromBytesModL(ByteSpan(ek.scalar.data(), 32));
  const Scalar s = ScMulAdd(k, a, r);
  const auto s_enc = ScToBytes(s);

  Signature sig;
  std::memcpy(sig.bytes.data(), r_enc.data(), 32);
  std::memcpy(sig.bytes.data() + 32, s_enc.data(), 32);
  return sig;
}

namespace {

// The part of RFC 8032 §5.1.7 both verifiers share once A has
// decompressed: s must be canonical and R must decompress, and the
// signature holds iff [s]B == R + [k]A, checked as
// `mult(k, s)` = [k](-A) + [s]B == R by projective equality.
template <typename Mult>
bool VerifyWithNegA(const PublicKey& public_key, ByteSpan message,
                    const Signature& signature, const Mult& mult) {
  const ByteSpan r_enc(signature.bytes.data(), 32);
  const ByteSpan s_enc(signature.bytes.data() + 32, 32);

  if (!ScIsCanonical(s_enc)) return false;
  const auto r_point = GeDecompress(r_enc);
  if (!r_point) return false;

  // k = SHA-512(enc(R) || enc(A) || M) mod L.
  Sha512 h;
  h.Update(r_enc);
  h.Update(ByteSpan(public_key.bytes.data(), public_key.bytes.size()));
  h.Update(message);
  const Sha512Digest k_hash = h.Finish();
  const Scalar k = ScFromBytesModL(ByteSpan(k_hash.data(), k_hash.size()));

  std::array<std::uint8_t, 32> s_bytes;
  std::memcpy(s_bytes.data(), s_enc.data(), 32);
  return GeEqual(mult(ScToBytes(k), s_bytes), *r_point);
}

}  // namespace

bool Verify(const PublicKey& public_key, ByteSpan message,
            const Signature& signature) {
  const auto a_point =
      GeDecompress(ByteSpan(public_key.bytes.data(), public_key.bytes.size()));
  if (!a_point) return false;
  const GePoint neg_a = GeNeg(*a_point);
  return VerifyWithNegA(public_key, message, signature,
                        [&neg_a](const auto& k, const auto& s) {
                          return GeDoubleScalarMultBase(k, neg_a, s);
                        });
}

VerifyingKey::VerifyingKey(const PublicKey& public_key)
    : public_key_(public_key) {
  const auto a_point =
      GeDecompress(ByteSpan(public_key.bytes.data(), public_key.bytes.size()));
  if (a_point) neg_a_ = GePrepare(GeNeg(*a_point));
}

bool VerifyingKey::Verify(ByteSpan message, const Signature& signature) const {
  if (!neg_a_) return false;
  return VerifyWithNegA(public_key_, message, signature,
                        [this](const auto& k, const auto& s) {
                          return GeDoubleScalarMultBase(k, *neg_a_, s);
                        });
}

}  // namespace vegvisir::crypto
