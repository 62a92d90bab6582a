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

bool Verify(const PublicKey& public_key, ByteSpan message,
            const Signature& signature) {
  const ByteSpan r_enc(signature.bytes.data(), 32);
  const ByteSpan s_enc(signature.bytes.data() + 32, 32);

  if (!ScIsCanonical(s_enc)) return false;

  const auto a_point =
      GeDecompress(ByteSpan(public_key.bytes.data(), public_key.bytes.size()));
  if (!a_point) return false;
  const auto r_point = GeDecompress(r_enc);
  if (!r_point) return false;

  // k = SHA-512(enc(R) || enc(A) || M) mod L.
  Sha512 h;
  h.Update(r_enc);
  h.Update(ByteSpan(public_key.bytes.data(), public_key.bytes.size()));
  h.Update(message);
  const Sha512Digest k_hash = h.Finish();
  const Scalar k = ScFromBytesModL(ByteSpan(k_hash.data(), k_hash.size()));

  // Accept iff [s]B == R + [k]A, checked as [k](-A) + [s]B == R.
  std::array<std::uint8_t, 32> s_bytes;
  std::memcpy(s_bytes.data(), s_enc.data(), 32);
  const GePoint check =
      GeDoubleScalarMultBase(ScToBytes(k), GeNeg(*a_point), s_bytes);
  return GeEqual(check, *r_point);
}

}  // namespace vegvisir::crypto
