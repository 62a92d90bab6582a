// Ed25519 signatures (RFC 8032), built on fe25519/sc25519/ge25519.
//
// Every Vegvisir block and certificate carries one of these
// signatures; the implementation is validated against the RFC 8032
// test vectors in tests/crypto_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/drbg.h"
#include "crypto/ge25519.h"
#include "util/bytes.h"

namespace vegvisir::crypto {

inline constexpr std::size_t kEd25519SeedSize = 32;
inline constexpr std::size_t kEd25519PublicKeySize = 32;
inline constexpr std::size_t kEd25519SignatureSize = 64;

struct PublicKey {
  std::array<std::uint8_t, kEd25519PublicKeySize> bytes;

  auto operator<=>(const PublicKey&) const = default;
};

struct Signature {
  std::array<std::uint8_t, kEd25519SignatureSize> bytes;

  auto operator<=>(const Signature&) const = default;
};

// A signing key. Only the 32-byte seed is secret; the expanded scalar
// is derived on demand (signing is rare compared to verification).
class KeyPair {
 public:
  // Derives the key pair from a 32-byte seed (RFC 8032 §5.1.5).
  static KeyPair FromSeed(const std::array<std::uint8_t, kEd25519SeedSize>& seed);

  // Draws a fresh seed from the DRBG.
  static KeyPair Generate(Drbg& drbg);

  const PublicKey& public_key() const { return public_key_; }
  const std::array<std::uint8_t, kEd25519SeedSize>& seed() const {
    return seed_;
  }

  // Deterministic signature over `message` (RFC 8032 §5.1.6).
  Signature Sign(ByteSpan message) const;

 private:
  KeyPair() = default;

  std::array<std::uint8_t, kEd25519SeedSize> seed_;
  PublicKey public_key_;
};

// Signature verification (RFC 8032 §5.1.7): checks canonical s,
// decompresses A and R, and tests the cofactorless [s]B == R + [k]A,
// computed as [k](-A) + [s]B in one joint loop and compared with R by
// projective equality.
bool Verify(const PublicKey& public_key, ByteSpan message,
            const Signature& signature);

// A public key prepared for verifying many signatures: A is
// decompressed and -A tabled once (GePrepare: about 15 KB and the cost
// of a few verifies), after which each Verify runs the half-length
// loop. Its verdicts are exactly crypto::Verify's under the same key,
// down to false for every signature when A is not a curve point.
class VerifyingKey {
 public:
  explicit VerifyingKey(const PublicKey& public_key);

  bool Verify(ByteSpan message, const Signature& signature) const;

 private:
  PublicKey public_key_;
  std::optional<GePrepared> neg_a_;  // empty when A does not decompress
};

}  // namespace vegvisir::crypto
