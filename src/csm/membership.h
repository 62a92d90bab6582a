// The membership set U (paper §IV-D, §IV-F).
//
// U is a 2P-set of public key certificates: enrolments are adds,
// revocations are adds to the remove set. This class materializes the
// set with an index by user id and implements the MembershipView the
// block validator consumes. The first certificate added (from the
// genesis block) defines the chain's certificate authority.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "chain/certificate.h"
#include "chain/types.h"
#include "chain/validation.h"
#include "crypto/ed25519.h"
#include "util/status.h"

namespace vegvisir::csm {

class Membership final : public chain::MembershipView {
 public:
  Membership() = default;

  // Adds a certificate (an element of U's add set). The first call
  // bootstraps the CA: the certificate must be self-signed; later
  // calls require a valid CA signature. Idempotent. `source_block`
  // is the block whose transaction carried the add.
  Status Add(const chain::Certificate& cert,
             const chain::BlockHash& source_block);

  // Revokes a certificate (an element of U's remove set). Permanent;
  // idempotent. `source_block` is recorded for causal-past checks.
  Status Revoke(const chain::Certificate& cert,
                const chain::BlockHash& source_block);

  // MembershipView:
  const chain::Certificate* FindCertificate(
      const std::string& user_id) const override;
  bool IsRevoked(const std::string& user_id) const override;
  std::vector<chain::BlockHash> RevocationBlocksOf(
      const std::string& user_id) const override;

  // The role recorded in a user's certificate ("" if unknown).
  std::string RoleOf(const std::string& user_id) const;

  // Live members: enrolled and not revoked (|A \ R|).
  std::size_t LiveCount() const;

  bool ca_known() const { return ca_public_key_.has_value(); }
  const crypto::PublicKey& ca_public_key() const { return *ca_public_key_; }

  // Canonical digest for convergence checks.
  Bytes StateFingerprint() const;

  // Full-state serialization for CSM snapshots (round-trips, unlike
  // the fingerprint).
  void EncodeState(serial::Writer* w) const;
  Status DecodeState(serial::Reader* r);

 private:
  struct Record {
    chain::Certificate cert;
    bool revoked = false;
    std::vector<chain::BlockHash> revocation_blocks;
  };

  std::optional<crypto::PublicKey> ca_public_key_;
  std::map<std::string, Record> by_user_;  // sorted for fingerprints
};

}  // namespace vegvisir::csm
