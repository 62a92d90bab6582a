#include "csm/membership.h"

#include <algorithm>

#include "serial/codec.h"
#include "serial/limits.h"

namespace vegvisir::csm {

Status Membership::Add(const chain::Certificate& cert,
                       const chain::BlockHash& source_block) {
  (void)source_block;
  if (!ca_public_key_.has_value()) {
    // Bootstrap: the genesis certificate is self-signed by the owner,
    // who becomes the CA.
    if (!chain::VerifyCertificate(cert, cert.public_key)) {
      return UnauthenticatedError("genesis certificate not self-signed");
    }
    ca_public_key_ = cert.public_key;
  } else if (!chain::VerifyCertificate(cert, *ca_public_key_)) {
    return UnauthenticatedError("certificate not signed by chain CA");
  }

  const auto it = by_user_.find(cert.user_id);
  if (it != by_user_.end()) {
    // Two different CA-signed certificates for one user id should not
    // happen, but replicas must converge even if it does: keep the
    // lexicographically smallest serialization (a deterministic,
    // order-independent winner). Revocation state is preserved.
    if (!(it->second.cert == cert) &&
        cert.Serialize() < it->second.cert.Serialize()) {
      it->second.cert = cert;
    }
    return Status::Ok();
  }
  by_user_.emplace(cert.user_id, Record{cert, false, {}});
  return Status::Ok();
}

Status Membership::Revoke(const chain::Certificate& cert,
                          const chain::BlockHash& source_block) {
  const auto it = by_user_.find(cert.user_id);
  if (it == by_user_.end()) {
    // A revocation may arrive before the enrolment (2P-set semantics:
    // the remove stands on its own). Record it so the enrolment, when
    // it arrives, is immediately dead.
    Record rec;
    rec.cert = cert;
    rec.revoked = true;
    rec.revocation_blocks.push_back(source_block);
    by_user_.emplace(cert.user_id, std::move(rec));
    return Status::Ok();
  }
  Record& rec = it->second;
  rec.revoked = true;
  if (std::find(rec.revocation_blocks.begin(), rec.revocation_blocks.end(),
                source_block) == rec.revocation_blocks.end()) {
    rec.revocation_blocks.push_back(source_block);
  }
  return Status::Ok();
}

const chain::Certificate* Membership::FindCertificate(
    const std::string& user_id) const {
  const auto it = by_user_.find(user_id);
  if (it == by_user_.end()) return nullptr;
  return &it->second.cert;
}

bool Membership::IsRevoked(const std::string& user_id) const {
  const auto it = by_user_.find(user_id);
  return it != by_user_.end() && it->second.revoked;
}

std::vector<chain::BlockHash> Membership::RevocationBlocksOf(
    const std::string& user_id) const {
  const auto it = by_user_.find(user_id);
  if (it == by_user_.end()) return {};
  return it->second.revocation_blocks;
}

std::string Membership::RoleOf(const std::string& user_id) const {
  const auto it = by_user_.find(user_id);
  return it == by_user_.end() ? "" : it->second.cert.role;
}

std::size_t Membership::LiveCount() const {
  std::size_t n = 0;
  for (const auto& [user, rec] : by_user_) {
    if (!rec.revoked) ++n;
  }
  return n;
}

void Membership::EncodeState(serial::Writer* w) const {
  w->WriteBool(ca_public_key_.has_value());
  if (ca_public_key_.has_value()) w->WriteFixed(ca_public_key_->bytes);
  w->WriteVarint(by_user_.size());
  for (const auto& [user, rec] : by_user_) {
    w->WriteString(user);
    rec.cert.Encode(w);
    w->WriteBool(rec.revoked);
    w->WriteVarint(rec.revocation_blocks.size());
    for (const chain::BlockHash& h : rec.revocation_blocks) w->WriteFixed(h);
  }
}

Status Membership::DecodeState(serial::Reader* r) {
  bool has_ca;
  VEGVISIR_RETURN_IF_ERROR(r->ReadBool(&has_ca));
  if (has_ca) {
    crypto::PublicKey ca;
    VEGVISIR_RETURN_IF_ERROR(r->ReadFixed(&ca.bytes));
    ca_public_key_ = ca;
  } else {
    ca_public_key_.reset();
  }
  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r->ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxMembers, r->remaining(), 1, "member"));
  by_user_.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string user;
    VEGVISIR_RETURN_IF_ERROR(r->ReadString(&user));
    Record rec;
    VEGVISIR_RETURN_IF_ERROR(chain::Certificate::Decode(r, &rec.cert));
    VEGVISIR_RETURN_IF_ERROR(r->ReadBool(&rec.revoked));
    std::uint64_t rev_count;
    VEGVISIR_RETURN_IF_ERROR(r->ReadVarint(&rev_count));
    VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
        rev_count, serial::limits::kMaxRevocationBlocks, r->remaining(),
        sizeof(chain::BlockHash), "revocation"));
    for (std::uint64_t j = 0; j < rev_count; ++j) {
      chain::BlockHash h;
      VEGVISIR_RETURN_IF_ERROR(r->ReadFixed(&h));
      rec.revocation_blocks.push_back(h);
    }
    by_user_.emplace(std::move(user), std::move(rec));
  }
  return Status::Ok();
}

Bytes Membership::StateFingerprint() const {
  serial::Writer w;
  w.WriteString("membership");
  w.WriteVarint(by_user_.size());
  for (const auto& [user, rec] : by_user_) {
    w.WriteString(user);
    w.WriteBytes(rec.cert.Serialize());
    w.WriteBool(rec.revoked);
  }
  return w.Take();
}

}  // namespace vegvisir::csm
