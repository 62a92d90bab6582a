#include <gtest/gtest.h>

#include "chain/dag.h"
#include "chain/genesis.h"
#include "chain/validation.h"
#include "crypto/drbg.h"
#include "csm/membership.h"

namespace vegvisir::chain {
namespace {

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

struct Fixture {
  crypto::KeyPair owner = TestKeys(1);
  crypto::KeyPair alice = TestKeys(2);
  Block genesis =
      GenesisBuilder("val-chain").WithTimestamp(100).Build("owner", owner);
  Dag dag{genesis};
  csm::Membership membership;

  Fixture() {
    // Bootstrap membership from the genesis certificate directly.
    const auto cert =
        Certificate::Deserialize(genesis.transactions()[0].args[0].AsBytes());
    EXPECT_TRUE(membership.Add(*cert, genesis.hash()).ok());
  }

  void EnrollAlice() {
    const Certificate cert =
        IssueCertificate("alice", alice.public_key(), "medic", owner);
    EXPECT_TRUE(membership.Add(cert, genesis.hash()).ok());
  }

  Block MakeBlock(const std::vector<BlockHash>& parents, std::uint64_t ts,
                  const crypto::KeyPair& keys, const std::string& user) {
    BlockHeader h;
    h.user_id = user;
    h.timestamp_ms = ts;
    h.parents = parents;
    return Block::Create(std::move(h), {}, keys);
  }
};

TEST(ValidationTest, ValidBlockAccepted) {
  Fixture f;
  const Block b = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  const auto result = ValidateBlock(b, f.dag, f.membership, 1'000);
  EXPECT_EQ(result.verdict, BlockVerdict::kValid) << result.status.ToString();
}

TEST(ValidationTest, ParentlessBlockRejected) {
  Fixture f;
  const Block fake = GenesisBuilder("x").WithTimestamp(1).Build("owner",
                                                                f.owner);
  const auto result = ValidateBlock(fake, f.dag, f.membership, 1'000);
  EXPECT_EQ(result.verdict, BlockVerdict::kReject);
}

TEST(ValidationTest, MissingParentIsRetryLater) {
  Fixture f;
  BlockHash phantom{};
  phantom.fill(0x66);
  const Block b = f.MakeBlock({phantom}, 200, f.owner, "owner");
  const auto result = ValidateBlock(b, f.dag, f.membership, 1'000);
  EXPECT_EQ(result.verdict, BlockVerdict::kRetryLater);
  EXPECT_EQ(result.status.code(), ErrorCode::kNotFound);
}

TEST(ValidationTest, UnknownCreatorIsRetryLater) {
  Fixture f;  // alice not enrolled
  const Block b = f.MakeBlock({f.genesis.hash()}, 200, f.alice, "alice");
  const auto result = ValidateBlock(b, f.dag, f.membership, 1'000);
  EXPECT_EQ(result.verdict, BlockVerdict::kRetryLater);
  EXPECT_EQ(result.status.code(), ErrorCode::kUnauthenticated);
}

TEST(ValidationTest, ForgedSignatureRejected) {
  Fixture f;
  f.EnrollAlice();
  // Alice's user id, but signed with the wrong key.
  const Block b = f.MakeBlock({f.genesis.hash()}, 200, TestKeys(9), "alice");
  const auto result = ValidateBlock(b, f.dag, f.membership, 1'000);
  EXPECT_EQ(result.verdict, BlockVerdict::kReject);
  EXPECT_EQ(result.status.code(), ErrorCode::kUnauthenticated);
}

TEST(ValidationTest, ImpersonationViaOthersUserIdRejected) {
  Fixture f;
  f.EnrollAlice();
  // Signed by alice's key but claiming to be the owner.
  const Block b = f.MakeBlock({f.genesis.hash()}, 200, f.alice, "owner");
  const auto result = ValidateBlock(b, f.dag, f.membership, 1'000);
  EXPECT_EQ(result.verdict, BlockVerdict::kReject);
}

TEST(ValidationTest, TimestampMustExceedParents) {
  Fixture f;
  // Genesis is at 100; equal and lower timestamps are invalid.
  for (std::uint64_t ts : {100ull, 99ull, 1ull}) {
    const Block b = f.MakeBlock({f.genesis.hash()}, ts, f.owner, "owner");
    const auto result = ValidateBlock(b, f.dag, f.membership, 1'000);
    EXPECT_EQ(result.verdict, BlockVerdict::kReject) << ts;
  }
}

TEST(ValidationTest, FutureTimestampQuarantined) {
  Fixture f;
  const Block b = f.MakeBlock({f.genesis.hash()}, 50'000, f.owner, "owner");
  // Local clock at 1000, default skew 5000: 50000 is "the future".
  const auto result = ValidateBlock(b, f.dag, f.membership, 1'000);
  EXPECT_EQ(result.verdict, BlockVerdict::kRetryLater);
  // Once the local clock catches up, the same block validates.
  const auto later = ValidateBlock(b, f.dag, f.membership, 60'000);
  EXPECT_EQ(later.verdict, BlockVerdict::kValid);
}

TEST(ValidationTest, ClockSkewParameterRespected) {
  Fixture f;
  const Block b = f.MakeBlock({f.genesis.hash()}, 5'500, f.owner, "owner");
  ValidationParams tight;
  tight.max_clock_skew_ms = 100;
  EXPECT_EQ(ValidateBlock(b, f.dag, f.membership, 5'000, tight).verdict,
            BlockVerdict::kRetryLater);
  ValidationParams loose;
  loose.max_clock_skew_ms = 1'000;
  EXPECT_EQ(ValidateBlock(b, f.dag, f.membership, 5'000, loose).verdict,
            BlockVerdict::kValid);
}

TEST(ValidationTest, RevokedCreatorCausalPastRejected) {
  Fixture f;
  f.EnrollAlice();

  // Owner writes a revocation block; alice then builds *on top of it*
  // (the revocation is in her block's causal past): reject.
  const Block rev = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  ASSERT_TRUE(f.dag.Insert(rev).ok());
  const Certificate alice_cert = *f.membership.FindCertificate("alice");
  ASSERT_TRUE(f.membership.Revoke(alice_cert, rev.hash()).ok());

  const Block after = f.MakeBlock({rev.hash()}, 300, f.alice, "alice");
  const auto result = ValidateBlock(after, f.dag, f.membership, 1'000);
  EXPECT_EQ(result.verdict, BlockVerdict::kReject);
  EXPECT_EQ(result.status.code(), ErrorCode::kPermissionDenied);
}

TEST(ValidationTest, RevocationNotInCausalPastDoesNotReject) {
  Fixture f;
  f.EnrollAlice();

  // The revocation lives on a concurrent branch; alice's block from
  // the other branch must stay valid (tamperproofness).
  const Block rev = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  ASSERT_TRUE(f.dag.Insert(rev).ok());
  const Certificate alice_cert = *f.membership.FindCertificate("alice");
  ASSERT_TRUE(f.membership.Revoke(alice_cert, rev.hash()).ok());

  const Block concurrent =
      f.MakeBlock({f.genesis.hash()}, 300, f.alice, "alice");
  const auto result = ValidateBlock(concurrent, f.dag, f.membership, 1'000);
  EXPECT_EQ(result.verdict, BlockVerdict::kValid) << result.status.ToString();
}

// --- batched pre-verification (DESIGN.md §12) ----------------------
// Check 4 may consume a verdict from the BatchVerifier instead of
// re-running Ed25519, but the verdict — and every counter — must be
// identical either way.

TEST(ValidationTest, PresigCachedVerdictAccepted) {
  Fixture f;
  const Block b = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  exec::BatchVerifier presig(nullptr, nullptr);
  presig.Enqueue(MakeVerifyJobs({&b}, f.membership));
  EXPECT_TRUE(presig.Cached(b.hash(), f.owner.public_key()));
  const auto result =
      ValidateBlock(b, f.dag, f.membership, 1'000, {}, &presig);
  EXPECT_EQ(result.verdict, BlockVerdict::kValid) << result.status.ToString();
}

TEST(ValidationTest, PresigCachedForgeryStillRejected) {
  Fixture f;
  f.EnrollAlice();
  // Signed with the wrong key: pre-verification computes `false`, and
  // consuming that cached verdict must reject like the sync path.
  const Block forged = f.MakeBlock({f.genesis.hash()}, 200, TestKeys(9),
                                   "alice");
  exec::BatchVerifier presig(nullptr, nullptr);
  presig.Enqueue(MakeVerifyJobs({&forged}, f.membership));
  const auto result =
      ValidateBlock(forged, f.dag, f.membership, 1'000, {}, &presig);
  EXPECT_EQ(result.verdict, BlockVerdict::kReject);
}

TEST(ValidationTest, PresigKeyMismatchFallsBackToSyncVerify) {
  Fixture f;
  const Block b = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  // An entry verified under a different key (stale enrolment) must be
  // ignored; the synchronous fallback still accepts the block.
  exec::BatchVerifier presig(nullptr, nullptr);
  exec::VerifyJob stale;
  stale.id = b.hash();
  stale.key = TestKeys(9).public_key();
  stale.message = b.SigningPayload();
  stale.signature = b.signature();
  presig.Enqueue({stale});
  const auto result =
      ValidateBlock(b, f.dag, f.membership, 1'000, {}, &presig);
  EXPECT_EQ(result.verdict, BlockVerdict::kValid) << result.status.ToString();
}

// A CA-signed certificate can carry a key that is not a curve point;
// that member's blocks fail check 4 on every path: no verifier, a
// pre-verified verdict, and the verifier's synchronous fallback.
TEST(ValidationTest, UndecodableMemberKeyIsBadSignature) {
  Fixture f;
  crypto::PublicKey bad_key{};
  bad_key.bytes[0] = 0x01;  // y = 1 with the sign bit: x = 0 has none
  bad_key.bytes[31] = 0x80;
  EXPECT_TRUE(f.membership
                  .Add(IssueCertificate("mallory", bad_key, "medic", f.owner),
                       f.genesis.hash())
                  .ok());
  const Block b = f.MakeBlock({f.genesis.hash()}, 200, f.alice, "mallory");
  const auto expect_bad_signature = [](const ValidationResult& result) {
    EXPECT_EQ(result.verdict, BlockVerdict::kReject);
    EXPECT_EQ(result.status.message(), "bad signature on block");
  };
  expect_bad_signature(ValidateBlock(b, f.dag, f.membership, 1'000));

  exec::BatchVerifier presig(nullptr, nullptr);
  presig.Enqueue(MakeVerifyJobs({&b}, f.membership));
  ASSERT_TRUE(presig.Cached(b.hash(), bad_key));
  expect_bad_signature(
      ValidateBlock(b, f.dag, f.membership, 1'000, {}, &presig));

  exec::BatchVerifier fallback(nullptr, nullptr);
  expect_bad_signature(
      ValidateBlock(b, f.dag, f.membership, 1'000, {}, &fallback));
}

TEST(ValidationTest, MakeVerifyJobsSkipsUnknownCreatorsAndCachedBlocks) {
  Fixture f;
  const Block known = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  // alice is not enrolled: no certificate, so no job to build.
  const Block unknown = f.MakeBlock({f.genesis.hash()}, 300, f.alice, "alice");
  exec::BatchVerifier presig(nullptr, nullptr);
  const auto jobs = MakeVerifyJobs({&known, &unknown}, f.membership, &presig);
  ASSERT_EQ(jobs.size(), 1U);
  EXPECT_EQ(jobs[0].id, known.hash());
  presig.Enqueue(jobs);
  // A second sweep over the same stash builds nothing new.
  EXPECT_TRUE(
      MakeVerifyJobs({&known, &unknown}, f.membership, &presig).empty());
}

}  // namespace
}  // namespace vegvisir::chain
