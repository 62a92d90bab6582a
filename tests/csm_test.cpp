#include <gtest/gtest.h>

#include <algorithm>

#include "chain/genesis.h"
#include "crdt/counters.h"
#include "crdt/sets.h"
#include "crypto/drbg.h"
#include "csm/acl.h"
#include "csm/membership.h"
#include "csm/state_machine.h"

namespace vegvisir::csm {
namespace {

using chain::Block;
using chain::BlockHash;
using chain::BlockHeader;
using chain::Certificate;
using chain::Transaction;

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

// ------------------------------------------------------------------- ACL

TEST(AclPolicyTest, EmptyPolicyDeniesAll) {
  AclPolicy p;
  EXPECT_FALSE(p.IsAllowed("medic", "add"));
}

TEST(AclPolicyTest, AllowAllPermitsEverything) {
  const AclPolicy p = AclPolicy::AllowAll();
  EXPECT_TRUE(p.IsAllowed("medic", "add"));
  EXPECT_TRUE(p.IsAllowed("", "anything"));
}

TEST(AclPolicyTest, RoleSpecificGrants) {
  AclPolicy p;
  p.Allow("medic", "add");
  EXPECT_TRUE(p.IsAllowed("medic", "add"));
  EXPECT_FALSE(p.IsAllowed("medic", "remove"));
  EXPECT_FALSE(p.IsAllowed("auditor", "add"));
}

TEST(AclPolicyTest, WildcardRoleAndOp) {
  AclPolicy p;
  p.Allow("*", "read");
  p.Allow("owner", "*");
  EXPECT_TRUE(p.IsAllowed("anyone", "read"));
  EXPECT_TRUE(p.IsAllowed("owner", "whatever"));
  EXPECT_FALSE(p.IsAllowed("anyone", "write"));
}

TEST(AclPolicyTest, SerializeParseRoundTrip) {
  AclPolicy p;
  p.Allow("medic", "add").Allow("medic", "remove").Allow("*", "read");
  const auto parsed = AclPolicy::Parse(p.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, p);
}

TEST(AclPolicyTest, ParseRejectsMalformed) {
  EXPECT_FALSE(AclPolicy::Parse("no-colon").ok());
  EXPECT_FALSE(AclPolicy::Parse("role:").ok());
  EXPECT_FALSE(AclPolicy::Parse(":op").ok());
  EXPECT_FALSE(AclPolicy::Parse("role:a,,b").ok());
}

TEST(AclPolicyTest, ParseEmptyIsEmptyPolicy) {
  const auto parsed = AclPolicy::Parse("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

// ------------------------------------------------------------ Membership

class MembershipTest : public ::testing::Test {
 protected:
  crypto::KeyPair owner_ = TestKeys(1);
  crypto::KeyPair alice_ = TestKeys(2);
  Membership membership_;
  BlockHash src_{};

  Certificate OwnerCert() {
    return chain::IssueCertificate("owner", owner_.public_key(),
                                   chain::kOwnerRole, owner_);
  }
  Certificate AliceCert(const std::string& role = "medic") {
    return chain::IssueCertificate("alice", alice_.public_key(), role, owner_);
  }
};

TEST_F(MembershipTest, BootstrapsCaFromSelfSignedCert) {
  EXPECT_FALSE(membership_.ca_known());
  ASSERT_TRUE(membership_.Add(OwnerCert(), src_).ok());
  EXPECT_TRUE(membership_.ca_known());
  EXPECT_EQ(membership_.RoleOf("owner"), chain::kOwnerRole);
}

TEST_F(MembershipTest, RejectsNonSelfSignedBootstrap) {
  // Alice's cert is owner-signed, not self-signed: cannot bootstrap.
  EXPECT_FALSE(membership_.Add(AliceCert(), src_).ok());
}

TEST_F(MembershipTest, RejectsCertNotSignedByCa) {
  ASSERT_TRUE(membership_.Add(OwnerCert(), src_).ok());
  const crypto::KeyPair rogue = TestKeys(9);
  const Certificate bad =
      chain::IssueCertificate("eve", TestKeys(10).public_key(), "medic",
                              rogue);
  EXPECT_FALSE(membership_.Add(bad, src_).ok());
}

TEST_F(MembershipTest, EnrollAndRevoke) {
  ASSERT_TRUE(membership_.Add(OwnerCert(), src_).ok());
  ASSERT_TRUE(membership_.Add(AliceCert(), src_).ok());
  EXPECT_EQ(membership_.LiveCount(), 2u);
  EXPECT_FALSE(membership_.IsRevoked("alice"));

  BlockHash rev{};
  rev.fill(7);
  ASSERT_TRUE(membership_.Revoke(AliceCert(), rev).ok());
  EXPECT_TRUE(membership_.IsRevoked("alice"));
  EXPECT_EQ(membership_.LiveCount(), 1u);
  EXPECT_EQ(membership_.RevocationBlocksOf("alice"),
            std::vector<BlockHash>{rev});
  // The certificate stays findable (validation of old blocks needs it).
  EXPECT_NE(membership_.FindCertificate("alice"), nullptr);
}

TEST_F(MembershipTest, RevokeBeforeAddIsPermanent) {
  ASSERT_TRUE(membership_.Add(OwnerCert(), src_).ok());
  BlockHash rev{};
  rev.fill(7);
  ASSERT_TRUE(membership_.Revoke(AliceCert(), rev).ok());
  ASSERT_TRUE(membership_.Add(AliceCert(), src_).ok());
  EXPECT_TRUE(membership_.IsRevoked("alice"));  // 2P-set: remove wins
}

TEST_F(MembershipTest, IdempotentAdds) {
  ASSERT_TRUE(membership_.Add(OwnerCert(), src_).ok());
  ASSERT_TRUE(membership_.Add(AliceCert(), src_).ok());
  ASSERT_TRUE(membership_.Add(AliceCert(), src_).ok());
  EXPECT_EQ(membership_.LiveCount(), 2u);
}

TEST_F(MembershipTest, FingerprintOrderIndependent) {
  Membership a, b;
  ASSERT_TRUE(a.Add(OwnerCert(), src_).ok());
  ASSERT_TRUE(a.Add(AliceCert(), src_).ok());
  ASSERT_TRUE(b.Add(OwnerCert(), src_).ok());
  ASSERT_TRUE(b.Add(AliceCert(), src_).ok());
  EXPECT_EQ(a.StateFingerprint(), b.StateFingerprint());
  BlockHash rev{};
  ASSERT_TRUE(a.Revoke(AliceCert(), rev).ok());
  EXPECT_NE(a.StateFingerprint(), b.StateFingerprint());
}

// ---------------------------------------------------------- StateMachine

class StateMachineTest : public ::testing::Test {
 protected:
  StateMachineTest()
      : genesis_(chain::GenesisBuilder("sm-chain")
                     .WithTimestamp(100)
                     .Build("owner", owner_)) {
    sm_.ApplyBlock(genesis_);
    last_ = genesis_.hash();
    next_ts_ = 200;
  }

  // Appends a single-tx block by `keys`/`user` on top of the last one.
  Block Append(Transaction tx, const crypto::KeyPair& keys,
               const std::string& user) {
    BlockHeader h;
    h.user_id = user;
    h.timestamp_ms = next_ts_++;
    h.parents = {last_};
    Block b = Block::Create(std::move(h), {std::move(tx)}, keys);
    last_ = b.hash();
    sm_.ApplyBlock(b);
    return b;
  }

  Certificate MakeCert(const std::string& user, const crypto::KeyPair& keys,
                       const std::string& role) {
    return chain::IssueCertificate(user, keys.public_key(), role, owner_);
  }

  crypto::KeyPair owner_ = TestKeys(1);
  crypto::KeyPair alice_ = TestKeys(2);
  crypto::KeyPair bob_ = TestKeys(3);
  StateMachine sm_;
  Block genesis_;
  BlockHash last_;
  std::uint64_t next_ts_ = 200;
};

TEST_F(StateMachineTest, GenesisBootstrapsEverything) {
  EXPECT_TRUE(sm_.membership().ca_known());
  EXPECT_EQ(sm_.membership().RoleOf("owner"), chain::kOwnerRole);
  EXPECT_EQ(sm_.ChainName(), "sm-chain");
  EXPECT_EQ(sm_.telemetry()->metrics.CounterValue("csm.applied_blocks"), 1u);
  EXPECT_EQ(sm_.telemetry()->metrics.CounterValue("csm.rejected_txns"), 0u);
}

TEST_F(StateMachineTest, ApplyBlockIsIdempotent) {
  sm_.ApplyBlock(genesis_);
  EXPECT_EQ(sm_.telemetry()->metrics.CounterValue("csm.applied_blocks"), 1u);
}

TEST_F(StateMachineTest, EnrollmentViaBlock) {
  Append(StateMachine::MakeAddUserTx(MakeCert("alice", alice_, "medic")),
         owner_, "owner");
  EXPECT_EQ(sm_.membership().RoleOf("alice"), "medic");
}

TEST_F(StateMachineTest, RevocationRequiresRevokerRole) {
  Append(StateMachine::MakeAddUserTx(MakeCert("alice", alice_, "medic")),
         owner_, "owner");
  Append(StateMachine::MakeAddUserTx(MakeCert("bob", bob_, "medic")), owner_,
         "owner");
  // Alice (role medic) tries to revoke bob: rejected.
  Append(StateMachine::MakeRevokeUserTx(*sm_.membership().FindCertificate(
             "bob")),
         alice_, "alice");
  EXPECT_FALSE(sm_.membership().IsRevoked("bob"));
  EXPECT_GT(sm_.telemetry()->metrics.CounterValue("csm.rejected_txns"), 0u);
  // The owner can.
  Append(StateMachine::MakeRevokeUserTx(*sm_.membership().FindCertificate(
             "bob")),
         owner_, "owner");
  EXPECT_TRUE(sm_.membership().IsRevoked("bob"));
}

TEST_F(StateMachineTest, MetaWritableByOwnerOnly) {
  Append(StateMachine::MakeAddUserTx(MakeCert("alice", alice_, "medic")),
         owner_, "owner");
  Append(StateMachine::MakeMetaPutTx("region", "ithaca"), owner_, "owner");
  EXPECT_EQ(sm_.meta().Get("region")->AsStr(), "ithaca");
  Append(StateMachine::MakeMetaPutTx("region", "hacked"), alice_, "alice");
  EXPECT_EQ(sm_.meta().Get("region")->AsStr(), "ithaca");
}

TEST_F(StateMachineTest, CreateAndUseCrdt) {
  AclPolicy policy;
  policy.Allow("medic", "add");
  Append(StateMachine::MakeCreateTx("H", crdt::CrdtType::kGSet,
                                    crdt::ValueType::kStr, policy),
         owner_, "owner");
  ASSERT_NE(sm_.FindCrdt("H"), nullptr);
  EXPECT_EQ(sm_.FindCrdt("H")->type(), crdt::CrdtType::kGSet);
  ASSERT_NE(sm_.PolicyOf("H"), nullptr);

  Append(StateMachine::MakeAddUserTx(MakeCert("alice", alice_, "medic")),
         owner_, "owner");
  Transaction add;
  add.crdt_name = "H";
  add.op = "add";
  add.args = {crdt::Value::OfStr("record-123")};
  Append(add, alice_, "alice");

  const auto* h = sm_.FindCrdtAs<crdt::GSet>("H");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->Contains(crdt::Value::OfStr("record-123")));
}

TEST_F(StateMachineTest, PermissionDeniedOpIsRejected) {
  AclPolicy policy;
  policy.Allow("medic", "add");
  Append(StateMachine::MakeCreateTx("H", crdt::CrdtType::kGSet,
                                    crdt::ValueType::kStr, policy),
         owner_, "owner");
  Append(StateMachine::MakeAddUserTx(MakeCert("bob", bob_, "auditor")),
         owner_, "owner");
  Transaction add;
  add.crdt_name = "H";
  add.op = "add";
  add.args = {crdt::Value::OfStr("sneaky")};
  Append(add, bob_, "bob");
  EXPECT_FALSE(sm_.FindCrdtAs<crdt::GSet>("H")->Contains(
      crdt::Value::OfStr("sneaky")));
  EXPECT_GT(sm_.telemetry()->metrics.CounterValue("csm.rejected_txns"), 0u);
}

TEST_F(StateMachineTest, TypeErrorRejectedDeterministically) {
  Append(StateMachine::MakeCreateTx("S", crdt::CrdtType::kGSet,
                                    crdt::ValueType::kStr,
                                    AclPolicy::AllowAll()),
         owner_, "owner");
  Transaction bad;
  bad.crdt_name = "S";
  bad.op = "add";
  bad.args = {crdt::Value::OfInt(42)};  // int into a set of strings
  Append(bad, owner_, "owner");
  EXPECT_EQ(sm_.FindCrdtAs<crdt::GSet>("S")->Size(), 0u);
  EXPECT_GT(sm_.telemetry()->metrics.CounterValue("csm.rejected_txns"), 0u);
}

TEST_F(StateMachineTest, ReservedNamesCannotBeCreated) {
  Append(StateMachine::MakeCreateTx("__evil__", crdt::CrdtType::kGSet,
                                    crdt::ValueType::kStr,
                                    AclPolicy::AllowAll()),
         owner_, "owner");
  EXPECT_EQ(sm_.FindCrdt("__evil__"), nullptr);
  EXPECT_GT(sm_.telemetry()->metrics.CounterValue("csm.rejected_txns"), 0u);
}

TEST_F(StateMachineTest, OpBeforeCreateIsParkedThenApplied) {
  // Two state machines apply the same two blocks in opposite orders;
  // both must converge.
  Transaction create = StateMachine::MakeCreateTx(
      "C", crdt::CrdtType::kGCounter, crdt::ValueType::kInt,
      AclPolicy::AllowAll());
  Transaction inc;
  inc.crdt_name = "C";
  inc.op = "inc";
  inc.args = {crdt::Value::OfInt(5)};

  // Build two *concurrent* blocks on the genesis.
  BlockHeader h1;
  h1.user_id = "owner";
  h1.timestamp_ms = 200;
  h1.parents = {genesis_.hash()};
  const Block create_block = Block::Create(std::move(h1), {create}, owner_);
  BlockHeader h2;
  h2.user_id = "owner";
  h2.timestamp_ms = 201;
  h2.parents = {genesis_.hash()};
  const Block inc_block = Block::Create(std::move(h2), {inc}, owner_);

  StateMachine sm1, sm2;
  sm1.ApplyBlock(genesis_);
  sm2.ApplyBlock(genesis_);
  sm1.ApplyBlock(create_block);
  sm1.ApplyBlock(inc_block);
  sm2.ApplyBlock(inc_block);  // op arrives before the create
  EXPECT_EQ(sm2.PendingOpCount(), 1u);
  sm2.ApplyBlock(create_block);
  EXPECT_EQ(sm2.PendingOpCount(), 0u);

  EXPECT_EQ(sm1.FindCrdtAs<crdt::GCounter>("C")->Value(), 5);
  EXPECT_EQ(sm2.FindCrdtAs<crdt::GCounter>("C")->Value(), 5);
  EXPECT_EQ(sm1.StateFingerprint(), sm2.StateFingerprint());
}

TEST_F(StateMachineTest, CreateNameRaceResolvesDeterministically) {
  // Two concurrent creates for the same name with different types.
  Transaction create_set = StateMachine::MakeCreateTx(
      "X", crdt::CrdtType::kGSet, crdt::ValueType::kStr,
      AclPolicy::AllowAll());
  Transaction create_counter = StateMachine::MakeCreateTx(
      "X", crdt::CrdtType::kGCounter, crdt::ValueType::kInt,
      AclPolicy::AllowAll());

  BlockHeader h1;
  h1.user_id = "owner";
  h1.timestamp_ms = 200;
  h1.parents = {genesis_.hash()};
  const Block b1 = Block::Create(std::move(h1), {create_set}, owner_);
  BlockHeader h2;
  h2.user_id = "owner";
  h2.timestamp_ms = 201;
  h2.parents = {genesis_.hash()};
  const Block b2 = Block::Create(std::move(h2), {create_counter}, owner_);

  StateMachine sm1, sm2;
  sm1.ApplyBlock(genesis_);
  sm2.ApplyBlock(genesis_);
  sm1.ApplyBlock(b1);
  sm1.ApplyBlock(b2);
  sm2.ApplyBlock(b2);
  sm2.ApplyBlock(b1);

  ASSERT_NE(sm1.FindCrdt("X"), nullptr);
  ASSERT_NE(sm2.FindCrdt("X"), nullptr);
  EXPECT_EQ(sm1.FindCrdt("X")->type(), sm2.FindCrdt("X")->type());
  EXPECT_EQ(sm1.StateFingerprint(), sm2.StateFingerprint());
  EXPECT_GT(sm1.telemetry()->metrics.CounterValue("csm.duplicate_creates"), 0u);
}

TEST_F(StateMachineTest, NonMemberCannotCreateCrdt) {
  // Eve has a CA-signed cert? No — she is simply unknown.
  const crypto::KeyPair eve = TestKeys(66);
  Transaction create = StateMachine::MakeCreateTx(
      "E", crdt::CrdtType::kGSet, crdt::ValueType::kStr,
      AclPolicy::AllowAll());
  // Force-apply a block by eve (the chain layer would quarantine it,
  // but the CSM must still hold its own even if fed directly).
  BlockHeader h;
  h.user_id = "eve";
  h.timestamp_ms = 500;
  h.parents = {genesis_.hash()};
  sm_.ApplyBlock(Block::Create(std::move(h), {create}, eve));
  EXPECT_EQ(sm_.FindCrdt("E"), nullptr);
}

TEST_F(StateMachineTest, CreatorRolesRestrictionEnforced) {
  StateMachineConfig cfg;
  cfg.creator_roles = {"owner"};
  StateMachine restricted(cfg);
  restricted.ApplyBlock(genesis_);

  BlockHeader h;
  h.user_id = "owner";
  h.timestamp_ms = 200;
  h.parents = {genesis_.hash()};
  Block enrol = Block::Create(
      std::move(h),
      {StateMachine::MakeAddUserTx(MakeCert("alice", alice_, "medic"))},
      owner_);
  restricted.ApplyBlock(enrol);

  BlockHeader h2;
  h2.user_id = "alice";
  h2.timestamp_ms = 300;
  h2.parents = {enrol.hash()};
  restricted.ApplyBlock(Block::Create(
      std::move(h2),
      {StateMachine::MakeCreateTx("A", crdt::CrdtType::kGSet,
                                  crdt::ValueType::kStr,
                                  AclPolicy::AllowAll())},
      alice_));
  EXPECT_EQ(restricted.FindCrdt("A"), nullptr);  // medics may not create
}

TEST_F(StateMachineTest, SnapshotRoundTripsFullState) {
  Append(StateMachine::MakeAddUserTx(MakeCert("alice", alice_, "medic")),
         owner_, "owner");
  Append(StateMachine::MakeCreateTx("H", crdt::CrdtType::kGSet,
                                    crdt::ValueType::kStr,
                                    AclPolicy::AllowAll()),
         owner_, "owner");
  Transaction add;
  add.crdt_name = "H";
  add.op = "add";
  add.args = {crdt::Value::OfStr("record-9")};
  Append(add, alice_, "alice");

  const Bytes snapshot = sm_.SaveSnapshot();
  StateMachine restored;
  ASSERT_TRUE(restored.LoadSnapshot(snapshot).ok());
  EXPECT_EQ(restored.StateFingerprint(), sm_.StateFingerprint());
  EXPECT_EQ(restored.ChainName(), "sm-chain");
  EXPECT_EQ(restored.membership().RoleOf("alice"), "medic");
  EXPECT_TRUE(restored.FindCrdtAs<crdt::GSet>("H")->Contains(
      crdt::Value::OfStr("record-9")));
  // Applied-block tracking survives: re-applying an old block is a
  // no-op on the restored machine too.
  EXPECT_TRUE(restored.HasApplied(genesis_.hash()));
}

TEST_F(StateMachineTest, RestoredMachineContinuesIdentically) {
  Append(StateMachine::MakeCreateTx("C", crdt::CrdtType::kGCounter,
                                    crdt::ValueType::kInt,
                                    AclPolicy::AllowAll()),
         owner_, "owner");
  StateMachine restored;
  ASSERT_TRUE(restored.LoadSnapshot(sm_.SaveSnapshot()).ok());

  // The same next block applied to both produces identical states.
  Transaction inc;
  inc.crdt_name = "C";
  inc.op = "inc";
  inc.args = {crdt::Value::OfInt(4)};
  BlockHeader h;
  h.user_id = "owner";
  h.timestamp_ms = next_ts_;
  h.parents = {last_};
  const Block next = Block::Create(std::move(h), {inc}, owner_);
  sm_.ApplyBlock(next);
  restored.ApplyBlock(next);
  EXPECT_EQ(restored.StateFingerprint(), sm_.StateFingerprint());
  EXPECT_EQ(restored.FindCrdtAs<crdt::GCounter>("C")->Value(), 4);
}

TEST_F(StateMachineTest, SnapshotPreservesParkedOps) {
  // An op whose create has not arrived is parked; the snapshot must
  // carry it so the create can still land after a restart.
  Transaction inc;
  inc.crdt_name = "late";
  inc.op = "inc";
  inc.args = {crdt::Value::OfInt(7)};
  Append(inc, owner_, "owner");
  ASSERT_EQ(sm_.PendingOpCount(), 1u);

  StateMachine restored;
  ASSERT_TRUE(restored.LoadSnapshot(sm_.SaveSnapshot()).ok());
  EXPECT_EQ(restored.PendingOpCount(), 1u);

  // The create arrives (same block applied to both machines): the
  // parked op drains identically.
  BlockHeader h;
  h.user_id = "owner";
  h.timestamp_ms = next_ts_++;
  h.parents = {last_};
  const Block create_block = Block::Create(
      std::move(h),
      {StateMachine::MakeCreateTx("late", crdt::CrdtType::kGCounter,
                                  crdt::ValueType::kInt,
                                  AclPolicy::AllowAll())},
      owner_);
  sm_.ApplyBlock(create_block);
  restored.ApplyBlock(create_block);

  EXPECT_EQ(sm_.PendingOpCount(), 0u);
  EXPECT_EQ(restored.PendingOpCount(), 0u);
  EXPECT_EQ(sm_.FindCrdtAs<crdt::GCounter>("late")->Value(), 7);
  EXPECT_EQ(restored.FindCrdtAs<crdt::GCounter>("late")->Value(), 7);
  EXPECT_EQ(restored.StateFingerprint(), sm_.StateFingerprint());
}

TEST_F(StateMachineTest, LoadSnapshotRejectsCorruption) {
  Bytes snapshot = sm_.SaveSnapshot();
  snapshot[snapshot.size() / 2] ^= 0x01;
  StateMachine restored;
  EXPECT_FALSE(restored.LoadSnapshot(snapshot).ok());
  // Truncation fails too.
  Bytes valid = sm_.SaveSnapshot();
  valid.resize(valid.size() / 2);
  EXPECT_FALSE(restored.LoadSnapshot(valid).ok());
  EXPECT_FALSE(restored.LoadSnapshot(Bytes{}).ok());
}

TEST_F(StateMachineTest, CompactedOpLogShrinksSnapshots) {
  StateMachineConfig compact_cfg;
  compact_cfg.compact_op_log = true;
  StateMachine compact(compact_cfg);
  compact.ApplyBlock(genesis_);

  // Apply the same workload to both machines.
  const Transaction create = StateMachine::MakeCreateTx(
      "S", crdt::CrdtType::kGSet, crdt::ValueType::kStr,
      AclPolicy::AllowAll());
  BlockHeader h;
  h.user_id = "owner";
  h.timestamp_ms = next_ts_++;
  h.parents = {last_};
  Block b = Block::Create(std::move(h), {create}, owner_);
  last_ = b.hash();
  sm_.ApplyBlock(b);
  compact.ApplyBlock(b);
  for (int i = 0; i < 50; ++i) {
    Transaction add;
    add.crdt_name = "S";
    add.op = "add";
    add.args = {crdt::Value::OfStr("v" + std::to_string(i))};
    BlockHeader hh;
    hh.user_id = "owner";
    hh.timestamp_ms = next_ts_++;
    hh.parents = {last_};
    Block bb = Block::Create(std::move(hh), {add}, owner_);
    last_ = bb.hash();
    sm_.ApplyBlock(bb);
    compact.ApplyBlock(bb);
  }

  // Same visible state...
  EXPECT_EQ(compact.FindCrdtAs<crdt::GSet>("S")->Size(), 50u);
  EXPECT_EQ(sm_.FindCrdtAs<crdt::GSet>("S")->Size(), 50u);
  // ...much smaller snapshot (no retained op log).
  EXPECT_LT(compact.SaveSnapshot().size(), sm_.SaveSnapshot().size() / 2);
}

TEST_F(StateMachineTest, CompactedModeStillParksEarlyOps) {
  StateMachineConfig compact_cfg;
  compact_cfg.compact_op_log = true;
  StateMachine compact(compact_cfg);
  compact.ApplyBlock(genesis_);

  Transaction inc;
  inc.crdt_name = "late";
  inc.op = "inc";
  inc.args = {crdt::Value::OfInt(3)};
  BlockHeader h1;
  h1.user_id = "owner";
  h1.timestamp_ms = 200;
  h1.parents = {genesis_.hash()};
  compact.ApplyBlock(Block::Create(std::move(h1), {inc}, owner_));
  EXPECT_EQ(compact.PendingOpCount(), 1u);

  BlockHeader h2;
  h2.user_id = "owner";
  h2.timestamp_ms = 201;
  h2.parents = {genesis_.hash()};
  compact.ApplyBlock(Block::Create(
      std::move(h2),
      {StateMachine::MakeCreateTx("late", crdt::CrdtType::kGCounter,
                                  crdt::ValueType::kInt,
                                  AclPolicy::AllowAll())},
      owner_));
  EXPECT_EQ(compact.PendingOpCount(), 0u);
  EXPECT_EQ(compact.FindCrdtAs<crdt::GCounter>("late")->Value(), 3);
}

TEST_F(StateMachineTest, CompactedModeCreateRaceIsFirstArrivalWins) {
  // The documented trade-off: without the log, a late smaller-tx-id
  // create cannot replay and the incumbent stays.
  Transaction create_set = StateMachine::MakeCreateTx(
      "X", crdt::CrdtType::kGSet, crdt::ValueType::kStr,
      AclPolicy::AllowAll());
  Transaction create_counter = StateMachine::MakeCreateTx(
      "X", crdt::CrdtType::kGCounter, crdt::ValueType::kInt,
      AclPolicy::AllowAll());
  BlockHeader h1;
  h1.user_id = "owner";
  h1.timestamp_ms = 200;
  h1.parents = {genesis_.hash()};
  const Block b1 = Block::Create(std::move(h1), {create_set}, owner_);
  BlockHeader h2;
  h2.user_id = "owner";
  h2.timestamp_ms = 201;
  h2.parents = {genesis_.hash()};
  const Block b2 = Block::Create(std::move(h2), {create_counter}, owner_);

  StateMachineConfig compact_cfg;
  compact_cfg.compact_op_log = true;
  StateMachine first_b2(compact_cfg);
  first_b2.ApplyBlock(genesis_);
  first_b2.ApplyBlock(b2);
  first_b2.ApplyBlock(b1);
  // Whichever arrived first stays (b2's type here).
  EXPECT_EQ(first_b2.FindCrdt("X")->type(), crdt::CrdtType::kGCounter);
}

TEST_F(StateMachineTest, CrdtNamesLists) {
  Append(StateMachine::MakeCreateTx("alpha", crdt::CrdtType::kGSet,
                                    crdt::ValueType::kStr,
                                    AclPolicy::AllowAll()),
         owner_, "owner");
  Append(StateMachine::MakeCreateTx("beta", crdt::CrdtType::kLwwMap,
                                    crdt::ValueType::kStr,
                                    AclPolicy::AllowAll()),
         owner_, "owner");
  const auto names = sm_.CrdtNames();
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "beta"}));
}

}  // namespace
}  // namespace vegvisir::csm
