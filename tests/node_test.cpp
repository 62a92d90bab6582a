#include <gtest/gtest.h>

#include "crdt/counters.h"
#include "crdt/sets.h"
#include "crypto/drbg.h"
#include "node/node.h"
#include "recon/session.h"

namespace vegvisir::node {
namespace {

using chain::Block;
using chain::BlockVerdict;

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

struct Fixture {
  crypto::KeyPair owner_keys = TestKeys(1);
  Block genesis = chain::GenesisBuilder("node-chain")
                      .WithTimestamp(100)
                      .Build("owner", owner_keys);

  std::unique_ptr<Node> MakeOwner() {
    NodeConfig cfg;
    cfg.user_id = "owner";
    auto n = std::make_unique<Node>(cfg, genesis, owner_keys);
    n->SetTime(10'000);
    return n;
  }

  std::unique_ptr<Node> MakeUser(const std::string& user_id,
                                 std::uint64_t seed,
                                 NodeConfig cfg = {}) {
    cfg.user_id = user_id;
    auto n = std::make_unique<Node>(cfg, genesis, TestKeys(seed));
    n->SetTime(10'000);
    return n;
  }

  chain::Certificate CertFor(const std::string& user, std::uint64_t seed,
                             const std::string& role) {
    return chain::IssueCertificate(user, TestKeys(seed).public_key(), role,
                                   owner_keys);
  }

  // Copies every block from `src` to `dst` (a crude but direct sync).
  void Mirror(Node* src, Node* dst) {
    for (const auto& h : src->dag().TopologicalOrder()) {
      if (h == src->dag().genesis_hash()) continue;
      const Block* b = src->dag().Find(h);
      ASSERT_NE(b, nullptr);
      dst->OfferBlock(*b);
    }
  }
};

TEST(NodeTest, GenesisIsAppliedOnConstruction) {
  Fixture f;
  auto owner = f.MakeOwner();
  EXPECT_EQ(owner->dag().Size(), 1u);
  EXPECT_EQ(owner->state().ChainName(), "node-chain");
  EXPECT_TRUE(owner->state().membership().ca_known());
}

TEST(NodeTest, SubmitBuildsOnFrontierAndApplies) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto h1 = owner->AddWitnessBlock();
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(owner->dag().Frontier(), std::vector<chain::BlockHash>{*h1});
  const auto h2 = owner->AddWitnessBlock();
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(owner->dag().ParentsOf(*h2), std::vector<chain::BlockHash>{*h1});
  EXPECT_EQ(owner->telemetry()->metrics.CounterValue("node.blocks_created"),
            2u);
}

TEST(NodeTest, SubmitTimestampsStrictlyIncrease) {
  Fixture f;
  auto owner = f.MakeOwner();
  owner->SetTime(150);  // genesis is at 100; clock barely ahead
  const auto h1 = owner->AddWitnessBlock();
  ASSERT_TRUE(h1.ok());
  // Clock did NOT advance; the next block must still be later than h1.
  const auto h2 = owner->AddWitnessBlock();
  ASSERT_TRUE(h2.ok());
  EXPECT_GT(owner->dag().TimestampOf(*h2), owner->dag().TimestampOf(*h1));
}

TEST(NodeTest, UnenrolledNodeCannotSubmit) {
  Fixture f;
  auto alice = f.MakeUser("alice", 7);
  EXPECT_FALSE(alice->AddWitnessBlock().ok());
}

TEST(NodeTest, EnrollmentFlowEndToEnd) {
  Fixture f;
  auto owner = f.MakeOwner();
  auto alice = f.MakeUser("alice", 7);
  ASSERT_TRUE(owner->EnrollUser(f.CertFor("alice", 7, "medic")).ok());
  f.Mirror(owner.get(), alice.get());
  EXPECT_EQ(alice->state().membership().RoleOf("alice"), "medic");
  EXPECT_TRUE(alice->AddWitnessBlock().ok());
}

TEST(NodeTest, CreateCrdtAndAppendOp) {
  Fixture f;
  auto owner = f.MakeOwner();
  csm::AclPolicy policy;
  policy.Allow("medic", "add").Allow("owner", "*");
  ASSERT_TRUE(owner->CreateCrdt("H", crdt::CrdtType::kGSet,
                                crdt::ValueType::kStr, policy).ok());
  ASSERT_TRUE(owner->AppendOp("H", "add",
                              {crdt::Value::OfStr("record-1")}).ok());
  const auto* h = owner->state().FindCrdtAs<crdt::GSet>("H");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->Contains(crdt::Value::OfStr("record-1")));
}

TEST(NodeTest, SubmitPrechecksUnknownCrdt) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto result =
      owner->AppendOp("nonexistent", "add", {crdt::Value::OfStr("x")});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
}

TEST(NodeTest, SubmitPrechecksTypeErrors) {
  Fixture f;
  auto owner = f.MakeOwner();
  ASSERT_TRUE(owner->CreateCrdt("S", crdt::CrdtType::kGSet,
                                crdt::ValueType::kStr,
                                csm::AclPolicy::AllowAll()).ok());
  EXPECT_FALSE(owner->AppendOp("S", "add", {crdt::Value::OfInt(3)}).ok());
  EXPECT_FALSE(owner->AppendOp("S", "pop", {crdt::Value::OfStr("x")}).ok());
}

TEST(NodeTest, SubmitPrechecksPermissions) {
  Fixture f;
  auto owner = f.MakeOwner();
  auto bob = f.MakeUser("bob", 8);
  csm::AclPolicy policy;
  policy.Allow("medic", "add");
  ASSERT_TRUE(owner->CreateCrdt("H", crdt::CrdtType::kGSet,
                                crdt::ValueType::kStr, policy).ok());
  ASSERT_TRUE(owner->EnrollUser(f.CertFor("bob", 8, "auditor")).ok());
  f.Mirror(owner.get(), bob.get());
  const auto result = bob->AppendOp("H", "add", {crdt::Value::OfStr("x")});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kPermissionDenied);
}

TEST(NodeTest, OfferBlockQuarantinesUnknownCreator) {
  Fixture f;
  auto owner = f.MakeOwner();
  auto alice = f.MakeUser("alice", 7);
  auto bystander = f.MakeOwner();

  // Alice gets enrolled and writes a block...
  ASSERT_TRUE(owner->EnrollUser(f.CertFor("alice", 7, "medic")).ok());
  f.Mirror(owner.get(), alice.get());
  const auto alice_block_hash = alice->AddWitnessBlock();
  ASSERT_TRUE(alice_block_hash.ok());
  const Block alice_block = *alice->dag().Find(*alice_block_hash);

  // ...but the bystander has not seen her enrolment. The block's
  // parent (the enrolment block) is also missing: quarantined.
  EXPECT_EQ(bystander->OfferBlock(alice_block), BlockVerdict::kRetryLater);
  EXPECT_EQ(bystander->QuarantineSize(), 1u);

  // Once the enrolment arrives, the quarantined block drains in.
  f.Mirror(owner.get(), bystander.get());
  EXPECT_EQ(bystander->QuarantineSize(), 0u);
  EXPECT_TRUE(bystander->dag().Contains(*alice_block_hash));
}

TEST(NodeTest, FutureBlockQuarantinedUntilClockCatchesUp) {
  Fixture f;
  auto fast = f.MakeOwner();
  auto slow = f.MakeOwner();
  fast->SetTime(1'000'000);
  slow->SetTime(200);  // way behind

  const auto h = fast->AddWitnessBlock();
  ASSERT_TRUE(h.ok());
  const Block b = *fast->dag().Find(*h);
  EXPECT_EQ(slow->OfferBlock(b), BlockVerdict::kRetryLater);
  EXPECT_EQ(slow->QuarantineSize(), 1u);

  slow->SetTime(2'000'000);
  slow->RetryQuarantine();
  EXPECT_EQ(slow->QuarantineSize(), 0u);
  EXPECT_TRUE(slow->dag().Contains(*h));
}

TEST(NodeTest, ForgedBlockRejectedPermanently) {
  Fixture f;
  auto owner = f.MakeOwner();
  // A block claiming to be the owner but signed by an impostor.
  chain::BlockHeader h;
  h.user_id = "owner";
  h.timestamp_ms = 5'000;
  h.parents = {f.genesis.hash()};
  const Block forged = Block::Create(std::move(h), {}, TestKeys(99));
  EXPECT_EQ(owner->OfferBlock(forged), BlockVerdict::kReject);
  EXPECT_EQ(owner->telemetry()->metrics.CounterValue("node.blocks_rejected"),
            1u);
  EXPECT_EQ(owner->QuarantineSize(), 0u);
}

TEST(NodeTest, DuplicateOfferIsBenign) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto h = owner->AddWitnessBlock();
  ASSERT_TRUE(h.ok());
  const Block b = *owner->dag().Find(*h);
  EXPECT_EQ(owner->OfferBlock(b), BlockVerdict::kValid);
  EXPECT_EQ(owner->dag().Size(), 2u);
}

TEST(NodeTest, AdversaryDropsForeignBlocks) {
  Fixture f;
  auto owner = f.MakeOwner();
  NodeConfig evil_cfg;
  evil_cfg.drop_foreign_blocks = true;
  auto evil = f.MakeUser("evil", 66, evil_cfg);
  const auto h = owner->AddWitnessBlock();
  ASSERT_TRUE(h.ok());
  // The adversary claims success but stores nothing.
  EXPECT_EQ(evil->OfferBlock(*owner->dag().Find(*h)), BlockVerdict::kValid);
  EXPECT_FALSE(evil->dag().Contains(*h));
  EXPECT_EQ(evil->telemetry()->metrics.CounterValue("node.foreign_dropped"),
            1u);
}

TEST(NodeTest, WitnessFlowReachesPersistence) {
  Fixture f;
  auto owner = f.MakeOwner();
  auto alice = f.MakeUser("alice", 7);
  auto bob = f.MakeUser("bob", 8);
  ASSERT_TRUE(owner->EnrollUser(f.CertFor("alice", 7, "medic")).ok());
  ASSERT_TRUE(owner->EnrollUser(f.CertFor("bob", 8, "medic")).ok());
  f.Mirror(owner.get(), alice.get());
  f.Mirror(owner.get(), bob.get());

  const auto target = owner->AddWitnessBlock();
  ASSERT_TRUE(target.ok());
  EXPECT_FALSE(owner->IsPersistent(*target, 2));

  // Alice and bob ack by adding (empty) descendant blocks.
  f.Mirror(owner.get(), alice.get());
  ASSERT_TRUE(alice->AddWitnessBlock().ok());
  f.Mirror(alice.get(), bob.get());
  ASSERT_TRUE(bob->AddWitnessBlock().ok());
  f.Mirror(bob.get(), owner.get());

  EXPECT_TRUE(owner->IsPersistent(*target, 2));
  EXPECT_FALSE(owner->IsPersistent(*target, 3));
}

TEST(NodeTest, FingerprintsConvergeAfterSync) {
  Fixture f;
  auto a = f.MakeOwner();
  auto b = f.MakeOwner();
  ASSERT_TRUE(a->CreateCrdt("counter", crdt::CrdtType::kGCounter,
                            crdt::ValueType::kInt,
                            csm::AclPolicy::AllowAll()).ok());
  ASSERT_TRUE(a->AppendOp("counter", "inc", {crdt::Value::OfInt(3)}).ok());
  ASSERT_TRUE(b->AddWitnessBlock().ok());
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
  // Two one-way pulls make them identical.
  ASSERT_EQ(recon::RunLocalSession(a.get(), b.get(), recon::ReconConfig{}),
            recon::SessionState::kDone);
  ASSERT_EQ(recon::RunLocalSession(b.get(), a.get(), recon::ReconConfig{}),
            recon::SessionState::kDone);
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
  EXPECT_EQ(b->state().FindCrdtAs<crdt::GCounter>("counter")->Value(), 3);
}

// Restore replays in slot order, the order the node applied its
// blocks in. Where that differs from the cross-replica Kahn order, the
// restored node still matches the source's Fingerprint().
TEST(NodeTest, RestoreInSlotOrderMatchesSourceFingerprint) {
  Fixture f;
  auto a = f.MakeOwner();
  auto b = f.MakeOwner();
  ASSERT_TRUE(a->CreateCrdt("S", crdt::CrdtType::kGSet, crdt::ValueType::kStr,
                            csm::AclPolicy::AllowAll())
                  .ok());
  f.Mirror(a.get(), b.get());
  // Two concurrent branches off the shared history.
  a->SetTime(20'000);
  b->SetTime(20'500);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        a->AppendOp("S", "add", {crdt::Value::OfStr("a" + std::to_string(i))})
            .ok());
    ASSERT_TRUE(
        b->AppendOp("S", "add", {crdt::Value::OfStr("b" + std::to_string(i))})
            .ok());
  }
  f.Mirror(a.get(), b.get());
  f.Mirror(b.get(), a.get());
  ASSERT_EQ(a->Fingerprint(), b->Fingerprint());
  // Each side slotted its own branch first, so the two slot orders
  // disagree at the fork and one of them is not the Kahn order.
  ASSERT_NE(a->dag().Hashes(), b->dag().Hashes());
  Node* source =
      a->dag().Hashes() != a->dag().TopologicalOrder() ? a.get() : b.get();
  ASSERT_NE(source->dag().Hashes(), source->dag().TopologicalOrder());

  for (const bool with_snapshot : {false, true}) {
    const Bytes snapshot =
        with_snapshot ? source->state().SaveSnapshot() : Bytes{};
    bool used_snapshot = !with_snapshot;
    auto restored = Node::Restore(NodeConfig{}, f.owner_keys, source->dag(),
                                  snapshot, &used_snapshot);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(used_snapshot, with_snapshot);
    EXPECT_EQ((*restored)->dag().Hashes(), source->dag().Hashes());
    EXPECT_EQ((*restored)->Fingerprint(), source->Fingerprint());
  }
}

TEST(NodeTest, EnergyMeterChargedOnSubmitAndVerify) {
  Fixture f;
  auto a = f.MakeOwner();
  auto b = f.MakeOwner();
  sim::EnergyMeter meter_a, meter_b;
  a->AttachEnergyMeter(&meter_a);
  b->AttachEnergyMeter(&meter_b);
  const auto h = a->AddWitnessBlock();
  ASSERT_TRUE(h.ok());
  EXPECT_GT(meter_a.crypto_nj(), 0.0);
  ASSERT_EQ(b->OfferBlock(*a->dag().Find(*h)), BlockVerdict::kValid);
  EXPECT_GT(meter_b.crypto_nj(), 0.0);
}

TEST(NodeTest, QuarantineCapEvictsOldest) {
  Fixture f;
  NodeConfig cfg;
  cfg.quarantine_cap = 2;
  auto owner = f.MakeUser("owner", 1, cfg);
  auto producer = f.MakeOwner();

  // Three blocks with unknown parents each (chain of phantom parents).
  for (int i = 0; i < 3; ++i) {
    chain::BlockHash phantom{};
    phantom.fill(static_cast<std::uint8_t>(i + 1));
    chain::BlockHeader h;
    h.user_id = "owner";
    h.timestamp_ms = 5'000 + i;
    h.parents = {phantom};
    const Block b = Block::Create(std::move(h), {}, f.owner_keys);
    EXPECT_EQ(owner->OfferBlock(b), BlockVerdict::kRetryLater);
  }
  EXPECT_LE(owner->QuarantineSize(), 2u);
}

}  // namespace
}  // namespace vegvisir::node
