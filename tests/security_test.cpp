// Adversarial scenarios: everything §IV-B's attacker might try short
// of forging signatures (which Ed25519 prevents), plus decoder
// robustness against malformed and fuzzed wire input.
#include <gtest/gtest.h>

#include "chain/genesis.h"
#include "crdt/sets.h"
#include "crypto/drbg.h"
#include "node/node.h"
#include "recon/messages.h"
#include "recon/session.h"
#include "util/rng.h"

namespace vegvisir {
namespace {

using chain::Block;
using chain::BlockVerdict;
using chain::Certificate;

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

struct Fixture {
  crypto::KeyPair owner_keys = TestKeys(1);
  crypto::KeyPair eve_keys = TestKeys(666);
  Block genesis = chain::GenesisBuilder("secure-chain")
                      .WithTimestamp(100)
                      .Build("owner", owner_keys);

  std::unique_ptr<node::Node> MakeOwner() {
    node::NodeConfig cfg;
    cfg.user_id = "owner";
    auto n = std::make_unique<node::Node>(cfg, genesis, owner_keys);
    n->SetTime(10'000);
    return n;
  }
};

// --- certificate attacks ---------------------------------------------

TEST(SecurityTest, SelfIssuedCertificateRejected) {
  Fixture f;
  auto owner = f.MakeOwner();
  // Eve signs her own certificate claiming the medic role.
  const Certificate forged = chain::IssueCertificate(
      "eve", f.eve_keys.public_key(), "medic", f.eve_keys);
  // The owner node would never submit it, but an adversary can craft
  // the enrolment block; the CSM must refuse the certificate.
  chain::BlockHeader h;
  h.user_id = "owner";  // even laundered through a replayed creator id
  h.timestamp_ms = 5'000;
  h.parents = {f.genesis.hash()};
  const Block enrol = Block::Create(
      std::move(h), {csm::StateMachine::MakeAddUserTx(forged)},
      f.owner_keys);
  ASSERT_EQ(owner->OfferBlock(enrol), BlockVerdict::kValid);  // block is real
  // ...but the transaction inside was rejected.
  EXPECT_EQ(owner->state().membership().FindCertificate("eve"), nullptr);
  EXPECT_GT(owner->telemetry()->metrics.CounterValue("csm.rejected_txns"), 0u);
}

TEST(SecurityTest, KeySubstitutionOnCertificateFails) {
  Fixture f;
  auto owner = f.MakeOwner();
  // Take a legitimate cert and swap in Eve's public key.
  Certificate cert = chain::IssueCertificate(
      "alice", TestKeys(2).public_key(), "medic", f.owner_keys);
  cert.public_key = f.eve_keys.public_key();
  chain::BlockHeader h;
  h.user_id = "owner";
  h.timestamp_ms = 5'000;
  h.parents = {f.genesis.hash()};
  const Block enrol = Block::Create(
      std::move(h), {csm::StateMachine::MakeAddUserTx(cert)}, f.owner_keys);
  ASSERT_EQ(owner->OfferBlock(enrol), BlockVerdict::kValid);
  EXPECT_EQ(owner->state().membership().FindCertificate("alice"), nullptr);
}

TEST(SecurityTest, RoleEscalationOnCertificateFails) {
  Fixture f;
  auto owner = f.MakeOwner();
  Certificate cert = chain::IssueCertificate(
      "alice", TestKeys(2).public_key(), "medic", f.owner_keys);
  cert.role = "owner";  // escalate
  chain::BlockHeader h;
  h.user_id = "owner";
  h.timestamp_ms = 5'000;
  h.parents = {f.genesis.hash()};
  const Block enrol = Block::Create(
      std::move(h), {csm::StateMachine::MakeAddUserTx(cert)}, f.owner_keys);
  ASSERT_EQ(owner->OfferBlock(enrol), BlockVerdict::kValid);
  EXPECT_EQ(owner->state().membership().FindCertificate("alice"), nullptr);
}

// --- block attacks ----------------------------------------------------

TEST(SecurityTest, CrossChainBlockReplayRefused) {
  Fixture f;
  auto owner = f.MakeOwner();
  // A block from a *different* chain (same owner keys, different
  // genesis) can never attach: its parents do not exist here.
  const Block other_genesis = chain::GenesisBuilder("other-chain")
                                  .WithTimestamp(100)
                                  .Build("owner", f.owner_keys);
  chain::BlockHeader h;
  h.user_id = "owner";
  h.timestamp_ms = 5'000;
  h.parents = {other_genesis.hash()};
  const Block alien = Block::Create(std::move(h), {}, f.owner_keys);
  EXPECT_EQ(owner->OfferBlock(alien), BlockVerdict::kRetryLater);
  EXPECT_FALSE(owner->dag().Contains(alien.hash()));
  // And a replayed foreign *genesis* is rejected outright.
  EXPECT_EQ(owner->OfferBlock(other_genesis), BlockVerdict::kReject);
}

TEST(SecurityTest, ResignedBlockChangesIdentity) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto h = owner->AddWitnessBlock();
  ASSERT_TRUE(h.ok());
  const Block& original = *owner->dag().Find(*h);

  // Eve re-signs the same content as herself: a different block
  // entirely (different id), and invalid since she is not a member.
  Block resigned = Block::Create(
      chain::BlockHeader(original.header()),
      std::vector<chain::Transaction>(original.transactions()), f.eve_keys);
  EXPECT_NE(resigned.hash(), original.hash());
  EXPECT_EQ(owner->OfferBlock(resigned), BlockVerdict::kReject);
}

TEST(SecurityTest, EquivocationIsHarmlesslyMerged) {
  // A user creating two blocks on the same parents is not an attack
  // in Vegvisir (no double-spend to exploit): both blocks simply
  // coexist as branches and the next block merges them.
  Fixture f;
  auto owner = f.MakeOwner();
  chain::BlockHeader h1;
  h1.user_id = "owner";
  h1.timestamp_ms = 5'000;
  h1.parents = {f.genesis.hash()};
  chain::BlockHeader h2;
  h2.user_id = "owner";
  h2.timestamp_ms = 5'001;
  h2.parents = {f.genesis.hash()};
  const Block a = Block::Create(std::move(h1), {}, f.owner_keys);
  const Block b = Block::Create(std::move(h2), {}, f.owner_keys);
  EXPECT_EQ(owner->OfferBlock(a), BlockVerdict::kValid);
  EXPECT_EQ(owner->OfferBlock(b), BlockVerdict::kValid);
  EXPECT_EQ(owner->dag().Frontier().size(), 2u);
  ASSERT_TRUE(owner->AddWitnessBlock().ok());
  EXPECT_EQ(owner->dag().Frontier().size(), 1u);  // reined back in
}

TEST(SecurityTest, WitnessCountNotInflatableByOneIdentity) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto target = owner->AddWitnessBlock();
  ASSERT_TRUE(target.ok());
  // The creator acks its own block five times: still zero witnesses.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(owner->AddWitnessBlock().ok());
  EXPECT_EQ(owner->dag().WitnessesOf(*target).size(), 0u);
  EXPECT_FALSE(owner->IsPersistent(*target, 1));
}

TEST(SecurityTest, UnauthorizedOpRejectedDeterministically) {
  Fixture f;
  auto owner = f.MakeOwner();
  csm::AclPolicy policy;
  policy.Allow("medic", "add");
  ASSERT_TRUE(owner->CreateCrdt("H", crdt::CrdtType::kGSet,
                                crdt::ValueType::kStr, policy).ok());
  // Enrol eve as an auditor (a real member, wrong role).
  const Certificate cert = chain::IssueCertificate(
      "eve", f.eve_keys.public_key(), "auditor", f.owner_keys);
  ASSERT_TRUE(owner->EnrollUser(cert).ok());

  // Eve bypasses her own node's precheck and crafts the block by hand.
  chain::Transaction tx;
  tx.crdt_name = "H";
  tx.op = "add";
  tx.args = {crdt::Value::OfStr("sneaky")};
  chain::BlockHeader h;
  h.user_id = "eve";
  h.parents = owner->dag().Frontier();
  h.timestamp_ms = owner->dag().MaxParentTimestamp(h.parents) + 1;
  const Block block = Block::Create(std::move(h), {tx}, f.eve_keys);
  ASSERT_EQ(owner->OfferBlock(block), BlockVerdict::kValid);
  // The block stands (tamperproof log of the *attempt*), the op does
  // not take effect.
  EXPECT_FALSE(owner->state().FindCrdtAs<crdt::GSet>("H")->Contains(
      crdt::Value::OfStr("sneaky")));
}

// --- decoder robustness ------------------------------------------------

TEST(SecurityTest, BlockDeserializeSurvivesFuzzedInput) {
  Fixture f;
  auto owner = f.MakeOwner();
  const Bytes valid = owner->dag().Find(f.genesis.hash())->Serialize();
  Rng rng(42);
  int accepted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    Bytes mutated = valid;
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    }
    const auto result = Block::Deserialize(mutated);
    if (result.ok()) {
      // Mutations that survive decoding must still not verify as the
      // owner unless the payload is byte-identical.
      if (mutated == valid) continue;
      ++accepted;
      EXPECT_NE(result->hash(), f.genesis.hash());
    }
  }
  // Some mutations decode (e.g. flipped signature bits); that is fine
  // as long as none kept the original identity.
  (void)accepted;
}

TEST(SecurityTest, RandomBytesNeverDecodeAsBlocks) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes garbage(rng.NextBelow(300));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.NextU64());
    // Must not crash; overwhelmingly must fail.
    (void)Block::Deserialize(garbage);
  }
  SUCCEED();
}

TEST(SecurityTest, SessionsSurviveFuzzedMessages) {
  Fixture f;
  auto owner = f.MakeOwner();
  Rng rng(13);
  recon::ResponderSession responder(owner.get(), recon::ReconConfig{});
  for (int trial = 0; trial < 300; ++trial) {
    Bytes garbage(1 + rng.NextBelow(200));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.NextU64());
    std::vector<Bytes> replies;
    (void)responder.OnMessage(garbage, &replies);  // must not crash
  }
  // The node is still healthy afterwards.
  EXPECT_TRUE(owner->AddWitnessBlock().ok());
}

TEST(SecurityTest, TruncatedMessagesFailCleanly) {
  Fixture f;
  auto owner = f.MakeOwner();
  recon::FrontierRequest req;
  req.level = 1;
  req.genesis = owner->dag().genesis_hash();
  const Bytes full = recon::EncodeMessage(req);
  recon::ResponderSession responder(owner.get(), recon::ReconConfig{});
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    std::vector<Bytes> replies;
    const Status s = responder.OnMessage(
        ByteSpan(full.data(), cut), &replies);
    EXPECT_FALSE(s.ok()) << "cut at " << cut;
    EXPECT_TRUE(replies.empty());
  }
}

TEST(SecurityTest, OversizeCountFieldsRejectedWithoutAllocation) {
  // A hostile message claiming 2^40 blocks must fail fast (the codec
  // checks counts against remaining input before reserving).
  serial::Writer w;
  w.WriteU8(2);  // kFrontierResponse
  w.WriteU32(1);
  chain::BlockHash g{};
  w.WriteFixed(g);
  w.WriteVarint(1ull << 40);  // hash count
  recon::FrontierResponse resp;
  EXPECT_FALSE(recon::DecodeMessage(w.buffer(), &resp).ok());
}

}  // namespace
}  // namespace vegvisir
