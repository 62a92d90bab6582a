#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/drbg.h"
#include "node/node.h"
#include "support/superpeer.h"
#include "support/support_chain.h"

namespace vegvisir::support {
namespace {

using chain::Block;
using chain::BlockHash;

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

struct Fixture {
  crypto::KeyPair owner_keys = TestKeys(1);
  Block genesis = chain::GenesisBuilder("support-chain-test")
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

TEST(SupportChainTest, ArchiveInTopologicalOrder) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto h1 = owner->AddWitnessBlock();
  const auto h2 = owner->AddWitnessBlock();
  ASSERT_TRUE(h1.ok() && h2.ok());

  SupportChain sc(f.genesis.hash());
  // Child before parent: refused.
  EXPECT_FALSE(sc.Archive({*owner->dag().Find(*h2)}, 1).ok());
  // Parent first, then child: fine.
  EXPECT_TRUE(sc.Archive({*owner->dag().Find(*h1)}, 1).ok());
  EXPECT_TRUE(sc.Archive({*owner->dag().Find(*h2)}, 2).ok());
  EXPECT_TRUE(sc.IsArchived(*h1));
  EXPECT_TRUE(sc.IsArchived(*h2));
  EXPECT_EQ(sc.Length(), 2u);
  EXPECT_TRUE(sc.VerifyChain());
}

TEST(SupportChainTest, BatchMayCarryParentAndChildInOrder) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto h1 = owner->AddWitnessBlock();
  const auto h2 = owner->AddWitnessBlock();
  ASSERT_TRUE(h1.ok() && h2.ok());
  SupportChain sc(f.genesis.hash());
  EXPECT_TRUE(sc.Archive({*owner->dag().Find(*h1), *owner->dag().Find(*h2)},
                         1).ok());
  // ...but not reversed within the batch.
  SupportChain sc2(f.genesis.hash());
  EXPECT_FALSE(sc2.Archive({*owner->dag().Find(*h2), *owner->dag().Find(*h1)},
                           1).ok());
}

TEST(SupportChainTest, DoubleArchiveRefused) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto h1 = owner->AddWitnessBlock();
  ASSERT_TRUE(h1.ok());
  SupportChain sc(f.genesis.hash());
  ASSERT_TRUE(sc.Archive({*owner->dag().Find(*h1)}, 1).ok());
  EXPECT_FALSE(sc.Archive({*owner->dag().Find(*h1)}, 2).ok());
}

TEST(SupportChainTest, FetchReturnsArchivedBody) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto h1 = owner->AddWitnessBlock();
  ASSERT_TRUE(h1.ok());
  SupportChain sc(f.genesis.hash());
  ASSERT_TRUE(sc.Archive({*owner->dag().Find(*h1)}, 1).ok());
  const Block* fetched = sc.Fetch(*h1);
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(fetched->hash(), *h1);
  EXPECT_EQ(sc.Fetch(f.genesis.hash()), nullptr);  // not stored
}

TEST(SuperpeerTest, SyncArchivesWholeDag) {
  Fixture f;
  auto owner = f.MakeOwner();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(owner->AddWitnessBlock().ok());

  SupportChain sc(f.genesis.hash());
  Superpeer peer(owner.get(), &sc, /*batch_size=*/4);
  const std::size_t archived = peer.SyncToSupport(1'000);
  EXPECT_EQ(archived, 10u);
  EXPECT_EQ(sc.ArchivedCount(), 10u);
  EXPECT_EQ(sc.Length(), 3u);  // ceil(10/4) support blocks
  EXPECT_TRUE(sc.VerifyChain());
  // Second sync is a no-op.
  EXPECT_EQ(peer.SyncToSupport(2'000), 0u);
}

TEST(StorageManagerTest, EnforcesBudgetByEvictingOldestArchived) {
  Fixture f;
  auto owner = f.MakeOwner();
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(owner->AddWitnessBlock().ok());
  SupportChain sc(f.genesis.hash());
  Superpeer peer(owner.get(), &sc);
  peer.SyncToSupport(1'000);

  const std::size_t full = owner->dag().StoredBytes();
  StorageManager mgr(owner.get(), full / 2);
  const std::size_t evicted = mgr.Enforce(&sc);
  EXPECT_GT(evicted, 0u);
  EXPECT_LE(owner->dag().StoredBytes(), full / 2);
  const telemetry::MetricsRegistry& m = owner->telemetry()->metrics;
  EXPECT_EQ(m.CounterValue("support.evictions"), evicted);
  EXPECT_GT(m.CounterValue("support.bytes_reclaimed"), 0u);
  // The DAG still knows all blocks (stubs), nothing lost.
  EXPECT_EQ(owner->dag().Size(), 21u);
}

TEST(StorageManagerTest, NeverEvictsUnarchivedBlocks) {
  Fixture f;
  auto owner = f.MakeOwner();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(owner->AddWitnessBlock().ok());
  // No superpeer sync: nothing archived, nothing evictable.
  SupportChain sc(f.genesis.hash());
  StorageManager mgr(owner.get(), 1);  // impossible budget
  EXPECT_EQ(mgr.Enforce(&sc), 0u);
  EXPECT_EQ(mgr.Enforce(nullptr), 0u);  // no support chain reachable
  EXPECT_EQ(owner->dag().StoredCount(), 11u);
}

TEST(StorageManagerTest, RefetchRestoresEvictedBody) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto h1 = owner->AddWitnessBlock();
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(owner->AddWitnessBlock().ok());
  SupportChain sc(f.genesis.hash());
  Superpeer peer(owner.get(), &sc);
  peer.SyncToSupport(1'000);

  StorageManager mgr(owner.get(), 0);
  ASSERT_GT(mgr.Enforce(&sc), 0u);
  ASSERT_EQ(owner->dag().PresenceOf(*h1), chain::Presence::kEvicted);

  ASSERT_TRUE(mgr.Refetch(*h1, sc).ok());
  EXPECT_EQ(owner->dag().PresenceOf(*h1), chain::Presence::kStored);
  EXPECT_EQ(owner->telemetry()->metrics.CounterValue("support.refetches"), 1u);
  // Refetching something never archived fails cleanly.
  BlockHash phantom{};
  phantom.fill(9);
  EXPECT_FALSE(mgr.Refetch(phantom, sc).ok());
}

// ------------------------------------------ superpeer replication

TEST(SupportSyncTest, CatchUpAdoptsLongerChain) {
  Fixture f;
  auto owner = f.MakeOwner();
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(owner->AddWitnessBlock().ok());
  SupportChain ahead(f.genesis.hash());
  SupportChain behind(f.genesis.hash());
  Superpeer peer(owner.get(), &ahead, 2);
  peer.SyncToSupport(1'000);

  const auto result = behind.SyncFrom(ahead);
  EXPECT_TRUE(result.adopted);
  EXPECT_EQ(result.new_blocks, ahead.Length());
  EXPECT_TRUE(result.dearchived.empty());
  EXPECT_EQ(behind.Length(), ahead.Length());
  EXPECT_EQ(behind.ArchivedCount(), ahead.ArchivedCount());
  EXPECT_TRUE(behind.VerifyChain());
  // Re-sync is a no-op.
  EXPECT_FALSE(behind.SyncFrom(ahead).adopted);
}

TEST(SupportSyncTest, ForkResolvesDeterministically) {
  // Two superpeers archive the same blocks in different batches
  // (a fork). Whatever the sync order, both converge on one chain.
  Fixture f;
  auto owner = f.MakeOwner();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(owner->AddWitnessBlock().ok());

  SupportChain a(f.genesis.hash());
  SupportChain b(f.genesis.hash());
  Superpeer peer_a(owner.get(), &a, /*batch_size=*/2);  // 2 support blocks
  Superpeer peer_b(owner.get(), &b, /*batch_size=*/4);  // 1 support block
  peer_a.SyncToSupport(1'000);
  peer_b.SyncToSupport(2'000);
  ASSERT_NE(a.Length(), b.Length());

  // a is longer: b adopts a; a refuses b.
  EXPECT_FALSE(a.SyncFrom(b).adopted);
  const auto result = b.SyncFrom(a);
  EXPECT_TRUE(result.adopted);
  EXPECT_EQ(b.blocks().back().hash, a.blocks().back().hash);
  EXPECT_TRUE(b.VerifyChain());
}

TEST(SupportSyncTest, EqualLengthTieBreaksOnTipHash) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto h1 = owner->AddWitnessBlock();
  ASSERT_TRUE(h1.ok());
  SupportChain a(f.genesis.hash());
  SupportChain b(f.genesis.hash());
  // Same block archived at different timestamps => different support
  // block hashes, equal lengths.
  ASSERT_TRUE(a.Archive({*owner->dag().Find(*h1)}, 1).ok());
  ASSERT_TRUE(b.Archive({*owner->dag().Find(*h1)}, 2).ok());
  ASSERT_NE(ToHex(ByteSpan(a.blocks().back().hash.data(), 32)),
            ToHex(ByteSpan(b.blocks().back().hash.data(), 32)));

  const bool a_adopted = a.SyncFrom(b).adopted;
  const bool b_adopted = b.SyncFrom(a).adopted;
  // Exactly one side switches, and both end on the same tip.
  EXPECT_NE(a_adopted, b_adopted);
  EXPECT_EQ(ToHex(ByteSpan(a.blocks().back().hash.data(), 32)),
            ToHex(ByteSpan(b.blocks().back().hash.data(), 32)));
}

TEST(SupportSyncTest, DearchivedBlocksAreReArchived) {
  Fixture f;
  auto owner = f.MakeOwner();
  const auto h1 = owner->AddWitnessBlock();
  const auto h2 = owner->AddWitnessBlock();
  ASSERT_TRUE(h1.ok() && h2.ok());

  // Loser archived both blocks; winner (longer via single-block
  // batches... make winner longer but covering only h1).
  SupportChain loser(f.genesis.hash());
  ASSERT_TRUE(loser.Archive({*owner->dag().Find(*h1),
                             *owner->dag().Find(*h2)}, 1).ok());
  SupportChain winner(f.genesis.hash());
  ASSERT_TRUE(winner.Archive({*owner->dag().Find(*h1)}, 2).ok());
  // Give the winner an extra (empty) support block so it is longer.
  ASSERT_TRUE(winner.Archive({}, 3).ok());
  ASSERT_GT(winner.Length(), loser.Length());

  const auto result = loser.SyncFrom(winner);
  ASSERT_TRUE(result.adopted);
  ASSERT_EQ(result.dearchived.size(), 1u);
  EXPECT_EQ(result.dearchived[0], *h2);
  EXPECT_FALSE(loser.IsArchived(*h2));

  // The superpeer re-archives from its DAG: nothing is lost.
  Superpeer peer(owner.get(), &loser, 4);
  EXPECT_GT(peer.SyncToSupport(4'000), 0u);
  EXPECT_TRUE(loser.IsArchived(*h2));
  EXPECT_TRUE(loser.VerifyChain());
}

TEST(SupportSyncTest, DearchivedListIsSortedByHash) {
  Fixture f;
  auto owner = f.MakeOwner();
  std::vector<BlockHash> hashes;
  for (int i = 0; i < 6; ++i) {
    const auto h = owner->AddWitnessBlock();
    ASSERT_TRUE(h.ok());
    hashes.push_back(*h);
  }
  SupportChain loser(f.genesis.hash());
  std::vector<Block> batch;
  for (const auto& h : hashes) batch.push_back(*owner->dag().Find(h));
  ASSERT_TRUE(loser.Archive(batch, 1).ok());
  // Winner is longer but archived none of them: every body falls off.
  SupportChain winner(f.genesis.hash());
  ASSERT_TRUE(winner.Archive({}, 2).ok());
  ASSERT_TRUE(winner.Archive({}, 3).ok());
  ASSERT_GT(winner.Length(), loser.Length());

  const auto result = loser.SyncFrom(winner);
  ASSERT_TRUE(result.adopted);
  ASSERT_EQ(result.dearchived.size(), hashes.size());
  // Pinned byte order: ascending hash, regardless of the unordered
  // body map's bucket layout, so every superpeer emits identically.
  EXPECT_TRUE(std::is_sorted(result.dearchived.begin(),
                             result.dearchived.end()));
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(result.dearchived, hashes);
}

TEST(SupportSyncTest, RefusesWrongGenesisAndBrokenChains) {
  Fixture f;
  auto owner = f.MakeOwner();
  ASSERT_TRUE(owner->AddWitnessBlock().ok());
  SupportChain mine(f.genesis.hash());
  chain::BlockHash other{};
  other.fill(9);
  SupportChain alien(other);
  EXPECT_FALSE(mine.SyncFrom(alien).adopted);

  SupportChain tampered(f.genesis.hash());
  Superpeer peer(owner.get(), &tampered, 2);
  peer.SyncToSupport(1'000);
  auto& blocks = const_cast<std::vector<SupportBlock>&>(tampered.blocks());
  blocks[0].payload.clear();  // break it
  EXPECT_FALSE(mine.SyncFrom(tampered).adopted);
}

TEST(SupportChainTest, TamperingDetectedByVerifyChain) {
  Fixture f;
  auto owner = f.MakeOwner();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(owner->AddWitnessBlock().ok());
  SupportChain sc(f.genesis.hash());
  Superpeer peer(owner.get(), &sc, 2);
  peer.SyncToSupport(1'000);
  ASSERT_TRUE(sc.VerifyChain());
  // Mutate a payload hash in the middle of the chain.
  auto& blocks = const_cast<std::vector<SupportBlock>&>(sc.blocks());
  blocks[0].payload[0][5] ^= 0xff;
  EXPECT_FALSE(sc.VerifyChain());
}

}  // namespace
}  // namespace vegvisir::support
