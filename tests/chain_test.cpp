#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "chain/block.h"
#include "chain/certificate.h"
#include "chain/dag.h"
#include "chain/genesis.h"
#include "chain/store.h"
#include "chain/transaction.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "util/rng.h"

namespace vegvisir::chain {
namespace {

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

Transaction SampleTx(const std::string& name = "H") {
  Transaction tx;
  tx.crdt_name = name;
  tx.op = "add";
  tx.args = {crdt::Value::OfStr("record-1")};
  return tx;
}

// Convenient chain fixture: an owner, a genesis and helper block
// construction on arbitrary parents.
struct Fixture {
  crypto::KeyPair owner = TestKeys(1);
  Block genesis =
      GenesisBuilder("test-chain").WithTimestamp(100).Build("owner", owner);

  Block MakeBlock(const std::vector<BlockHash>& parents, std::uint64_t ts,
                  const crypto::KeyPair& keys, const std::string& user,
                  std::vector<Transaction> txns = {}) {
    BlockHeader h;
    h.user_id = user;
    h.timestamp_ms = ts;
    h.parents = parents;
    return Block::Create(std::move(h), std::move(txns), keys);
  }
};

// ------------------------------------------------------------ Certificate

TEST(CertificateTest, IssueAndVerify) {
  const crypto::KeyPair ca = TestKeys(1);
  const crypto::KeyPair user = TestKeys(2);
  const Certificate cert =
      IssueCertificate("medic-7", user.public_key(), "medic", ca);
  EXPECT_EQ(cert.user_id, "medic-7");
  EXPECT_EQ(cert.role, "medic");
  EXPECT_TRUE(VerifyCertificate(cert, ca.public_key()));
}

TEST(CertificateTest, WrongCaFailsVerification) {
  const crypto::KeyPair ca = TestKeys(1);
  const crypto::KeyPair impostor = TestKeys(3);
  const crypto::KeyPair user = TestKeys(2);
  const Certificate cert =
      IssueCertificate("medic-7", user.public_key(), "medic", ca);
  EXPECT_FALSE(VerifyCertificate(cert, impostor.public_key()));
}

TEST(CertificateTest, TamperedRoleFailsVerification) {
  const crypto::KeyPair ca = TestKeys(1);
  const crypto::KeyPair user = TestKeys(2);
  Certificate cert = IssueCertificate("u", user.public_key(), "medic", ca);
  cert.role = "owner";  // privilege escalation attempt
  EXPECT_FALSE(VerifyCertificate(cert, ca.public_key()));
}

TEST(CertificateTest, SerializeRoundTrip) {
  const crypto::KeyPair ca = TestKeys(1);
  const crypto::KeyPair user = TestKeys(2);
  const Certificate cert = IssueCertificate("u", user.public_key(), "r", ca);
  const auto back = Certificate::Deserialize(cert.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, cert);
}

TEST(CertificateTest, DeserializeRejectsTrailingBytes) {
  const crypto::KeyPair ca = TestKeys(1);
  Certificate cert = IssueCertificate("u", ca.public_key(), "r", ca);
  Bytes raw = cert.Serialize();
  raw.push_back(0x00);
  EXPECT_FALSE(Certificate::Deserialize(raw).ok());
}

// ------------------------------------------------------------ Transaction

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction tx;
  tx.crdt_name = "sensor-readings";
  tx.op = "add";
  tx.args = {crdt::Value::OfStr("t=23.5"), crdt::Value::OfInt(42),
             crdt::Value::OfBytes({1, 2, 3})};
  serial::Writer w;
  tx.Encode(&w);
  serial::Reader r(w.buffer());
  Transaction out;
  ASSERT_TRUE(Transaction::Decode(&r, &out).ok());
  EXPECT_EQ(out, tx);
}

TEST(TransactionTest, BogusArgCountRejected) {
  serial::Writer w;
  w.WriteString("name");
  w.WriteString("op");
  w.WriteVarint(1'000'000);  // claims a million args
  serial::Reader r(w.buffer());
  Transaction out;
  EXPECT_FALSE(Transaction::Decode(&r, &out).ok());
}

// ------------------------------------------------------------------ Block

TEST(BlockTest, CreateSortsAndDedupesParents) {
  Fixture f;
  BlockHash a{}, b{};
  a.fill(0xbb);
  b.fill(0xaa);
  BlockHeader h;
  h.user_id = "owner";
  h.timestamp_ms = 200;
  h.parents = {a, b, a};
  const Block block = Block::Create(std::move(h), {}, f.owner);
  ASSERT_EQ(block.header().parents.size(), 2u);
  EXPECT_EQ(block.header().parents[0], b);
  EXPECT_EQ(block.header().parents[1], a);
}

TEST(BlockTest, SerializeRoundTripPreservesHash) {
  Fixture f;
  const Block block = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner",
                                  {SampleTx()});
  const auto back = Block::Deserialize(block.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->hash(), block.hash());
  EXPECT_EQ(back->header(), block.header());
  EXPECT_EQ(back->transactions(), block.transactions());
}

TEST(BlockTest, SignatureVerifiesWithCreatorKeyOnly) {
  Fixture f;
  const Block block = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  EXPECT_TRUE(block.VerifySignature(f.owner.public_key()));
  EXPECT_FALSE(block.VerifySignature(TestKeys(9).public_key()));
}

TEST(BlockTest, TamperingChangesHashAndBreaksSignature) {
  Fixture f;
  const Block block = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner",
                                  {SampleTx()});
  Bytes raw = block.Serialize();
  // Flip one byte somewhere in the middle (the transaction payload).
  raw[raw.size() / 2] ^= 0x01;
  const auto tampered = Block::Deserialize(raw);
  if (tampered.ok()) {
    EXPECT_NE(tampered->hash(), block.hash());
    EXPECT_FALSE(tampered->VerifySignature(f.owner.public_key()));
  }
  // else: the codec itself rejected the tampering — also a pass.
}

TEST(BlockTest, DeserializeRejectsUnsortedParents) {
  Fixture f;
  // Hand-craft an encoding with descending parents.
  BlockHash a{}, b{};
  a.fill(0x01);
  b.fill(0x02);
  serial::Writer w;
  w.WriteString("owner");
  w.WriteU64(5);
  w.WriteBool(false);
  w.WriteVarint(2);
  w.WriteFixed(b);  // descending: b > a
  w.WriteFixed(a);
  w.WriteVarint(0);
  crypto::Signature sig{};
  w.WriteFixed(sig.bytes);
  EXPECT_FALSE(Block::Deserialize(w.buffer()).ok());
}

TEST(BlockTest, LocationRoundTrip) {
  Fixture f;
  BlockHeader h;
  h.user_id = "owner";
  h.timestamp_ms = 300;
  h.parents = {f.genesis.hash()};
  h.location = GeoLocation{42.44, -76.48};  // Ithaca, NY
  const Block block = Block::Create(std::move(h), {}, f.owner);
  const auto back = Block::Deserialize(block.Serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back->header().location.has_value());
  EXPECT_EQ(back->header().location->latitude, 42.44);
  EXPECT_EQ(back->header().location->longitude, -76.48);
}

TEST(BlockTest, EmptyBlockIsLegal) {
  Fixture f;
  const Block witness = f.MakeBlock({f.genesis.hash()}, 150, f.owner, "owner");
  EXPECT_TRUE(witness.transactions().empty());
  EXPECT_TRUE(Block::Deserialize(witness.Serialize()).ok());
}

// ---------------------------------------------------------------- Genesis

TEST(GenesisTest, CarriesSelfSignedOwnerCertAndChainName) {
  Fixture f;
  ASSERT_EQ(f.genesis.transactions().size(), 2u);
  const Transaction& enrol = f.genesis.transactions()[0];
  EXPECT_EQ(enrol.crdt_name, kUsersCrdtName);
  EXPECT_EQ(enrol.op, "add");
  const auto cert = Certificate::Deserialize(enrol.args[0].AsBytes());
  ASSERT_TRUE(cert.ok());
  EXPECT_EQ(cert->user_id, "owner");
  EXPECT_EQ(cert->role, kOwnerRole);
  EXPECT_TRUE(VerifyCertificate(*cert, cert->public_key));  // self-signed

  const Transaction& meta = f.genesis.transactions()[1];
  EXPECT_EQ(meta.crdt_name, kMetaCrdtName);
  EXPECT_EQ(meta.args[1].AsStr(), "test-chain");
}

TEST(GenesisTest, HasNoParents) {
  Fixture f;
  EXPECT_TRUE(f.genesis.header().parents.empty());
}

TEST(GenesisTest, DifferentChainsHaveDifferentGenesisHashes) {
  Fixture f;
  const Block other =
      GenesisBuilder("other-chain").WithTimestamp(100).Build("owner", f.owner);
  EXPECT_NE(other.hash(), f.genesis.hash());
}

// -------------------------------------------------------------------- DAG

TEST(DagTest, StartsWithGenesisAsFrontier) {
  Fixture f;
  Dag dag(f.genesis);
  EXPECT_EQ(dag.Size(), 1u);
  EXPECT_EQ(dag.Frontier(), std::vector<BlockHash>{f.genesis.hash()});
  EXPECT_EQ(dag.genesis_hash(), f.genesis.hash());
}

TEST(DagTest, InsertMaintainsFrontier) {
  Fixture f;
  Dag dag(f.genesis);
  const Block b1 = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(b1).ok());
  EXPECT_EQ(dag.Frontier(), std::vector<BlockHash>{b1.hash()});
  EXPECT_EQ(dag.ChildrenOf(f.genesis.hash()),
            std::vector<BlockHash>{b1.hash()});
}

TEST(DagTest, DuplicateInsertRejected) {
  Fixture f;
  Dag dag(f.genesis);
  const Block b1 = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(b1).ok());
  EXPECT_EQ(dag.Insert(b1).code(), ErrorCode::kAlreadyExists);
}

TEST(DagTest, MissingParentRejected) {
  Fixture f;
  Dag dag(f.genesis);
  BlockHash phantom{};
  phantom.fill(0x42);
  const Block orphan = f.MakeBlock({phantom}, 200, f.owner, "owner");
  EXPECT_EQ(dag.Insert(orphan).code(), ErrorCode::kNotFound);
}

TEST(DagTest, SecondGenesisRejected) {
  Fixture f;
  Dag dag(f.genesis);
  const Block fake =
      GenesisBuilder("evil").WithTimestamp(1).Build("owner", f.owner);
  EXPECT_EQ(dag.Insert(fake).code(), ErrorCode::kFailedPrecondition);
}

TEST(DagTest, BranchesWidenFrontier) {
  Fixture f;
  Dag dag(f.genesis);
  const Block a = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  const Block b = f.MakeBlock({f.genesis.hash()}, 201, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(a).ok());
  ASSERT_TRUE(dag.Insert(b).ok());
  EXPECT_EQ(dag.Frontier().size(), 2u);
  // A merge block reins the branches back in (paper Fig. 1).
  const Block merge =
      f.MakeBlock({a.hash(), b.hash()}, 300, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(merge).ok());
  EXPECT_EQ(dag.Frontier(), std::vector<BlockHash>{merge.hash()});
}

TEST(DagTest, FrontierLevels) {
  // genesis <- a <- b <- c   (a chain)
  Fixture f;
  Dag dag(f.genesis);
  const Block a = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  const Block b = f.MakeBlock({a.hash()}, 300, f.owner, "owner");
  const Block c = f.MakeBlock({b.hash()}, 400, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(a).ok());
  ASSERT_TRUE(dag.Insert(b).ok());
  ASSERT_TRUE(dag.Insert(c).ok());

  EXPECT_EQ(dag.FrontierLevel(1).size(), 1u);  // {c}
  EXPECT_EQ(dag.FrontierLevel(2).size(), 2u);  // {c, b}
  EXPECT_EQ(dag.FrontierLevel(3).size(), 3u);  // {c, b, a}
  EXPECT_EQ(dag.FrontierLevel(4).size(), 4u);  // + genesis
  EXPECT_EQ(dag.FrontierLevel(99).size(), 4u);  // saturates at the whole DAG
}

TEST(DagTest, TopologicalOrderRespectsParents) {
  Fixture f;
  Dag dag(f.genesis);
  const Block a = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  const Block b = f.MakeBlock({f.genesis.hash()}, 201, f.owner, "owner");
  const Block m = f.MakeBlock({a.hash(), b.hash()}, 300, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(a).ok());
  ASSERT_TRUE(dag.Insert(b).ok());
  ASSERT_TRUE(dag.Insert(m).ok());

  const auto order = dag.TopologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], f.genesis.hash());
  EXPECT_EQ(order[3], m.hash());
  const auto pos = [&](const BlockHash& h) {
    return std::find(order.begin(), order.end(), h) - order.begin();
  };
  EXPECT_LT(pos(a.hash()), pos(m.hash()));
  EXPECT_LT(pos(b.hash()), pos(m.hash()));
}

// The canonical order as a plain hash-map Kahn over a parent table:
// parents first, ready ties broken by the smallest hash. The DAG's
// slot-indexed walk must reproduce it byte for byte.
std::vector<BlockHash> CanonicalOrder(
    const BlockHash& genesis,
    const std::map<BlockHash, std::vector<BlockHash>>& parents_of) {
  std::unordered_map<BlockHash, std::vector<BlockHash>, BlockHashHasher>
      children;
  std::unordered_map<BlockHash, std::size_t, BlockHashHasher> pending;
  for (const auto& [h, parents] : parents_of) {
    pending[h] = parents.size();
    for (const BlockHash& p : parents) children[p].push_back(h);
  }
  std::priority_queue<BlockHash, std::vector<BlockHash>,
                      std::greater<BlockHash>>
      ready;
  ready.push(genesis);
  std::vector<BlockHash> order;
  while (!ready.empty()) {
    const BlockHash h = ready.top();
    ready.pop();
    order.push_back(h);
    for (const BlockHash& c : children[h]) {
      if (--pending[c] == 0) ready.push(c);
    }
  }
  return order;
}

// A random parent-respecting permutation of `blocks`, which are in
// creation order (every parent precedes its children).
std::vector<const Block*> RandomTopologicalPermutation(
    const BlockHash& genesis, const std::vector<Block>& blocks, Rng* rng) {
  std::set<BlockHash> placed = {genesis};
  std::vector<const Block*> left;
  for (const Block& b : blocks) left.push_back(&b);
  std::vector<const Block*> out;
  while (!left.empty()) {
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < left.size(); ++i) {
      const auto& parents = left[i]->header().parents;
      if (std::all_of(parents.begin(), parents.end(), [&](const BlockHash& p) {
            return placed.count(p) > 0;
          })) {
        ready.push_back(i);
      }
    }
    const std::size_t pick = ready[rng->NextBelow(ready.size())];
    out.push_back(left[pick]);
    placed.insert(left[pick]->hash());
    left.erase(left.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return out;
}

TEST(DagTest, TopologicalOrderMatchesCanonicalOracle) {
  Fixture f;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    // Random DAG: each block names one to three distinct earlier
    // blocks (or the genesis) as parents.
    std::vector<Block> blocks;
    std::vector<BlockHash> known = {f.genesis.hash()};
    std::map<BlockHash, std::vector<BlockHash>> parents_of = {
        {f.genesis.hash(), {}}};
    for (int i = 0; i < 40; ++i) {
      std::set<BlockHash> picked;
      const std::uint64_t want = 1 + rng.NextBelow(3);
      for (std::uint64_t j = 0; j < want; ++j) {
        picked.insert(known[rng.NextBelow(known.size())]);
      }
      const std::vector<BlockHash> parents(picked.begin(), picked.end());
      blocks.push_back(f.MakeBlock(parents, 200 + seed * 1000 + i, f.owner,
                                   "owner"));
      known.push_back(blocks.back().hash());
      parents_of[blocks.back().hash()] = parents;
    }
    const std::vector<BlockHash> oracle =
        CanonicalOrder(f.genesis.hash(), parents_of);
    ASSERT_EQ(oracle.size(), blocks.size() + 1);

    // Several replicas, each fed its own parent-respecting order, with
    // some blocks arriving as evicted stubs and some bodies evicted
    // afterwards.
    std::vector<std::vector<const Block*>> orders;
    orders.emplace_back();
    for (const Block& b : blocks) orders.back().push_back(&b);
    for (int r = 0; r < 3; ++r) {
      orders.push_back(RandomTopologicalPermutation(f.genesis.hash(), blocks, &rng));
    }
    for (const auto& order : orders) {
      Dag dag(f.genesis);
      std::set<BlockHash> bodiless;
      for (const Block* b : order) {
        if (rng.NextBelow(5) == 0) {
          ASSERT_TRUE(dag.InsertEvictedStub(b->hash(), b->header().parents,
                                            b->header().user_id,
                                            b->header().timestamp_ms,
                                            b->EncodedSize())
                          .ok());
          bodiless.insert(b->hash());
        } else {
          ASSERT_TRUE(dag.Insert(*b).ok());
        }
      }
      for (const Block& b : blocks) {
        if (rng.NextBelow(4) == 0 && dag.Evict(b.hash()).ok()) {
          bodiless.insert(b.hash());
        }
      }
      EXPECT_EQ(dag.TopologicalOrder(), oracle);

      std::set<BlockHash> stored;
      for (const BlockHash& h : dag.Hashes()) {
        if (dag.Find(h) != nullptr) stored.insert(h);
      }
      std::set<BlockHash> expected_stored;
      for (const BlockHash& h : oracle) {
        if (bodiless.count(h) == 0) expected_stored.insert(h);
      }
      EXPECT_EQ(stored, expected_stored);
    }

    // A copy extended after the copy leaves the original untouched.
    Dag original(f.genesis);
    const std::size_t split = blocks.size() / 2;
    for (std::size_t i = 0; i < split; ++i) {
      ASSERT_TRUE(original.Insert(blocks[i]).ok());
    }
    const std::vector<BlockHash> order_before = original.TopologicalOrder();
    const std::vector<BlockHash> hashes_before = original.Hashes();
    Dag copy = original;
    for (std::size_t i = split; i < blocks.size(); ++i) {
      ASSERT_TRUE(copy.Insert(blocks[i]).ok());
    }
    EXPECT_EQ(original.TopologicalOrder(), order_before);
    EXPECT_EQ(original.Hashes(), hashes_before);
    EXPECT_EQ(original.Size(), split + 1);
    EXPECT_EQ(copy.TopologicalOrder(), oracle);
  }
}

// Every block's parents sit at lower slots than the block itself, so
// Hashes() is a parents-first walk.
void ExpectSlotOrderIsTopological(const Dag& dag) {
  std::unordered_map<BlockHash, std::size_t, BlockHashHasher> slot_of;
  for (std::size_t s = 0; s < dag.Hashes().size(); ++s) {
    slot_of.emplace(dag.Hashes()[s], s);
  }
  ASSERT_EQ(slot_of.size(), dag.Size());
  for (std::size_t s = 0; s < dag.Hashes().size(); ++s) {
    for (const BlockHash& p : dag.ParentsOf(dag.Hashes()[s])) {
      ASSERT_EQ(slot_of.count(p), 1u);
      EXPECT_LT(slot_of.at(p), s);
    }
  }
}

TEST(DagTest, SlotOrderIsTopological) {
  Fixture f;
  Rng rng(11);
  // A wide DAG: each block names one to three of the last eight
  // blocks as parents, so many blocks are concurrent.
  std::vector<Block> blocks;
  std::vector<BlockHash> known = {f.genesis.hash()};
  for (int i = 0; i < 60; ++i) {
    const std::size_t window = std::min<std::size_t>(known.size(), 8);
    std::set<BlockHash> picked;
    const std::uint64_t want = 1 + rng.NextBelow(3);
    for (std::uint64_t j = 0; j < want; ++j) {
      picked.insert(known[known.size() - 1 - rng.NextBelow(window)]);
    }
    const std::vector<BlockHash> parents(picked.begin(), picked.end());
    blocks.push_back(
        f.MakeBlock(parents, 200 + i, f.owner, "owner", {SampleTx()}));
    known.push_back(blocks.back().hash());
  }

  std::vector<std::vector<const Block*>> orders;
  orders.emplace_back();
  for (const Block& b : blocks) orders.back().push_back(&b);
  for (int r = 0; r < 3; ++r) {
    orders.push_back(
        RandomTopologicalPermutation(f.genesis.hash(), blocks, &rng));
  }
  for (const auto& order : orders) {
    // Insert, some blocks arriving as evicted stubs: the slots are
    // exactly the arrival order.
    Dag dag(f.genesis);
    std::vector<BlockHash> arrival = {f.genesis.hash()};
    for (const Block* b : order) {
      if (rng.NextBelow(5) == 0) {
        ASSERT_TRUE(dag.InsertEvictedStub(b->hash(), b->header().parents,
                                          b->header().user_id,
                                          b->header().timestamp_ms,
                                          b->EncodedSize())
                        .ok());
      } else {
        ASSERT_TRUE(dag.Insert(*b).ok());
      }
      arrival.push_back(b->hash());
    }
    EXPECT_EQ(dag.Hashes(), arrival);
    ExpectSlotOrderIsTopological(dag);

    // Evicting and restoring bodies never moves a slot.
    std::vector<const Block*> evicted;
    for (const Block& b : blocks) {
      if (rng.NextBelow(3) == 0 && dag.Evict(b.hash()).ok()) {
        evicted.push_back(&b);
      }
    }
    ASSERT_FALSE(evicted.empty());
    EXPECT_EQ(dag.Hashes(), arrival);
    for (const Block* b : evicted) ASSERT_TRUE(dag.Restore(*b).ok());
    EXPECT_EQ(dag.Hashes(), arrival);
    ExpectSlotOrderIsTopological(dag);

    // A persisted replica reloads into the same slots, stubs included.
    auto loaded = DeserializeDag(SerializeDag(dag));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->Hashes(), dag.Hashes());
    for (const BlockHash& h : dag.Hashes()) {
      EXPECT_EQ(loaded->PresenceOf(h), dag.PresenceOf(h));
    }
    ExpectSlotOrderIsTopological(*loaded);
  }
}

// Hashes() is insertion order, so each prefix is the DAG as it was at
// that size, and that earlier DAG's canonical order is the current
// order filtered to the prefix: adding sinks never reorders older
// blocks.
TEST(DagTest, HashesPrefixIsTheEarlierDag) {
  Fixture f;
  Rng rng(7);
  Dag dag(f.genesis);
  std::vector<BlockHash> known = {f.genesis.hash()};
  std::map<BlockHash, std::vector<BlockHash>> parents_of = {
      {f.genesis.hash(), {}}};
  std::vector<std::map<BlockHash, std::vector<BlockHash>>> dag_at_size = {
      {}, parents_of};
  for (int i = 0; i < 30; ++i) {
    std::set<BlockHash> picked = {known[rng.NextBelow(known.size())],
                                  known[rng.NextBelow(known.size())]};
    const std::vector<BlockHash> parents(picked.begin(), picked.end());
    const Block b = f.MakeBlock(parents, 200 + i, f.owner, "owner");
    ASSERT_TRUE(dag.Insert(b).ok());
    known.push_back(b.hash());
    parents_of[b.hash()] = parents;
    dag_at_size.push_back(parents_of);
    ASSERT_EQ(dag_at_size.size(), dag.Size() + 1);
  }

  const std::vector<BlockHash> order = dag.TopologicalOrder();
  for (std::size_t k = 1; k <= dag.Size(); ++k) {
    std::set<BlockHash> prefix(dag.Hashes().begin(),
                               dag.Hashes().begin() +
                                   static_cast<std::ptrdiff_t>(k));
    std::set<BlockHash> then;
    for (const auto& entry : dag_at_size[k]) then.insert(entry.first);
    EXPECT_EQ(prefix, then) << "k=" << k;

    std::vector<BlockHash> filtered;
    for (const BlockHash& h : order) {
      if (prefix.count(h) > 0) filtered.push_back(h);
    }
    EXPECT_EQ(filtered, CanonicalOrder(f.genesis.hash(), dag_at_size[k]))
        << "k=" << k;
  }
}

TEST(DagTest, AncestryQueries) {
  Fixture f;
  Dag dag(f.genesis);
  const Block a = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  const Block b = f.MakeBlock({a.hash()}, 300, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(a).ok());
  ASSERT_TRUE(dag.Insert(b).ok());

  EXPECT_TRUE(dag.IsAncestor(f.genesis.hash(), b.hash()));
  EXPECT_TRUE(dag.IsAncestor(a.hash(), b.hash()));
  EXPECT_FALSE(dag.IsAncestor(b.hash(), a.hash()));
  EXPECT_FALSE(dag.IsAncestor(a.hash(), a.hash()));
  EXPECT_TRUE(dag.IsAncestor(a.hash(), a.hash(), /*include_self=*/true));

  EXPECT_EQ(dag.Ancestors(b.hash()).size(), 2u);
  EXPECT_EQ(dag.Descendants(f.genesis.hash()).size(), 2u);
}

TEST(DagTest, MaxParentTimestamp) {
  Fixture f;
  Dag dag(f.genesis);
  const Block a = f.MakeBlock({f.genesis.hash()}, 250, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(a).ok());
  EXPECT_EQ(dag.MaxParentTimestamp({f.genesis.hash(), a.hash()}), 250u);
  EXPECT_EQ(dag.MaxParentTimestamp({}), 0u);
}

TEST(DagTest, WitnessCountsDistinctOtherCreators) {
  Fixture f;
  const crypto::KeyPair alice = TestKeys(2), bob = TestKeys(3);
  Dag dag(f.genesis);
  const Block target = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(target).ok());

  // Witness blocks by alice and bob; plus one by the creator itself
  // (must not count).
  const Block w1 = f.MakeBlock({target.hash()}, 300, alice, "alice");
  const Block w2 = f.MakeBlock({w1.hash()}, 400, bob, "bob");
  const Block self = f.MakeBlock({w2.hash()}, 500, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(w1).ok());
  ASSERT_TRUE(dag.Insert(w2).ok());
  ASSERT_TRUE(dag.Insert(self).ok());

  EXPECT_EQ(dag.WitnessesOf(target.hash()).size(), 2u);
  EXPECT_TRUE(dag.HasProofOfWitness(target.hash(), 2));
  EXPECT_FALSE(dag.HasProofOfWitness(target.hash(), 3));
  // A witness on w1 also witnesses w1's ancestors transitively (the
  // proof-of-witness applies to all ancestors, paper §IV-H).
  EXPECT_EQ(dag.WitnessesOf(w1.hash()).size(), 2u);  // bob + owner
}

TEST(DagTest, EvictionRules) {
  Fixture f;
  Dag dag(f.genesis);
  const Block a = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner",
                              {SampleTx()});
  const Block b = f.MakeBlock({a.hash()}, 300, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(a).ok());
  ASSERT_TRUE(dag.Insert(b).ok());

  EXPECT_FALSE(dag.Evict(f.genesis.hash()).ok());  // never the genesis
  EXPECT_FALSE(dag.Evict(b.hash()).ok());          // frontier protected

  const std::size_t bytes_before = dag.StoredBytes();
  ASSERT_TRUE(dag.Evict(a.hash()).ok());
  EXPECT_EQ(dag.PresenceOf(a.hash()), Presence::kEvicted);
  EXPECT_EQ(dag.Find(a.hash()), nullptr);
  EXPECT_LT(dag.StoredBytes(), bytes_before);
  EXPECT_EQ(dag.Size(), 3u);          // stub still counted
  EXPECT_EQ(dag.StoredCount(), 2u);
  EXPECT_FALSE(dag.Evict(a.hash()).ok());  // double eviction

  // Linkage still works: topo order, ancestry, frontier unaffected.
  EXPECT_EQ(dag.TopologicalOrder().size(), 3u);
  EXPECT_TRUE(dag.IsAncestor(a.hash(), b.hash()));
}

TEST(DagTest, RestoreBringsBodyBack) {
  Fixture f;
  Dag dag(f.genesis);
  const Block a = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner",
                              {SampleTx()});
  const Block b = f.MakeBlock({a.hash()}, 300, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(a).ok());
  ASSERT_TRUE(dag.Insert(b).ok());
  ASSERT_TRUE(dag.Evict(a.hash()).ok());
  ASSERT_TRUE(dag.Restore(a).ok());
  EXPECT_EQ(dag.PresenceOf(a.hash()), Presence::kStored);
  ASSERT_NE(dag.Find(a.hash()), nullptr);
  EXPECT_EQ(dag.Find(a.hash())->hash(), a.hash());
  // Restoring a stored block or an unknown block fails.
  EXPECT_FALSE(dag.Restore(a).ok());
  const Block stranger = f.MakeBlock({f.genesis.hash()}, 999, f.owner, "owner");
  EXPECT_FALSE(dag.Restore(stranger).ok());
}

TEST(DagTest, FrontierDigestTracksFrontier) {
  Fixture f;
  Dag a(f.genesis);
  Dag b(f.genesis);
  EXPECT_EQ(a.FrontierDigest(), b.FrontierDigest());

  const Block blk = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  ASSERT_TRUE(a.Insert(blk).ok());
  EXPECT_NE(a.FrontierDigest(), b.FrontierDigest());
  ASSERT_TRUE(b.Insert(blk).ok());
  EXPECT_EQ(a.FrontierDigest(), b.FrontierDigest());
}

TEST(DagTest, FrontierDigestIndependentOfInteriorBlocks) {
  // Digest covers the frontier only; two DAGs with equal frontiers
  // have equal digests (and, by the DAG invariant, equal contents).
  Fixture f;
  Dag a(f.genesis);
  const Block b1 = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  const Block b2 = f.MakeBlock({b1.hash()}, 300, f.owner, "owner");
  ASSERT_TRUE(a.Insert(b1).ok());
  ASSERT_TRUE(a.Insert(b2).ok());
  EXPECT_EQ(a.Frontier(), std::vector<BlockHash>{b2.hash()});
  // Evicting an interior body does not change the frontier digest.
  const BlockHash digest_before = a.FrontierDigest();
  ASSERT_TRUE(a.Evict(b1.hash()).ok());
  EXPECT_EQ(a.FrontierDigest(), digest_before);
}

TEST(DagTest, StoredOldestFirstOrdersByTimestamp) {
  Fixture f;
  Dag dag(f.genesis);
  const Block a = f.MakeBlock({f.genesis.hash()}, 200, f.owner, "owner");
  const Block b = f.MakeBlock({a.hash()}, 300, f.owner, "owner");
  ASSERT_TRUE(dag.Insert(a).ok());
  ASSERT_TRUE(dag.Insert(b).ok());
  const auto oldest = dag.StoredOldestFirst();
  ASSERT_EQ(oldest.size(), 3u);
  EXPECT_EQ(oldest[0], f.genesis.hash());
  EXPECT_EQ(oldest[1], a.hash());
  EXPECT_EQ(oldest[2], b.hash());
}

}  // namespace
}  // namespace vegvisir::chain
