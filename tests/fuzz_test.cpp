// Decoder robustness sweep: every deserializer in the system is fed
// mutated and random input and must fail cleanly (no crash, no hang,
// no acceptance of a payload that changes identity). Complements the
// targeted cases in security_test.cpp with breadth.
#include <gtest/gtest.h>

#include "chain/certificate.h"
#include "chain/genesis.h"
#include "chain/proof.h"
#include "chain/store.h"
#include "crypto/drbg.h"
#include "csm/state_machine.h"
#include "node/node.h"
#include "recon/messages.h"
#include "util/rng.h"

namespace vegvisir {
namespace {

crypto::KeyPair TestKeys(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::KeyPair::Generate(drbg);
}

Bytes RandomBytes(Rng* rng, std::size_t max_len) {
  Bytes out(rng->NextBelow(max_len));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng->NextU64());
  return out;
}

// Flips 1..4 random bits/bytes in a copy of `valid`.
Bytes Mutate(const Bytes& valid, Rng* rng) {
  Bytes out = valid;
  if (out.empty()) return out;
  const int flips = 1 + static_cast<int>(rng->NextBelow(4));
  for (int i = 0; i < flips; ++i) {
    out[rng->NextBelow(out.size())] ^=
        static_cast<std::uint8_t>(1 + rng->NextBelow(255));
  }
  return out;
}

TEST(FuzzTest, CertificateDecoder) {
  const crypto::KeyPair ca = TestKeys(1);
  const chain::Certificate cert = chain::IssueCertificate(
      "user", TestKeys(2).public_key(), "medic", ca);
  const Bytes valid = cert.Serialize();
  Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    const Bytes input =
        (i % 2 == 0) ? Mutate(valid, &rng) : RandomBytes(&rng, 300);
    const auto result = chain::Certificate::Deserialize(input);
    if (result.ok() && input != valid) {
      // A decodable mutation must not still verify as CA-signed.
      EXPECT_FALSE(chain::VerifyCertificate(*result, ca.public_key()))
          << "mutation " << i;
    }
  }
}

TEST(FuzzTest, TransactionDecoder) {
  chain::Transaction tx;
  tx.crdt_name = "payload";
  tx.op = "add";
  tx.args = {crdt::Value::OfStr("value"), crdt::Value::OfInt(7)};
  serial::Writer w;
  tx.Encode(&w);
  const Bytes valid = w.Take();
  Rng rng(13);
  for (int i = 0; i < 400; ++i) {
    const Bytes input =
        (i % 2 == 0) ? Mutate(valid, &rng) : RandomBytes(&rng, 200);
    serial::Reader r(input);
    chain::Transaction out;
    (void)chain::Transaction::Decode(&r, &out);  // must not crash
  }
  SUCCEED();
}

TEST(FuzzTest, AllReconMessageDecoders) {
  Rng rng(17);
  for (int i = 0; i < 600; ++i) {
    const Bytes garbage = RandomBytes(&rng, 250);
    recon::FrontierRequest req;
    recon::FrontierResponse resp;
    recon::BlockRequest breq;
    recon::BlockResponse bresp;
    recon::PushBlocks push;
    (void)recon::DecodeMessage(garbage, &req);
    (void)recon::DecodeMessage(garbage, &resp);
    (void)recon::DecodeMessage(garbage, &breq);
    (void)recon::DecodeMessage(garbage, &bresp);
    (void)recon::DecodeMessage(garbage, &push);
  }
  SUCCEED();
}

TEST(FuzzTest, DagFileDecoder) {
  const crypto::KeyPair owner = TestKeys(1);
  const chain::Block genesis =
      chain::GenesisBuilder("fuzz").Build("owner", owner);
  node::NodeConfig cfg;
  cfg.user_id = "owner";
  node::Node node(cfg, genesis, owner);
  node.SetTime(10'000);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(node.AddWitnessBlock().ok());
  const Bytes valid = chain::SerializeDag(node.dag());

  Rng rng(19);
  int accepted_mutations = 0;
  for (int i = 0; i < 300; ++i) {
    const Bytes input =
        (i % 2 == 0) ? Mutate(valid, &rng) : RandomBytes(&rng, 400);
    if (chain::DeserializeDag(input).ok() && input != valid) {
      ++accepted_mutations;
    }
  }
  // The SHA-256 checksum makes accepted mutations essentially
  // impossible.
  EXPECT_EQ(accepted_mutations, 0);
}

TEST(FuzzTest, SnapshotDecoder) {
  const crypto::KeyPair owner = TestKeys(1);
  const chain::Block genesis =
      chain::GenesisBuilder("fuzz").Build("owner", owner);
  csm::StateMachine sm;
  sm.ApplyBlock(genesis);
  const Bytes valid = sm.SaveSnapshot();

  Rng rng(23);
  int accepted_mutations = 0;
  for (int i = 0; i < 300; ++i) {
    const Bytes input =
        (i % 2 == 0) ? Mutate(valid, &rng) : RandomBytes(&rng, 400);
    csm::StateMachine restored;
    if (restored.LoadSnapshot(input).ok() && input != valid) {
      ++accepted_mutations;
    }
  }
  EXPECT_EQ(accepted_mutations, 0);  // checksummed
}

TEST(FuzzTest, WitnessProofDecoder) {
  Rng rng(29);
  for (int i = 0; i < 300; ++i) {
    (void)chain::WitnessProof::Deserialize(RandomBytes(&rng, 500));
  }
  SUCCEED();
}

TEST(FuzzTest, ValueDecoderNeverOverreads) {
  Rng rng(37);
  for (int i = 0; i < 500; ++i) {
    const Bytes garbage = RandomBytes(&rng, 64);
    serial::Reader r(garbage);
    crdt::Value v;
    while (crdt::Value::Decode(&r, &v).ok()) {
      // Values parsed from garbage are fine; the reader must make
      // progress and stay in bounds (terminates by construction).
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace vegvisir
