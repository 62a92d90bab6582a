// Property tests for the central CRDT guarantee: applying the same
// *set* of operations in any order yields the same state. Vegvisir's
// partition tolerance rests on this (paper §IV-C) — any total order
// consistent with the DAG's partial order must produce the same
// interpretation, and we test an even stronger property (arbitrary
// permutations, not just DAG-consistent ones).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "crdt/crdt.h"
#include "util/rng.h"

namespace vegvisir::crdt {

// Names each case by its type (gtest would otherwise print the enum
// as its raw bytes into the CTest name).
void PrintTo(CrdtType type, std::ostream* os) { *os << CrdtTypeName(type); }

namespace {

struct GeneratedOp {
  std::string op;
  std::vector<Value> args;
  OpContext ctx;
};

// Generates a random but *internally consistent* operation history
// for the given CRDT type (removes may reference generated add tags,
// MV writes may supersede earlier writes, and so on).
std::vector<GeneratedOp> GenerateOps(CrdtType type, std::size_t count,
                                     Rng* rng) {
  std::vector<GeneratedOp> ops;
  std::vector<std::string> tag_pool;  // tx ids usable as causal context
  const std::vector<std::string> users = {"alice", "bob", "carol"};

  for (std::size_t i = 0; i < count; ++i) {
    GeneratedOp g;
    g.ctx.tx_id = "tx" + std::to_string(1000 + i);
    g.ctx.user_id = users[rng->NextBelow(users.size())];
    g.ctx.timestamp = 1 + rng->NextBelow(50);  // deliberate tie collisions
    const Value elem = Value::OfStr("e" + std::to_string(rng->NextBelow(8)));

    switch (type) {
      case CrdtType::kGSet:
        g.op = "add";
        g.args = {elem};
        break;
      case CrdtType::kTwoPSet:
        g.op = rng->NextBool(0.3) ? "remove" : "add";
        g.args = {elem};
        break;
      case CrdtType::kOrSet:
        if (rng->NextBool(0.3) && !tag_pool.empty()) {
          g.op = "remove";
          g.args = {elem};
          // Tombstone a random subset of known tags.
          for (const std::string& tag : tag_pool) {
            if (rng->NextBool(0.4)) g.args.push_back(Value::OfStr(tag));
          }
          if (g.args.size() == 1) {
            g.args.push_back(Value::OfStr(tag_pool[0]));
          }
        } else {
          g.op = "add";
          g.args = {elem};
          tag_pool.push_back(g.ctx.tx_id);
        }
        break;
      case CrdtType::kGCounter:
        g.op = "inc";
        if (rng->NextBool(0.5)) {
          g.args = {Value::OfInt(static_cast<std::int64_t>(
              rng->NextBelow(10)))};
        }
        break;
      case CrdtType::kPnCounter:
        g.op = rng->NextBool(0.4) ? "dec" : "inc";
        g.args = {Value::OfInt(static_cast<std::int64_t>(
            rng->NextBelow(10)))};
        break;
      case CrdtType::kLwwRegister:
        g.op = "set";
        g.args = {elem};
        break;
      case CrdtType::kMvRegister:
        g.op = "set";
        g.args = {elem};
        for (const std::string& tag : tag_pool) {
          if (rng->NextBool(0.3)) g.args.push_back(Value::OfStr(tag));
        }
        tag_pool.push_back(g.ctx.tx_id);
        break;
      case CrdtType::kLwwMap: {
        const Value key =
            Value::OfStr("k" + std::to_string(rng->NextBelow(4)));
        if (rng->NextBool(0.3)) {
          g.op = "remove";
          g.args = {key};
        } else {
          g.op = "put";
          g.args = {key, elem};
        }
        break;
      }
      case CrdtType::kRga:
        if (rng->NextBool(0.25) && !tag_pool.empty()) {
          g.op = "remove";
          g.args = {Value::OfStr(tag_pool[rng->NextBelow(tag_pool.size())])};
        } else {
          g.op = "insert";
          // Parent: the head or a previously inserted element.
          const std::string parent =
              (tag_pool.empty() || rng->NextBool(0.3))
                  ? ""
                  : tag_pool[rng->NextBelow(tag_pool.size())];
          g.args = {Value::OfStr(parent), elem};
          tag_pool.push_back(g.ctx.tx_id);
        }
        break;
      case CrdtType::kEwFlag:
        if (rng->NextBool(0.4) && !tag_pool.empty()) {
          g.op = "disable";
          for (const std::string& tag : tag_pool) {
            if (rng->NextBool(0.5)) g.args.push_back(Value::OfStr(tag));
          }
        } else {
          g.op = "enable";
          tag_pool.push_back(g.ctx.tx_id);
        }
        break;
    }
    ops.push_back(std::move(g));
  }
  return ops;
}

ValueType ElementTypeFor(CrdtType type) {
  switch (type) {
    case CrdtType::kGCounter:
    case CrdtType::kPnCounter:
      return ValueType::kInt;
    default:
      return ValueType::kStr;
  }
}

Bytes ApplyInOrder(CrdtType type, const std::vector<GeneratedOp>& ops,
                   const std::vector<std::size_t>& order) {
  const auto crdt = CreateCrdt(type, ElementTypeFor(type));
  for (std::size_t idx : order) {
    const GeneratedOp& g = ops[idx];
    const Status s = crdt->Apply(g.op, g.args, g.ctx);
    EXPECT_TRUE(s.ok()) << CrdtTypeName(type) << " op " << g.op << ": "
                        << s.ToString();
  }
  return crdt->StateFingerprint();
}

struct ConvergenceCase {
  CrdtType type;
  std::uint64_t seed;
};

void PrintTo(const ConvergenceCase& c, std::ostream* os) {
  *os << CrdtTypeName(c.type) << "_seed" << c.seed;
}

class CrdtConvergenceTest : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(CrdtConvergenceTest, AllPermutationsConverge) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  const auto ops = GenerateOps(param.type, 40, &rng);

  std::vector<std::size_t> identity(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) identity[i] = i;
  const Bytes reference = ApplyInOrder(param.type, ops, identity);

  for (int shuffle = 0; shuffle < 12; ++shuffle) {
    const auto order = rng.Permutation(ops.size());
    EXPECT_EQ(ApplyInOrder(param.type, ops, order), reference)
        << CrdtTypeName(param.type) << " diverged on shuffle " << shuffle;
  }
}

std::vector<ConvergenceCase> AllCases() {
  std::vector<ConvergenceCase> cases;
  for (int t = 0; t <= static_cast<int>(CrdtType::kEwFlag); ++t) {
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
      cases.push_back(ConvergenceCase{static_cast<CrdtType>(t), seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTypes, CrdtConvergenceTest,
                         ::testing::ValuesIn(AllCases()),
                         ::testing::PrintToStringParamName());

// Idempotence at the state level: re-applying an entire history on
// top of itself must not change set/register semantics that dedupe by
// tag or element (G-Set, OR-Set, LWW, map). Counters are excluded by
// design — the DAG guarantees exactly-once delivery for them.
class CrdtReapplyTest : public ::testing::TestWithParam<CrdtType> {};

TEST_P(CrdtReapplyTest, ObservableStateStableUnderReplayOfSameOps) {
  const CrdtType type = GetParam();
  Rng rng(77);
  const auto ops = GenerateOps(type, 30, &rng);
  const auto crdt = CreateCrdt(type, ElementTypeFor(type));
  for (const auto& g : ops) ASSERT_TRUE(crdt->Apply(g.op, g.args, g.ctx).ok());
  const Bytes once = crdt->StateFingerprint();
  for (const auto& g : ops) ASSERT_TRUE(crdt->Apply(g.op, g.args, g.ctx).ok());
  EXPECT_EQ(crdt->StateFingerprint(), once);
}

// State serialization round-trips exactly: after EncodeState /
// DecodeState the fingerprint matches, and continued operations apply
// identically on the original and the restored copy.
class CrdtSnapshotTest : public ::testing::TestWithParam<CrdtType> {};

TEST_P(CrdtSnapshotTest, StateRoundTripsAndContinues) {
  const CrdtType type = GetParam();
  Rng rng(1234);
  const auto history = GenerateOps(type, 35, &rng);
  const auto original = CreateCrdt(type, ElementTypeFor(type));
  for (const auto& g : history) {
    ASSERT_TRUE(original->Apply(g.op, g.args, g.ctx).ok());
  }

  serial::Writer w;
  original->EncodeState(&w);
  const auto restored = CreateCrdt(type, ElementTypeFor(type));
  serial::Reader r(w.buffer());
  ASSERT_TRUE(restored->DecodeState(&r).ok()) << CrdtTypeName(type);
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(restored->StateFingerprint(), original->StateFingerprint());

  // Both replicas keep evolving identically.
  Rng rng2(777);
  const auto more = GenerateOps(type, 15, &rng2);
  for (const auto& g : more) {
    // Fresh tx ids so they do not collide with the first batch.
    GeneratedOp shifted = g;
    shifted.ctx.tx_id = "post-" + g.ctx.tx_id;
    ASSERT_TRUE(original->Apply(shifted.op, shifted.args, shifted.ctx).ok());
    ASSERT_TRUE(restored->Apply(shifted.op, shifted.args, shifted.ctx).ok());
  }
  EXPECT_EQ(restored->StateFingerprint(), original->StateFingerprint());
}

TEST_P(CrdtSnapshotTest, DecodeRejectsTruncation) {
  const CrdtType type = GetParam();
  Rng rng(99);
  const auto history = GenerateOps(type, 20, &rng);
  const auto original = CreateCrdt(type, ElementTypeFor(type));
  for (const auto& g : history) {
    ASSERT_TRUE(original->Apply(g.op, g.args, g.ctx).ok());
  }
  serial::Writer w;
  original->EncodeState(&w);
  const Bytes full = w.Take();
  if (full.size() < 2) return;  // nothing to truncate meaningfully
  const auto restored = CreateCrdt(type, ElementTypeFor(type));
  serial::Reader r(ByteSpan(full.data(), full.size() / 2));
  // Either a clean decode error, or (if the prefix happens to parse)
  // the reader must not consume past the truncation point.
  const Status s = restored->DecodeState(&r);
  if (s.ok()) {
    EXPECT_NE(restored->StateFingerprint(), original->StateFingerprint());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, CrdtSnapshotTest,
    ::testing::Values(CrdtType::kGSet, CrdtType::kTwoPSet, CrdtType::kOrSet,
                      CrdtType::kGCounter, CrdtType::kPnCounter,
                      CrdtType::kLwwRegister, CrdtType::kMvRegister,
                      CrdtType::kLwwMap, CrdtType::kRga,
                      CrdtType::kEwFlag),
    ::testing::PrintToStringParamName());

INSTANTIATE_TEST_SUITE_P(
    DedupingTypes, CrdtReapplyTest,
    ::testing::Values(CrdtType::kGSet, CrdtType::kTwoPSet, CrdtType::kOrSet,
                      CrdtType::kLwwRegister, CrdtType::kMvRegister,
                      CrdtType::kLwwMap, CrdtType::kRga,
                      CrdtType::kEwFlag),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace vegvisir::crdt
