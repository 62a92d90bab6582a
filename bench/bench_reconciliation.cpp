// E1 + E10 — reconciliation bandwidth.
//
// Paper claim (§VI): frontier-set reconciliation is "considerably
// more efficient than exchanging entire DAGs", and "more efficient
// DAG reconciliation algorithms" (our hash-first mode) can do better
// still. Two replicas share a 64-block history; the responder then
// runs `d` blocks ahead. We measure the bytes the initiator moves to
// catch up, for:
//   full-dag   — naive baseline: ship everything, every time
//   block-push — Algorithm 1 exactly as published
//   hash-first — the future-work ablation (hashes first, bodies on
//                demand)
// in two divergence shapes: a linear chain (deep) and a bush of
// concurrent branches (wide, as after a many-way partition).
//
// The second sweep (BENCH_recondiff.json) is reconciliation v2's
// headline experiment: delta sizes x DAG depths for the paper
// algorithm, full exchange and setdiff. It shows setdiff's bytes
// scaling with the delta and staying flat in depth, and locates the
// crossover where the negotiation overhead (probe + sketch + result)
// pays for itself against Algorithm 1.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/full_exchange.h"
#include "bench_common.h"
#include "chain/genesis.h"
#include "crypto/drbg.h"
#include "node/node.h"
#include "recon/session.h"

using namespace vegvisir;

namespace {

struct Pair {
  std::unique_ptr<node::Node> initiator;
  std::unique_ptr<node::Node> responder;
};

crypto::KeyPair OwnerKeys() {
  crypto::Drbg drbg(std::uint64_t{1});
  return crypto::KeyPair::Generate(drbg);
}

// Builds a pair sharing `shared` history blocks, with the responder
// `d` blocks ahead, shaped as a chain or a bush.
Pair MakePair(int shared, int d, bool bush) {
  static const crypto::KeyPair owner = OwnerKeys();
  static const chain::Block genesis =
      chain::GenesisBuilder("recon-bench").WithTimestamp(1).Build("owner",
                                                                  owner);
  node::NodeConfig cfg;
  cfg.user_id = "owner";
  cfg.telemetry = &benchio::Sink();
  Pair p;
  p.initiator = std::make_unique<node::Node>(cfg, genesis, owner);
  p.responder = std::make_unique<node::Node>(cfg, genesis, owner);
  p.initiator->SetTime(1'000'000);
  p.responder->SetTime(1'000'000);

  for (int i = 0; i < shared; ++i) {
    const auto h = p.responder->AddWitnessBlock();
    (void)p.initiator->OfferBlock(*p.responder->dag().Find(*h));
  }

  if (bush) {
    // d concurrent children of the shared head (a d-way partition's
    // worth of frontier width).
    const auto head = p.responder->dag().Frontier()[0];
    const std::uint64_t base_ts =
        p.responder->dag().TimestampOf(head) + 1;
    for (int i = 0; i < d; ++i) {
      chain::BlockHeader h;
      h.user_id = "owner";
      h.timestamp_ms = base_ts + static_cast<std::uint64_t>(i);
      h.parents = {head};
      const auto verdict = p.responder->OfferBlock(
          chain::Block::Create(std::move(h), {}, owner));
      if (verdict != chain::BlockVerdict::kValid) {
        std::fprintf(stderr, "bush block rejected\n");
      }
    }
  } else {
    for (int i = 0; i < d; ++i) (void)p.responder->AddWitnessBlock();
  }
  return p;
}

struct Row {
  std::uint64_t bytes;
  std::uint64_t rounds;
  std::uint64_t blocks;
};

Row RunFrontier(const recon::ReconConfig& cfg, int shared, int d, bool bush) {
  Pair p = MakePair(shared, d, bush);
  recon::SessionStats stats;
  recon::RunLocalSession(p.initiator.get(), p.responder.get(), cfg, &stats);
  return Row{stats.bytes_received + stats.bytes_sent, stats.rounds,
             stats.blocks_received};
}

const char* StrategyName(recon::ReconConfig::Mode mode) {
  switch (mode) {
    case recon::ReconConfig::Mode::kBlockPush:
      return "paper";
    case recon::ReconConfig::Mode::kHashFirst:
      return "hash-first";
    case recon::ReconConfig::Mode::kSetDiff:
      return "setdiff";
  }
  return "unknown";
}

Row RunFull(int shared, int d, bool bush);

// The delta x depth x strategy sweep behind BENCH_recondiff.json.
// Chain-shaped runs: the responder is `delta` blocks ahead of a
// `depth`-block shared history.
void RunDiffSweep() {
  std::printf(
      "\nreconciliation v2: initiator bytes received, by strategy\n"
      "(shared depth x delta; chain shape)\n");
  std::printf("%-6s %-6s | %12s | %12s %7s | %12s %7s\n", "depth", "delta",
              "full B", "paper B", "rounds", "setdiff B", "rounds");
  std::vector<telemetry::BenchValue> rows;
  const recon::ReconConfig::Mode kStrategies[] = {
      recon::ReconConfig::Mode::kBlockPush,
      recon::ReconConfig::Mode::kSetDiff,
  };
  for (const int depth : {64, 256, 1024}) {
    for (const int delta : {1, 4, 16, 64, 256}) {
      Row per[2];
      for (int s = 0; s < 2; ++s) {
        Pair p = MakePair(depth, delta, /*bush=*/false);
        recon::ReconConfig cfg;
        cfg.mode = kStrategies[s];
        recon::SessionStats stats;
        recon::RunLocalSession(p.initiator.get(), p.responder.get(), cfg,
                               &stats);
        per[s] = Row{stats.bytes_received, stats.rounds,
                     stats.blocks_received};
        const std::string key = std::string("recondiff.strategy=") +
                                StrategyName(kStrategies[s]) +
                                ".depth=" + std::to_string(depth) +
                                ".delta=" + std::to_string(delta);
        rows.push_back({key + ".bytes_received",
                        static_cast<double>(stats.bytes_received)});
        rows.push_back(
            {key + ".bytes_sent", static_cast<double>(stats.bytes_sent)});
        rows.push_back({key + ".rounds", static_cast<double>(stats.rounds)});
      }
      const Row full = RunFull(depth, delta, /*bush=*/false);
      const std::string key = std::string("recondiff.strategy=full.depth=") +
                              std::to_string(depth) +
                              ".delta=" + std::to_string(delta);
      rows.push_back(
          {key + ".bytes_received", static_cast<double>(full.bytes)});
      rows.push_back({key + ".rounds", static_cast<double>(full.rounds)});
      std::printf("%-6d %-6d | %12llu | %12llu %7llu | %12llu %7llu\n", depth,
                  delta, static_cast<unsigned long long>(full.bytes),
                  static_cast<unsigned long long>(per[0].bytes),
                  static_cast<unsigned long long>(per[0].rounds),
                  static_cast<unsigned long long>(per[1].bytes),
                  static_cast<unsigned long long>(per[1].rounds));
    }
  }
  std::printf(
      "\nExpected shape: setdiff bytes track delta and stay flat as\n"
      "depth grows; the paper algorithm re-ships level sets, so its\n"
      "cost grows superlinearly in delta. The crossover (where the\n"
      "probe+sketch overhead pays off) sits at small single-digit\n"
      "deltas and moves in setdiff's favour as the DAG deepens.\n");
  (void)telemetry::WriteBenchJson("recondiff",
                                  benchio::Sink().metrics.TakeSnapshot(),
                                  std::move(rows));
}

Row RunFull(int shared, int d, bool bush) {
  Pair p = MakePair(shared, d, bush);
  const auto stats =
      baseline::RunFullDagExchange(p.initiator.get(), p.responder.get());
  return Row{stats.bytes_received + stats.bytes_sent, stats.rounds,
             stats.blocks_received};
}

}  // namespace

int main() {
  constexpr int kShared = 64;
  std::printf("E1/E10: reconciliation cost, shared history = %d blocks\n",
              kShared);
  std::printf("%-6s %-6s | %12s | %12s %7s | %12s %7s | %12s %7s\n", "shape",
              "d", "full-dag B", "block-push B", "rounds", "hash-first B",
              "rounds", "setdiff B", "rounds");
  recon::ReconConfig block_push;
  recon::ReconConfig hash_first;
  hash_first.mode = recon::ReconConfig::Mode::kHashFirst;
  recon::ReconConfig setdiff_cfg;
  setdiff_cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  for (const bool bush : {false, true}) {
    for (const int d : {1, 2, 4, 8, 16, 32, 64}) {
      const Row full = RunFull(kShared, d, bush);
      const Row paper = RunFrontier(block_push, kShared, d, bush);
      const Row hashed = RunFrontier(hash_first, kShared, d, bush);
      const Row setdiff = RunFrontier(setdiff_cfg, kShared, d, bush);
      std::printf(
          "%-6s %-6d | %12llu | %12llu %7llu | %12llu %7llu | %12llu %7llu\n",
          bush ? "bush" : "chain", d,
          static_cast<unsigned long long>(full.bytes),
          static_cast<unsigned long long>(paper.bytes),
          static_cast<unsigned long long>(paper.rounds),
          static_cast<unsigned long long>(hashed.bytes),
          static_cast<unsigned long long>(hashed.rounds),
          static_cast<unsigned long long>(setdiff.bytes),
          static_cast<unsigned long long>(setdiff.rounds));
    }
  }
  std::printf(
      "\nExpected shape: full-dag cost is flat in d (always ~shared+d\n"
      "blocks); frontier protocols scale with d. Hash-first beats\n"
      "block-push on deep chains (level escalation re-ships bodies);\n"
      "setdiff closes any gap shape after the level-1 round with one\n"
      "delta-sized probe and sketch, so its cost tracks d alone.\n");
  RunDiffSweep();
  benchio::WriteBench("reconciliation");
  return 0;
}
