// Determinism checker: runs the chaos-storm cluster under the same
// seed — twice serially, then once on the parallel execution engine —
// and diffs everything observable: per-node DAG frontier digests,
// per-node state fingerprints and the full aggregated metric snapshot
// (as its canonical JSON rendering).
//
// The simulator's contract is that (seed, config) fully determines a
// run: one event queue, one Rng tree, no wall clock. Any divergence
// between the two serial runs means hidden nondeterminism crept in
// (unordered-container iteration leaking into behaviour, uninitialised
// reads, wall-clock use outside src/sim/ — the custom linter bans the
// latter statically, this tool catches the rest dynamically). The
// third leg re-runs the same storm at --threads workers (default 8)
// and must match byte-for-byte too: DESIGN.md §12's claim that the
// execution engine changes wall-clock time and nothing else.
//
// The only metrics allowed to differ are the pool's scheduling
// internals, enumerated in an explicit exclusion file
// (tools/determinism_exclude.txt) and scrubbed from every leg before
// diffing. The file is mandatory — a missing waiver list fails the
// check rather than silently widening it.
//
// Every leg runs on a durable data dir, so its crash-restarts recover
// by log replay; a leg whose restarts lost an acked block
// (fault.acked_blocks_lost) fails the check too.
//
// Usage: determinism_check [--seed S] [--duration-ms D] [--nodes N]
//                          [--threads T] [--exclude-file PATH]
// Exit 0: byte-identical runs, no acked block lost. Exit 1: divergence
// or loss (details on stdout).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "crdt/sets.h"
#include "node/cluster.h"
#include "sim/faults.h"
#include "sim/topology.h"
#include "telemetry/export.h"
#include "util/bytes.h"

namespace {

using namespace vegvisir;

struct RunResult {
  // Hex frontier digest + state fingerprint per node, in node order.
  std::vector<std::string> frontiers;
  std::vector<std::string> fingerprints;
  // Canonical JSON of the aggregated metric snapshot: every counter,
  // gauge and histogram across all nodes, so even a single stray
  // event shows up.
  std::string metrics_json;
  // Blocks a restarted node had acked before its crash but did not
  // recover from its log; anything but 0 is a durability bug.
  std::uint64_t acked_blocks_lost = 0;
};

std::string HashHex(const chain::BlockHash& h) {
  return ToHex(ByteSpan(h.data(), h.size()));
}

// Loads the exclusion list: one exact metric name per line, '#'
// comments. Exits if the file is unreadable — the waiver list is part
// of the check's contract.
std::set<std::string> LoadExclusions(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr,
                 "cannot read exclusion file '%s' (pass --exclude-file)\n",
                 path.c_str());
    std::exit(2);
  }
  std::set<std::string> names;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r' ||
                             line.back() == '\t')) {
      line.pop_back();
    }
    std::size_t start = 0;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t')) {
      ++start;
    }
    line.erase(0, start);
    if (!line.empty()) names.insert(line);
  }
  return names;
}

void Scrub(telemetry::Snapshot* snap, const std::set<std::string>& excluded) {
  for (const std::string& name : excluded) {
    snap->counters.erase(name);
    snap->gauges.erase(name);
    snap->histograms.erase(name);
  }
}

// The storm mirrors the chaos acceptance soak
// (tests/chaos_test.cpp CombinedSoakReconvergesWithExactAccounting):
// corruption, link flap and two crash-restart windows on a durable
// clique, with CRDT writes landing mid-storm. Every restart recovers
// by log replay, so the storage.* counters are diffed too.
RunResult RunStorm(const std::string& data_dir, std::uint64_t seed,
                   sim::TimeMs duration_ms, int nodes, unsigned threads,
                   const std::set<std::string>& excluded) {
  sim::ExplicitTopology topo(nodes);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = nodes;
  cfg.seed = seed;
  cfg.exec.threads = threads;
  cfg.data_dir = data_dir;
  cfg.faults = sim::FaultPlan::Corruption(0.05);
  cfg.faults.Merge(sim::FaultPlan::LinkFlap(5'000, 0.2));
  if (nodes > 2) cfg.faults.Merge(sim::FaultPlan::CrashRestart(2, 40'000, 80'000));
  if (nodes > 5) {
    cfg.faults.Merge(sim::FaultPlan::CrashRestart(5, 100'000, 140'000));
  }
  cfg.faults.active_until_ms = 180'000;
  // Setdiff across the fleet, with the last node on hash-first: the
  // setdiff negotiation, its peel-failure ladder and the mixed-mode
  // sessions all run inside the storm and must be exactly as
  // reproducible as everything else.
  cfg.node_template.recon.mode = recon::ReconConfig::Mode::kSetDiff;
  if (nodes > 1) {
    recon::ReconConfig hash_first;
    hash_first.mode = recon::ReconConfig::Mode::kHashFirst;
    cfg.recon_overrides[nodes - 1] = hash_first;
  }
  node::Cluster cluster(cfg, &topo);

  cluster.RunFor(30'000);
  if (!cluster.node(0)
           .CreateCrdt("journal", crdt::CrdtType::kGSet,
                       crdt::ValueType::kStr, csm::AclPolicy::AllowAll())
           .ok()) {
    std::fprintf(stderr, "workload setup failed\n");
    std::exit(2);
  }
  cluster.RunFor(30'000);
  (void)cluster.node(1).AppendOp("journal", "add",
                                 {crdt::Value::OfStr("mid-storm")});
  cluster.RunFor(60'000);
  (void)cluster.node(nodes / 2).AppendOp("journal", "add",
                                         {crdt::Value::OfStr("late-storm")});
  const sim::TimeMs elapsed = 120'000;
  if (duration_ms > elapsed) cluster.RunFor(duration_ms - elapsed);

  RunResult result;
  for (int i = 0; i < cluster.size(); ++i) {
    result.frontiers.push_back(
        HashHex(cluster.node(i).dag().FrontierDigest()));
    result.fingerprints.push_back(ToHex(cluster.node(i).Fingerprint()));
  }
  telemetry::Snapshot snap = cluster.AggregateSnapshot();
  result.acked_blocks_lost = snap.counters.at("fault.acked_blocks_lost");
  Scrub(&snap, excluded);
  result.metrics_json = telemetry::ToJson(snap);
  return result;
}

// One leg: the storm on a fresh data dir under the temp directory,
// removed once the leg's cluster has closed its stores.
RunResult RunOnce(const std::string& leg, std::uint64_t seed,
                  sim::TimeMs duration_ms, int nodes, unsigned threads,
                  const std::set<std::string>& excluded) {
  const std::string data_dir =
      (std::filesystem::temp_directory_path() /
       ("vgv_determinism_" + std::to_string(seed) + "_" + leg))
          .string();
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);
  RunResult result =
      RunStorm(data_dir, seed, duration_ms, nodes, threads, excluded);
  std::filesystem::remove_all(data_dir);
  return result;
}

// Reports every differing field; returns the number of differences.
int Diff(const char* label, const RunResult& a, const RunResult& b) {
  int diffs = 0;
  for (std::size_t i = 0; i < a.frontiers.size(); ++i) {
    if (a.frontiers[i] != b.frontiers[i]) {
      std::printf("DIVERGED [%s] node %zu frontier digest:\n  run1 %s\n  run2 %s\n",
                  label, i, a.frontiers[i].c_str(), b.frontiers[i].c_str());
      ++diffs;
    }
    if (a.fingerprints[i] != b.fingerprints[i]) {
      std::printf(
          "DIVERGED [%s] node %zu state fingerprint:\n  run1 %s\n  run2 %s\n",
          label, i, a.fingerprints[i].c_str(), b.fingerprints[i].c_str());
      ++diffs;
    }
  }
  if (a.metrics_json != b.metrics_json) {
    // Find the first differing byte so the culprit metric is visible
    // without dumping two full snapshots.
    std::size_t at = 0;
    while (at < a.metrics_json.size() && at < b.metrics_json.size() &&
           a.metrics_json[at] == b.metrics_json[at]) {
      ++at;
    }
    const std::size_t from = at < 40 ? 0 : at - 40;
    std::printf(
        "DIVERGED [%s] metric snapshots at byte %zu:\n  run1 ...%s\n  run2 ...%s\n",
        label, at, a.metrics_json.substr(from, 80).c_str(),
        b.metrics_json.substr(from, 80).c_str());
    ++diffs;
  }
  return diffs;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 424'242;
  sim::TimeMs duration_ms = 240'000;
  int nodes = 8;
  unsigned threads = 8;
  std::string exclude_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--duration-ms") {
      duration_ms = static_cast<sim::TimeMs>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--nodes") {
      nodes = std::atoi(next());
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--exclude-file") {
      exclude_file = next();
    } else {
      std::fprintf(stderr,
                   "usage: determinism_check [--seed S] [--duration-ms D] "
                   "[--nodes N] [--threads T] [--exclude-file PATH]\n");
      return 2;
    }
  }
  if (nodes < 2 || duration_ms < 130'000 || threads < 1) {
    std::fprintf(stderr,
                 "need --nodes >= 2, --duration-ms >= 130000, --threads >= 1\n");
    return 2;
  }
  if (exclude_file.empty()) {
    // Default for invocations from the repo root (CI) or from build/.
    exclude_file = "tools/determinism_exclude.txt";
    std::ifstream probe(exclude_file);
    if (!probe) exclude_file = "../tools/determinism_exclude.txt";
  }
  const std::set<std::string> excluded = LoadExclusions(exclude_file);

  // Leg 1+2: the PR-3 guarantee — same seed, serial, byte-identical.
  const RunResult serial1 =
      RunOnce("serial1", seed, duration_ms, nodes, 1, excluded);
  const RunResult serial2 =
      RunOnce("serial2", seed, duration_ms, nodes, 1, excluded);
  int diffs = Diff("same-seed serial", serial1, serial2);
  // Leg 3: the PR-5 guarantee — the parallel engine must reproduce
  // the serial run exactly (modulo the scrubbed pool internals).
  const RunResult parallel =
      RunOnce("parallel", seed, duration_ms, nodes, threads, excluded);
  diffs += Diff("threads=1 vs threads=N", serial1, parallel);
  // A leg that differs from serial1 has already failed the diff.
  if (serial1.acked_blocks_lost != 0) {
    std::printf("LOST %llu acked block(s) across crash-restarts\n",
                static_cast<unsigned long long>(serial1.acked_blocks_lost));
    ++diffs;
  }
  if (diffs == 0) {
    std::printf(
        "deterministic: %d nodes, seed %llu, %llu ms — frontiers, "
        "fingerprints and %zu-byte metric snapshot identical across two "
        "serial runs and a threads=%u run (%zu excluded metric(s))\n",
        nodes, static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(duration_ms),
        serial1.metrics_json.size(), threads, excluded.size());
    return 0;
  }
  std::printf("%d divergence(s) or acked-block loss\n", diffs);
  return 1;
}
