// Chain inspection tool: persistence + audit.
//
// Usage:
//   ./chain_inspect                 build a demo chain, save, reload,
//                                   audit, and print the report
//   ./chain_inspect <file.dag>      inspect an existing chain file
//                                   (audit runs without certificates,
//                                   so signature checks are skipped)
//   ./chain_inspect metrics         run a small gossiping cluster and
//                                   print its aggregate telemetry in
//                                   Prometheus text format, plus its
//                                   recon bytes by message on stderr
//   ./chain_inspect storage [dir]   open a durable store (DESIGN.md
//                                   §13) and dump its segments,
//                                   recovery counts and recovered
//                                   chain; dir defaults to
//                                   $VEGVISIR_DATA_DIR
//
// Demonstrates the storage / recovery workflow of a device that
// reboots: the replica is loaded from flash, its integrity verified
// from first principles, and the per-CRDT provenance trail printed —
// the paper's "the log is reviewed" step (§II-A).
#include <cstdio>
#include <string>

#include "chain/audit.h"
#include "chain/store.h"
#include "crypto/drbg.h"
#include "csm/state_machine.h"
#include "node/cluster.h"
#include "node/node.h"
#include "sim/topology.h"
#include "storage/engine.h"
#include "telemetry/export.h"

using namespace vegvisir;

namespace {

void PrintDagSummary(const chain::Dag& dag) {
  std::printf("genesis   : %s\n",
              chain::HashShort(dag.genesis_hash()).c_str());
  std::printf("blocks    : %zu (%zu bodies stored, %zu bytes)\n", dag.Size(),
              dag.StoredCount(), dag.StoredBytes());
  std::printf("frontier  : %zu block(s)\n", dag.Frontier().size());
  std::size_t txs = 0;
  for (const chain::BlockHash& h : dag.Hashes()) {
    if (const chain::Block* b = dag.Find(h)) txs += b->transactions().size();
  }
  std::printf("txns      : %zu\n", txs);
}

void PrintAudit(const chain::AuditReport& report) {
  std::printf("audit     : %s (%zu blocks, %zu signatures verified, "
              "%zu bodies offloaded)\n",
              report.clean() ? "CLEAN" : "ISSUES FOUND",
              report.blocks_checked, report.signatures_verified,
              report.bodies_missing);
  for (const auto& issue : report.issues) {
    std::printf("  !! %s: %s\n", chain::HashShort(issue.block).c_str(),
                issue.what.c_str());
  }
}

int InspectFile(const std::string& path) {
  auto dag = chain::LoadDagFromFile(path);
  if (!dag.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 dag.status().ToString().c_str());
    return 1;
  }
  std::printf("== %s ==\n", path.c_str());
  PrintDagSummary(*dag);

  // Rebuild the CSM by replay to recover membership, then audit.
  csm::StateMachine sm;
  for (const chain::BlockHash& h : dag->Hashes()) {
    const chain::Block* b = dag->Find(h);
    if (b != nullptr) sm.ApplyBlock(*b);
  }
  std::printf("chain name: '%s', members: %zu\n", sm.ChainName().c_str(),
              sm.membership().LiveCount());
  PrintAudit(chain::AuditDag(*dag, sm.membership()));
  return 0;
}

// `metrics` subcommand: a 4-node clique gossips for a simulated
// minute under a small write load; the merged per-node registries
// (plus the network's) are printed the way a Prometheus scrape of a
// real deployment would see them.
int RunMetricsDemo() {
  sim::ExplicitTopology topo(4);
  topo.MakeClique();
  node::ClusterConfig cfg;
  cfg.node_count = 4;
  cfg.seed = 404;
  // Reconciliation v2 (DESIGN.md §16), so the scrape shows the
  // setdiff.* negotiation series, the recon.bytes.* per-message radio
  // attribution and recon.*.level_cap_hit live.
  cfg.node_template.recon.mode = recon::ReconConfig::Mode::kSetDiff;
  node::Cluster cluster(cfg, &topo);
  cluster.RunFor(20'000);
  (void)cluster.node(0).CreateCrdt("events", crdt::CrdtType::kGSet,
                                   crdt::ValueType::kStr,
                                   csm::AclPolicy::AllowAll());
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < cluster.size(); ++i) {
      (void)cluster.node(i).AppendOp(
          "events", "add",
          {crdt::Value::OfStr("r" + std::to_string(round) + "-n" +
                              std::to_string(i))});
    }
    cluster.RunFor(5'000);
  }
  cluster.RunFor(60'000);

  const telemetry::Snapshot snapshot = cluster.AggregateSnapshot();
  std::printf("%s", telemetry::ToPrometheusText(snapshot).c_str());
  // Where the radio bytes went, by message type. On stderr, so stdout
  // stays a clean scrape.
  const std::string prefix = "recon.bytes.";
  const std::uint64_t total = snapshot.CounterSumByPrefix(prefix);
  std::fprintf(stderr, "recon bytes sent by message (%llu total):\n",
               static_cast<unsigned long long>(total));
  for (const auto& [name, bytes] : snapshot.counters) {
    if (name.rfind(prefix, 0) != 0) continue;
    std::fprintf(stderr, "  %-18s %10llu  %5.1f%%\n",
                 name.c_str() + prefix.size(),
                 static_cast<unsigned long long>(bytes),
                 total == 0 ? 0.0 : 100.0 * static_cast<double>(bytes) /
                                        static_cast<double>(total));
  }
  return 0;
}

// `storage` subcommand: open a node's durable data directory
// read-only-in-spirit (a torn tail is truncated, exactly as a
// restarting node would) and report what the log holds.
int InspectStorage(const std::string& dir) {
  if (dir.empty()) {
    std::fprintf(stderr,
                 "usage: chain_inspect storage <dir>  "
                 "(or set VEGVISIR_DATA_DIR)\n");
    return 1;
  }
  storage::TieredStoreOptions opts;
  opts.dir = dir;
  auto store = storage::TieredStore::Open(std::move(opts));
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open store at %s: %s\n", dir.c_str(),
                 store.status().ToString().c_str());
    return 1;
  }
  const storage::TieredStoreStats stats = (*store)->GetStats();
  std::printf("== storage at %s ==\n", dir.c_str());
  std::printf("log       : %llu records, %llu bytes, %zu segment(s)%s\n",
              static_cast<unsigned long long>(stats.log_records),
              static_cast<unsigned long long>(stats.log_bytes),
              stats.segments.size(), stats.log_wounded ? " [WOUNDED]" : "");
  for (const auto& seg : stats.segments) {
    std::printf("  seg %06llu: %6llu records %9llu B  %s\n",
                static_cast<unsigned long long>(seg.id),
                static_cast<unsigned long long>(seg.records),
                static_cast<unsigned long long>(seg.bytes),
                seg.path.c_str());
  }
  const auto& rec = stats.recovery;
  std::printf("recovery  : %llu replayed, %llu truncated, %llu bytes "
              "dropped\n",
              static_cast<unsigned long long>(rec.records_replayed),
              static_cast<unsigned long long>(rec.records_truncated),
              static_cast<unsigned long long>(rec.bytes_dropped));

  if (stats.log_records == 0) {
    std::printf("(empty log — nothing to replay)\n");
    return 0;
  }
  auto dag = (*store)->RecoverDag();
  if (!dag.ok()) {
    std::fprintf(stderr, "log replay failed: %s\n",
                 dag.status().ToString().c_str());
    return 1;
  }
  std::printf("\n-- chain recovered by log replay --\n");
  PrintDagSummary(*dag);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "metrics") return RunMetricsDemo();
  if (argc > 1 && std::string(argv[1]) == "storage") {
    return InspectStorage(argc > 2 ? argv[2] : storage::DataDirFromEnv());
  }
  if (argc > 1) return InspectFile(argv[1]);

  // Demo mode: build a small chain, persist it, reload, audit.
  crypto::Drbg rng(std::uint64_t{404});
  const crypto::KeyPair owner_keys = crypto::KeyPair::Generate(rng);
  const chain::Block genesis =
      chain::GenesisBuilder("inspect-demo").Build("owner", owner_keys);
  node::NodeConfig cfg;
  cfg.user_id = "owner";
  node::Node owner(cfg, genesis, owner_keys);
  owner.SetTime(10'000);

  owner.CreateCrdt("events", crdt::CrdtType::kGSet, crdt::ValueType::kStr,
                   csm::AclPolicy::AllowAll()).value();
  owner.AppendOp("events", "add",
                 {crdt::Value::OfStr("door opened")}).value();
  owner.AppendOp("events", "add",
                 {crdt::Value::OfStr("badge 117 scanned")}).value();
  owner.AddWitnessBlock().value();

  const std::string path = "/tmp/vegvisir_demo.dag";
  if (!chain::SaveDagToFile(owner.dag(), path).ok()) {
    std::fprintf(stderr, "save failed\n");
    return 1;
  }
  std::printf("saved replica to %s, reloading...\n\n", path.c_str());
  const int rc = InspectFile(path);

  std::printf("\n-- provenance trail for 'events' --\n");
  for (const auto& entry :
       chain::ExtractProvenance(owner.dag(), "events")) {
    std::printf("  t=%llu %-8s %s(%s)\n",
                static_cast<unsigned long long>(entry.timestamp_ms),
                entry.creator.c_str(), entry.transaction.op.c_str(),
                entry.transaction.args[0].AsStr().c_str());
  }
  return rc;
}
