// E13b — storage engine cost model (DESIGN.md §13).
//
// Quantifies what the durable block log charges: append throughput
// with durability batched into one Sync vs fsync'd per record (the
// WAL discipline nodes run under), and crash-recovery time by log
// scan plus replay into a fresh DAG.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench_common.h"
#include "chain/dag.h"
#include "chain/genesis.h"
#include "crypto/drbg.h"
#include "csm/state_machine.h"
#include "storage/engine.h"

using namespace vegvisir;

namespace {

struct ChainFixture {
  chain::Block genesis;
  std::vector<chain::Block> blocks;
};

ChainFixture BuildChain(int n) {
  crypto::Drbg drbg(std::uint64_t{7});
  const crypto::KeyPair owner = crypto::KeyPair::Generate(drbg);
  ChainFixture fx{chain::GenesisBuilder("storage-bench").Build("owner", owner),
                  {}};
  chain::BlockHash parent = fx.genesis.hash();
  std::uint64_t ts = 1'000;

  chain::BlockHeader h0;
  h0.user_id = "owner";
  h0.timestamp_ms = ts++;
  h0.parents = {parent};
  fx.blocks.push_back(chain::Block::Create(
      std::move(h0),
      {csm::StateMachine::MakeCreateTx("S", crdt::CrdtType::kGSet,
                                       crdt::ValueType::kStr,
                                       csm::AclPolicy::AllowAll())},
      owner));
  parent = fx.blocks.back().hash();

  for (int i = 1; i < n; ++i) {
    chain::Transaction tx;
    tx.crdt_name = "S";
    tx.op = "add";
    tx.args = {crdt::Value::OfStr("value-" + std::to_string(i) +
                                  std::string(64, 'x'))};
    chain::BlockHeader h;
    h.user_id = "owner";
    h.timestamp_ms = ts++;
    h.parents = {parent};
    fx.blocks.push_back(chain::Block::Create(std::move(h), {tx}, owner));
    parent = fx.blocks.back().hash();
  }
  return fx;
}

std::string FreshDir(const char* leaf) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vgv_bench_storage" / leaf;
  std::filesystem::remove_all(dir);
  return dir.string();
}

double MsSince(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double, std::milli> d =
      std::chrono::steady_clock::now() - start;
  return d.count();
}

storage::TieredStoreOptions Opts(std::string dir, bool fsync_each) {
  storage::TieredStoreOptions o;
  o.dir = std::move(dir);
  o.fsync_each_append = fsync_each;
  o.telemetry = &benchio::Sink();
  return o;
}

}  // namespace

int main() {
  constexpr int kChain = 2'000;      // main chain length
  constexpr int kFsyncChain = 256;   // per-append-fsync sample (slow)

  const ChainFixture fx = BuildChain(kChain);
  std::printf("E13b: storage engine, %d-block chain\n\n", kChain);

  // -- Append throughput, durability batched into one Sync ----------
  const std::string main_dir = FreshDir("main");
  auto opened = storage::TieredStore::Open(Opts(main_dir, false));
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.status().message().c_str());
    return 1;
  }
  std::unique_ptr<storage::TieredStore> store = std::move(*opened);
  auto t0 = std::chrono::steady_clock::now();
  (void)store->Append(fx.genesis);
  for (const chain::Block& b : fx.blocks) (void)store->Append(b);
  (void)store->Sync();
  const double append_ms = MsSince(t0);
  const double log_mb = static_cast<double>(store->GetStats().log_bytes) / 1e6;
  const double append_per_s = (kChain + 1) / (append_ms / 1e3);
  std::printf("append (batched sync) : %9.0f blocks/s  %6.1f MB/s  "
              "(%zu segments, %.1f MB)\n",
              append_per_s, log_mb / (append_ms / 1e3),
              store->GetStats().segments.size(), log_mb);

  // -- Append throughput, fsync per record (WAL discipline) ---------
  double wal_per_s = 0;
  {
    auto wal = storage::TieredStore::Open(Opts(FreshDir("wal"), true));
    t0 = std::chrono::steady_clock::now();
    (void)(*wal)->Append(fx.genesis);
    for (int i = 0; i < kFsyncChain; ++i) (void)(*wal)->Append(fx.blocks[i]);
    const double wal_ms = MsSince(t0);
    wal_per_s = (kFsyncChain + 1) / (wal_ms / 1e3);
    std::printf("append (fsync each)   : %9.0f blocks/s  (%d blocks)\n",
                wal_per_s, kFsyncChain + 1);
  }

  // -- Crash recovery: reopen + full log replay into a fresh DAG ----
  store.reset();  // crash-equivalent close
  t0 = std::chrono::steady_clock::now();
  opened = storage::TieredStore::Open(Opts(main_dir, false));
  if (!opened.ok()) {
    std::printf("reopen failed: %s\n", opened.status().message().c_str());
    return 1;
  }
  store = std::move(*opened);
  auto recovered = store->RecoverDag();
  const double recover_ms = MsSince(t0);
  if (!recovered.ok()) {
    std::printf("recovery failed: %s\n",
                recovered.status().message().c_str());
    return 1;
  }
  std::printf("crash recovery        : %9.1f ms  (%zu blocks replayed)\n",
              recover_ms, recovered->Size());

  std::printf(
      "\nExpected shape: batched appends run at disk-sequential speed,\n"
      "fsync-each pays the device sync latency per block, and recovery\n"
      "is a linear scan plus replay.\n");

  benchio::WriteBench(
      "storage",
      {{"append_blocks_per_s", append_per_s},
       {"append_fsync_blocks_per_s", wal_per_s},
       {"recover_ms", recover_ms},
       {"log_bytes", static_cast<double>(store->GetStats().log_bytes)}});
  return 0;
}
