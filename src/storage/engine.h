// TieredStore: the durable block storage engine (DESIGN.md §13).
//
// Owns the append-only block log (storage/log.h) behind the existing
// store/DAG interface: the Dag, reconciliation and checkpointing stay
// consumers of block bytes rather than owners. Two promises:
//
//   1. Write-ahead: Append() returns OK only after the serialized
//      block (and, unless configured off, an fsync) hit the log —
//      the node acks a block into its DAG only after that, so a
//      crash at any instant loses nothing that was acked.
//   2. Crash recovery: RecoverDag() replays the log (append order ==
//      DAG insert order, thanks to promise 1) into a fresh DAG; the
//      CSM re-derives by deterministic replay (node/checkpoint.h's
//      RecoverFromStorage).
//
// The log is read one way: Open's CRC-checking scan, then
// RecoverDag's replay, each one read per segment. Nothing reads a
// single block back; shedding old bodies from RAM is
// support::StorageManager's job (§IV-I), and the residency gauges
// here only report what it left resident.
// Tearing the engine down is deliberately crash-equivalent. Every
// series lands under storage.* in the supplied telemetry bundle (or a
// private one when none is given).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/dag.h"
#include "sim/faults.h"
#include "storage/log.h"
#include "telemetry/telemetry.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace vegvisir::exec {
class ThreadPool;
}  // namespace vegvisir::exec

namespace vegvisir::storage {

struct TieredStoreOptions {
  // Directory holding the log segments; created if missing. Apps
  // conventionally derive it from VEGVISIR_DATA_DIR (DataDirFromEnv).
  std::string dir;
  // fsync after every append (the WAL discipline). Turning it off
  // batches durability into explicit Sync points — benchmarks use it
  // to separate write cost from fsync cost.
  bool fsync_each_append = true;
  sim::IoFaultPlan io_faults;
  std::uint64_t io_seed = 0;
  telemetry::Telemetry* telemetry = nullptr;  // null → private bundle
};

// Point-in-time copy of the log bookkeeping, taken under the
// engine lock. The inspection surface (examples, tests, bench)
// consumes this instead of references into live engine internals.
struct TieredStoreStats {
  std::uint64_t log_records = 0;
  std::uint64_t log_bytes = 0;
  bool log_wounded = false;
  std::vector<BlockLog::SegmentInfo> segments;
  BlockLog::RecoveryStats recovery;
};

class TieredStore {
 public:
  // Opens the store: recovers the log, truncating any torn tail.
  static StatusOr<std::unique_ptr<TieredStore>> Open(TieredStoreOptions opts);

  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  // Write-ahead append of one block. The caller may ack the block
  // only after OK. Callers append only blocks their DAG lacks; a
  // repeated block is a second record, which replay skips.
  Status Append(const chain::Block& block);

  // Makes every append so far durable (the explicit sync point when
  // fsync_each_append is off).
  Status Sync();

  // Crash recovery: replays the whole log into a fresh DAG. The first
  // record must be the genesis block. Each segment is read once under
  // the engine lock; its records are then decoded and hashed across
  // `pool` with the lock released (null or serial: on this thread)
  // and inserted on this thread in log order, so the result does not
  // depend on the pool.
  StatusOr<chain::Dag> RecoverDag(exec::ThreadPool* pool = nullptr);

  // Refreshes the hot/cold residency gauges from the DAG.
  void UpdateResidency(const chain::Dag& dag);

  // Locked snapshot of the log bookkeeping.
  TieredStoreStats GetStats() const;

  telemetry::Telemetry* telemetry() const { return telem_; }

 private:
  explicit TieredStore(TieredStoreOptions opts);

  TieredStoreOptions opts_;
  std::unique_ptr<telemetry::Telemetry> owned_telem_;
  telemetry::Telemetry* telem_ = nullptr;
  // Guards the log object (the pointer itself is set once during
  // Open, before the store is shared; the pointee mutates on every
  // append). Rank kStorageEngine — the one may-block rank:
  // append+fsync under this lock IS the WAL discipline (DESIGN.md
  // §13/§15), and it orders below kTelemetryRegistry because Open
  // registers metrics cells while holding it.
  mutable util::Mutex mu_{util::LockRank::kStorageEngine};
  std::unique_ptr<BlockLog> log_ VEGVISIR_PT_GUARDED_BY(mu_);
  telemetry::Counter c_append_failures_;
  telemetry::Gauge g_hot_blocks_;
  telemetry::Gauge g_cold_blocks_;
  telemetry::Gauge g_hot_bytes_;
};

// The conventional data root: $VEGVISIR_DATA_DIR, or "" when unset
// (callers treat empty as "run RAM-only").
std::string DataDirFromEnv();

}  // namespace vegvisir::storage
