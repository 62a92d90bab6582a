#include "storage/engine.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "exec/pool.h"

namespace vegvisir::storage {
namespace {

// Records per decode task: one decode is a few microseconds, so a
// chunk of 64 keeps the pool's per-task overhead small.
constexpr std::size_t kDecodeGrain = 64;

bool ParentsPresent(const chain::Dag& dag, const chain::Block& block) {
  const std::vector<chain::BlockHash>& parents = block.header().parents;
  return std::all_of(parents.begin(), parents.end(),
                     [&dag](const chain::BlockHash& p) {
                       return dag.Contains(p);
                     });
}

// Replays one decoded record in log order: the first founds the DAG,
// later ones are moved into it. Dag::Insert consumes its block even
// when it fails, so a block whose parents are missing is parked
// before the move rather than lost.
Status ReplayBlock(chain::Block block, std::optional<chain::Dag>* dag,
                   std::vector<chain::Block>* pending) {
  if (!dag->has_value()) {
    if (!block.header().parents.empty()) {
      return FailedPreconditionError(
          "first log record is not a genesis block");
    }
    dag->emplace(std::move(block));
    return Status::Ok();
  }
  if (!ParentsPresent(**dag, block)) {
    // WAL order is insert order, so this should not happen; park and
    // drain after the last record rather than losing a durable block.
    pending->push_back(std::move(block));
    return Status::Ok();
  }
  const Status inserted = (*dag)->Insert(std::move(block));
  if (inserted.ok() || inserted.code() == ErrorCode::kAlreadyExists) {
    return Status::Ok();
  }
  return inserted;
}

}  // namespace

TieredStore::TieredStore(TieredStoreOptions opts)
    : opts_(std::move(opts)),
      owned_telem_(opts_.telemetry != nullptr
                       ? nullptr
                       : std::make_unique<telemetry::Telemetry>()),
      telem_(opts_.telemetry != nullptr ? opts_.telemetry
                                        : owned_telem_.get()),
      c_append_failures_(
          telem_->metrics.GetCounter("storage.append_failures")),
      g_hot_blocks_(telem_->metrics.GetGauge("storage.hot_blocks")),
      g_cold_blocks_(telem_->metrics.GetGauge("storage.cold_blocks")),
      g_hot_bytes_(telem_->metrics.GetGauge("storage.hot_bytes")) {}

StatusOr<std::unique_ptr<TieredStore>> TieredStore::Open(
    TieredStoreOptions opts) {
  std::unique_ptr<TieredStore> store(new TieredStore(std::move(opts)));
  // Nobody else can hold the store yet, but recovery writes guarded
  // state, so it runs under the engine lock like every other writer.
  const util::MutexLock guard(store->mu_);
  BlockLog::Options lopts;
  lopts.dir = store->opts_.dir;
  lopts.io_faults = store->opts_.io_faults;
  lopts.io_seed = store->opts_.io_seed;
  lopts.telemetry = store->telem_;
  auto log = BlockLog::Open(std::move(lopts));
  if (!log.ok()) return log.status();
  store->log_ = std::move(*log);
  return store;
}

Status TieredStore::Append(const chain::Block& block) {
  const util::MutexLock guard(mu_);
  Status s = log_->Append(block.Serialize());
  if (s.ok() && opts_.fsync_each_append) s = log_->Sync();
  if (!s.ok()) c_append_failures_.Inc();
  return s;
}

Status TieredStore::Sync() {
  const util::MutexLock guard(mu_);
  return log_->Sync();
}

StatusOr<chain::Dag> TieredStore::RecoverDag(exec::ThreadPool* pool) {
  std::optional<chain::Dag> dag;
  std::vector<chain::Block> pending;
  BlockLog::SegmentRead segment;
  std::vector<chain::Block> blocks;
  std::vector<Status> decoded;
  for (std::size_t i = 0;; ++i) {
    {
      const util::MutexLock guard(mu_);
      if (i == log_->segments().size()) break;
      VEGVISIR_RETURN_IF_ERROR(log_->ReadSegment(i, &segment));
    }
    // Decoding (a parse plus the block's SHA-256) is independent per
    // record, so it fans out with the engine lock released.
    const std::size_t n = segment.records.size();
    blocks.clear();
    blocks.resize(n);
    decoded.assign(n, Status::Ok());
    exec::ParallelFor(pool, n, kDecodeGrain,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t k = begin; k < end; ++k) {
                          auto block =
                              chain::Block::Deserialize(segment.records[k]);
                          if (block.ok()) {
                            blocks[k] = *std::move(block);
                          } else {
                            decoded[k] = block.status();
                          }
                        }
                      });
    for (std::size_t k = 0; k < n; ++k) {
      VEGVISIR_RETURN_IF_ERROR(decoded[k]);
      VEGVISIR_RETURN_IF_ERROR(
          ReplayBlock(std::move(blocks[k]), &dag, &pending));
    }
  }
  if (!dag.has_value()) return NotFoundError("empty log: nothing to recover");

  bool progress = true;
  while (progress && !pending.empty()) {
    progress = false;
    for (auto it = pending.begin(); it != pending.end();) {
      if (!ParentsPresent(*dag, *it)) {
        ++it;
        continue;
      }
      const Status inserted = dag->Insert(std::move(*it));
      if (!inserted.ok() && inserted.code() != ErrorCode::kAlreadyExists) {
        return inserted;
      }
      it = pending.erase(it);
      progress = true;
    }
  }
  if (!pending.empty()) {
    return FailedPreconditionError("log replay left orphaned blocks");
  }
  UpdateResidency(*dag);
  return *std::move(dag);
}

TieredStoreStats TieredStore::GetStats() const {
  const util::MutexLock guard(mu_);
  TieredStoreStats stats;
  stats.log_records = log_->record_count();
  stats.log_bytes = log_->total_bytes();
  stats.log_wounded = log_->wounded();
  stats.segments = log_->segments();
  stats.recovery = log_->recovery();
  return stats;
}

void TieredStore::UpdateResidency(const chain::Dag& dag) {
  g_hot_blocks_.Set(static_cast<double>(dag.StoredCount()));
  g_cold_blocks_.Set(static_cast<double>(dag.Size() - dag.StoredCount()));
  g_hot_bytes_.Set(static_cast<double>(dag.StoredBytes()));
}

std::string DataDirFromEnv() {
  const char* dir = std::getenv("VEGVISIR_DATA_DIR");
  return dir == nullptr ? std::string() : std::string(dir);
}

}  // namespace vegvisir::storage
