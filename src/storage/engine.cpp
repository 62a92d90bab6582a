#include "storage/engine.h"

#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

namespace vegvisir::storage {

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

StatusOr<chain::Dag> TieredStore::RecoverDag() {
  const util::MutexLock guard(mu_);
  std::optional<chain::Dag> dag;
  std::vector<chain::Block> pending;
  const Status replayed =
      log_->ForEach([&dag, &pending](ByteSpan payload) -> Status {
        auto decoded = chain::Block::Deserialize(payload);
        if (!decoded.ok()) return decoded.status();
        chain::Block block = *std::move(decoded);
        if (!dag.has_value()) {
          if (!block.header().parents.empty()) {
            return FailedPreconditionError(
                "first log record is not a genesis block");
          }
          dag.emplace(std::move(block));
          return Status::Ok();
        }
        const Status inserted = dag->Insert(block);
        if (inserted.ok() ||
            inserted.code() == ErrorCode::kAlreadyExists) {
          return Status::Ok();
        }
        if (inserted.code() == ErrorCode::kNotFound) {
          // WAL order is insert order, so this should not happen; park
          // and drain below rather than losing a durable block.
          pending.push_back(std::move(block));
          return Status::Ok();
        }
        return inserted;
      });
  if (!replayed.ok()) return replayed;
  if (!dag.has_value()) return NotFoundError("empty log: nothing to recover");

  bool progress = true;
  while (progress && !pending.empty()) {
    progress = false;
    for (auto it = pending.begin(); it != pending.end();) {
      const Status inserted = dag->Insert(*it);
      if (inserted.ok() || inserted.code() == ErrorCode::kAlreadyExists) {
        it = pending.erase(it);
        progress = true;
      } else {
        ++it;
      }
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
