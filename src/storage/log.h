// The append-only block log: the write-ahead half of the storage
// engine (DESIGN.md §13).
//
// Records (canonically serialized blocks) are appended to versioned
// segment files (storage/format.h) and become durable at Sync(). The
// recovery invariant the whole engine rests on: after a crash at any
// instant, reopening the log yields exactly the records whose append
// AND a subsequent Sync both completed, in append order — the scan
// stops at the first torn/corrupt record of the final segment and
// truncates it away, and nothing before that point is ever dropped.
// Corruption anywhere but the tail fails Open instead of being
// repaired silently: a torn tail is a crash artifact, a bad CRC in
// the middle of a synced prefix is data loss the caller must hear
// about.
//
// A failed append that may have left partial bytes on disk "wounds"
// the log: further appends are refused until the log is reopened,
// which routes the repair through the one recovery path instead of a
// second in-process bookkeeping scheme. ENOSPC does not wound (the
// disk wrote nothing); those appends may simply be retried.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/faults.h"
#include "storage/env.h"
#include "storage/format.h"
#include "telemetry/telemetry.h"
#include "util/bytes.h"
#include "util/status.h"

namespace vegvisir::storage {

class BlockLog {
 public:
  struct Options {
    std::string dir;
    sim::IoFaultPlan io_faults;
    std::uint64_t io_seed = 0;
    // Must be non-null (the engine supplies its bundle).
    telemetry::Telemetry* telemetry = nullptr;
  };

  struct RecoveryStats {
    std::uint64_t segments_scanned = 0;
    std::uint64_t records_replayed = 0;  // records that survived
    std::uint64_t records_truncated = 0; // torn/corrupt tail records cut
    std::uint64_t bytes_dropped = 0;     // bytes the truncation removed
  };

  struct SegmentInfo {
    std::uint64_t id = 0;
    std::string path;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;  // file size including header
    int fd = -1;              // open for the log's lifetime
  };

  // Opens (creating the directory if needed) and recovers the log.
  static StatusOr<std::unique_ptr<BlockLog>> Open(Options opts);
  ~BlockLog();

  BlockLog(const BlockLog&) = delete;
  BlockLog& operator=(const BlockLog&) = delete;

  // Appends one record. NOT durable until Sync() returns OK.
  Status Append(ByteSpan payload);
  // fsyncs the active segment (older segments were synced at roll).
  Status Sync();

  // One segment as read from disk: the file's bytes and the span of
  // each record payload within them, in append order.
  struct SegmentRead {
    Bytes bytes;
    std::vector<ByteSpan> records;  // point into `bytes`
  };

  // Reads segments()[index] with one pread and walks its record
  // headers. Open already CRC-checked every record, so this pass only
  // bounds each length by the segment size Open verified (a mismatch
  // is an error). `out` is reused: a caller walking the log holds one
  // segment at a time, and the spans live until `out` is reused.
  Status ReadSegment(std::size_t index, SegmentRead* out) const;

  std::uint64_t record_count() const { return record_count_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  const std::vector<SegmentInfo>& segments() const { return segments_; }
  const RecoveryStats& recovery() const { return recovery_; }
  bool wounded() const { return wounded_; }
  const std::string& dir() const { return opts_.dir; }

 private:
  explicit BlockLog(Options opts);

  Status Recover();
  Status ScanSegment(SegmentInfo* seg, bool is_last);
  Status RollSegment();

  Options opts_;
  FileIo io_;
  std::vector<SegmentInfo> segments_;
  std::uint64_t record_count_ = 0;
  std::uint64_t total_bytes_ = 0;
  RecoveryStats recovery_;
  bool wounded_ = false;
  telemetry::Counter c_appends_;
  telemetry::Counter c_bytes_appended_;
  telemetry::Counter c_segments_created_;
  telemetry::Counter c_recovery_runs_;
  telemetry::Counter c_recovery_replayed_;
  telemetry::Counter c_recovery_truncated_;
  telemetry::Counter c_recovery_bytes_dropped_;
  telemetry::Gauge g_segments_;
  telemetry::Gauge g_log_bytes_;
};

}  // namespace vegvisir::storage
