#include "storage/log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "serial/limits.h"
#include "util/fsio.h"

namespace vegvisir::storage {
namespace {

Status ErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

Status WriteAll(int fd, ByteSpan data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write");
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status PreadAll(int fd, std::uint8_t* buf, std::size_t len,
                std::uint64_t offset) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, buf + got, len - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pread");
    }
    if (n == 0) return InternalError("pread: unexpected end of segment");
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

// Walks the records of a segment image from just past its header to
// the end of `seg`, stopping at the first bad record. Appends each
// good record's payload span to `records`, returns the offset the
// walk stopped at and names the defect in `stop` (left empty when the
// walk reached the end). `check_crc` is off only for images Open has
// already verified.
std::uint64_t WalkRecords(ByteSpan seg, bool check_crc,
                          std::vector<ByteSpan>* records, std::string* stop) {
  std::uint64_t pos = kSegmentHeaderBytes;
  while (pos < seg.size()) {
    if (seg.size() - pos < kRecordHeaderBytes) {
      *stop = "torn record header";
      break;
    }
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    const Status parsed = ParseRecordHeader(
        seg.subspan(pos, kRecordHeaderBytes), &length, &crc);
    if (!parsed.ok()) {
      *stop = parsed.message();
      break;
    }
    if (length > seg.size() - pos - kRecordHeaderBytes) {
      *stop = "torn record payload";
      break;
    }
    if (records->size() + 1 > serial::limits::kMaxSegmentRecords) {
      *stop = "segment record count exceeds limit";
      break;
    }
    const ByteSpan payload = seg.subspan(pos + kRecordHeaderBytes, length);
    if (check_crc && Crc32(payload) != crc) {
      *stop = "record CRC mismatch";
      break;
    }
    records->push_back(payload);
    pos += kRecordHeaderBytes + length;
  }
  return pos;
}

}  // namespace

BlockLog::BlockLog(Options opts)
    : opts_(std::move(opts)),
      io_(opts_.io_faults, opts_.io_seed, opts_.telemetry),
      c_appends_(opts_.telemetry->metrics.GetCounter("storage.appends")),
      c_bytes_appended_(
          opts_.telemetry->metrics.GetCounter("storage.bytes_appended")),
      c_segments_created_(
          opts_.telemetry->metrics.GetCounter("storage.segments_created")),
      c_recovery_runs_(
          opts_.telemetry->metrics.GetCounter("storage.recovery.runs")),
      c_recovery_replayed_(opts_.telemetry->metrics.GetCounter(
          "storage.recovery.records_replayed")),
      c_recovery_truncated_(opts_.telemetry->metrics.GetCounter(
          "storage.recovery.records_truncated")),
      c_recovery_bytes_dropped_(opts_.telemetry->metrics.GetCounter(
          "storage.recovery.bytes_dropped")),
      g_segments_(opts_.telemetry->metrics.GetGauge("storage.segments")),
      g_log_bytes_(opts_.telemetry->metrics.GetGauge("storage.log_bytes")) {}

BlockLog::~BlockLog() {
  // Deliberately no flush here: destruction must be indistinguishable
  // from a crash, so tests that "pull the plug" by dropping the object
  // exercise the same recovery path a real power loss does.
  // Durability is Sync()'s job alone.
  for (SegmentInfo& seg : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
}

StatusOr<std::unique_ptr<BlockLog>> BlockLog::Open(Options opts) {
  if (opts.telemetry == nullptr) {
    return InvalidArgumentError("BlockLog requires a telemetry bundle");
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.dir, ec);
  if (ec) {
    return InternalError("create " + opts.dir + ": " + ec.message());
  }
  std::unique_ptr<BlockLog> log(new BlockLog(std::move(opts)));
  VEGVISIR_RETURN_IF_ERROR(log->Recover());
  return log;
}

Status BlockLog::Recover() {
  c_recovery_runs_.Inc();
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const auto& entry : std::filesystem::directory_iterator(opts_.dir)) {
    std::uint64_t id = 0;
    if (ParseSegmentFileName(entry.path().filename().string(), &id).ok()) {
      found.emplace_back(id, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());

  for (std::size_t i = 0; i < found.size(); ++i) {
    SegmentInfo seg;
    seg.id = found[i].first;
    seg.path = found[i].second;
    seg.fd = ::open(seg.path.c_str(), O_RDWR | O_APPEND);
    if (seg.fd < 0) return ErrnoError("open " + seg.path);
    struct stat st{};
    if (::fstat(seg.fd, &st) != 0) {
      ::close(seg.fd);
      return ErrnoError("fstat " + seg.path);
    }
    seg.bytes = static_cast<std::uint64_t>(st.st_size);

    const bool is_last = i + 1 == found.size();
    const Status scanned = ScanSegment(&seg, is_last);
    if (!scanned.ok()) {
      ::close(seg.fd);
      return scanned;
    }
    if (seg.fd < 0) continue;  // header-less crash artifact, dropped
    record_count_ += seg.records;
    total_bytes_ += seg.bytes;
    segments_.push_back(std::move(seg));
  }

  recovery_.records_replayed = record_count_;
  c_recovery_replayed_.Inc(recovery_.records_replayed);
  c_recovery_truncated_.Inc(recovery_.records_truncated);
  c_recovery_bytes_dropped_.Inc(recovery_.bytes_dropped);

  if (segments_.empty()) {
    VEGVISIR_RETURN_IF_ERROR(RollSegment());
  }
  g_segments_.Set(static_cast<double>(segments_.size()));
  g_log_bytes_.Set(static_cast<double>(total_bytes_));
  return Status::Ok();
}

Status BlockLog::ScanSegment(SegmentInfo* seg, bool is_last) {
  recovery_.segments_scanned += 1;
  if (seg->bytes > kMaxSegmentBytes) {
    // Append never writes a segment this long, torn tail or not.
    return InvalidArgumentError("segment size exceeds limit: " + seg->path);
  }
  Bytes image(seg->bytes);
  VEGVISIR_RETURN_IF_ERROR(PreadAll(seg->fd, image.data(), image.size(), 0));
  bool header_ok = false;
  if (image.size() >= kSegmentHeaderBytes) {
    std::uint64_t id = 0;
    const Status parsed = ParseSegmentHeader(image, &id);
    header_ok = parsed.ok() && id == seg->id;
  }
  if (!header_ok) {
    if (!is_last) {
      return InvalidArgumentError("segment header corrupt: " + seg->path);
    }
    // Crash during segment roll: the file exists but its header never
    // reached the disk intact. Nothing in it was ever acked.
    recovery_.bytes_dropped += seg->bytes;
    ::close(seg->fd);
    std::error_code ec;
    std::filesystem::remove(seg->path, ec);
    seg->fd = -1;
    return Status::Ok();
  }

  std::vector<ByteSpan> records;
  std::string stop;  // nonempty: first bad record found at `pos`
  const std::uint64_t pos =
      WalkRecords(image, /*check_crc=*/true, &records, &stop);

  if (!stop.empty()) {
    if (!is_last) {
      return InvalidArgumentError("log corrupted before tail (" + stop +
                                  ") in " + seg->path);
    }
    if (::ftruncate(seg->fd, static_cast<off_t>(pos)) != 0) {
      return ErrnoError("ftruncate " + seg->path);
    }
    recovery_.records_truncated += 1;
    recovery_.bytes_dropped += seg->bytes - pos;
    seg->bytes = pos;
  }
  seg->records = records.size();
  return Status::Ok();
}

Status BlockLog::RollSegment() {
  if (!segments_.empty()) {
    // The outgoing segment becomes immutable; make it durable now so
    // Sync() only ever has the active segment left to fsync.
    VEGVISIR_RETURN_IF_ERROR(io_.Sync(segments_.back().fd));
  }
  SegmentInfo seg;
  seg.id = segments_.empty() ? 0 : segments_.back().id + 1;
  seg.path = opts_.dir + "/" + SegmentFileName(seg.id);
  seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_APPEND,
                  0644);
  if (seg.fd < 0) return ErrnoError("open " + seg.path);
  const Bytes header = EncodeSegmentHeader(seg.id);
  Status s = WriteAll(seg.fd, header);
  if (s.ok()) s = io_.Sync(seg.fd);
  if (s.ok()) s = FsyncDir(opts_.dir);  // the new name must survive too
  if (!s.ok()) {
    ::close(seg.fd);
    return s;
  }
  seg.bytes = header.size();
  total_bytes_ += header.size();
  segments_.push_back(std::move(seg));
  c_segments_created_.Inc();
  g_segments_.Set(static_cast<double>(segments_.size()));
  g_log_bytes_.Set(static_cast<double>(total_bytes_));
  return Status::Ok();
}

Status BlockLog::Append(ByteSpan payload) {
  if (wounded_) {
    return FailedPreconditionError(
        "log wounded by a failed append; reopen to recover");
  }
  if (payload.empty()) return InvalidArgumentError("empty log record");
  if (payload.size() > serial::limits::kMaxLogRecordBytes) {
    return InvalidArgumentError("log record length exceeds limit");
  }
  if (segments_.back().records + 1 > serial::limits::kMaxSegmentRecords ||
      (segments_.back().records > 0 &&
       segments_.back().bytes + kRecordHeaderBytes + payload.size() >
           kSegmentTargetBytes)) {
    VEGVISIR_RETURN_IF_ERROR(RollSegment());
  }
  SegmentInfo& seg = segments_.back();

  Bytes record = EncodeRecordHeader(static_cast<std::uint32_t>(payload.size()),
                                    Crc32(payload));
  vegvisir::Append(&record, payload);
  const Status written = io_.AppendRecord(seg.fd, record);
  if (!written.ok()) {
    // ENOSPC wrote nothing — retryable. Anything else may have left a
    // partial record; only reopen-recovery may append after that.
    if (written.code() != ErrorCode::kResourceExhausted) wounded_ = true;
    return written;
  }
  seg.records += 1;
  seg.bytes += record.size();
  record_count_ += 1;
  total_bytes_ += record.size();
  c_appends_.Inc();
  c_bytes_appended_.Inc(record.size());
  g_log_bytes_.Set(static_cast<double>(total_bytes_));
  return Status::Ok();
}

Status BlockLog::Sync() { return io_.Sync(segments_.back().fd); }

Status BlockLog::ReadSegment(std::size_t index, SegmentRead* out) const {
  if (index >= segments_.size()) {
    return InvalidArgumentError("no such log segment");
  }
  const SegmentInfo& seg = segments_[index];
  // Open bounded seg.bytes by kMaxSegmentBytes and Append keeps it
  // there, so the buffer size is trusted.
  out->bytes.resize(seg.bytes);
  out->records.clear();
  VEGVISIR_RETURN_IF_ERROR(
      PreadAll(seg.fd, out->bytes.data(), out->bytes.size(), 0));
  std::string stop;
  WalkRecords(out->bytes, /*check_crc=*/false, &out->records, &stop);
  if (!stop.empty() || out->records.size() != seg.records) {
    return InternalError("segment changed since open (" +
                         (stop.empty() ? "record count" : stop) + ") in " +
                         seg.path);
  }
  return Status::Ok();
}

}  // namespace vegvisir::storage
