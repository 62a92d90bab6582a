#include "storage/format.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <string_view>

#include "serial/codec.h"
#include "serial/limits.h"

namespace vegvisir::storage {
namespace {

constexpr std::string_view kSegmentPrefix = "seg-";
constexpr std::string_view kSegmentSuffix = ".vlog";
constexpr std::size_t kSegmentDigits = 6;

// Slicing-by-8 (Kounavis & Berry, ISCC 2005): table k maps a byte to
// its CRC contribution k positions further back, so eight bytes fold
// in with eight independent lookups instead of a serial chain.
// Table 0 is the classic byte-at-a-time table.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(ByteSpan data) {
  static const CrcTables kT = MakeCrcTables();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t len = data.size();
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
          kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^
          kT[3][hi & 0xFFu] ^ kT[2][(hi >> 8) & 0xFFu] ^
          kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = kT[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Bytes EncodeSegmentHeader(std::uint64_t segment_id) {
  serial::Writer w;
  for (std::size_t i = 0; i < kMagicLen; ++i) {
    w.WriteU8(static_cast<std::uint8_t>(kSegmentMagic[i]));
  }
  w.WriteU32(kFormatVersion);
  w.WriteU64(segment_id);
  return w.Take();
}

Status ParseSegmentHeader(ByteSpan data, std::uint64_t* segment_id) {
  if (data.size() < kSegmentHeaderBytes) {
    return InvalidArgumentError("segment header truncated");
  }
  if (!std::equal(kSegmentMagic, kSegmentMagic + kMagicLen, data.begin())) {
    return InvalidArgumentError("bad magic (not a Vegvisir log segment)");
  }
  serial::Reader r(data.subspan(kMagicLen, kSegmentHeaderBytes - kMagicLen));
  std::uint32_t version = 0;
  VEGVISIR_RETURN_IF_ERROR(r.ReadU32(&version));
  if (version != kFormatVersion) {
    return InvalidArgumentError("unsupported segment version");
  }
  return r.ReadU64(segment_id);
}

Bytes EncodeRecordHeader(std::uint32_t length, std::uint32_t crc) {
  serial::Writer w;
  w.WriteU32(length);
  w.WriteU32(crc);
  return w.Take();
}

Status ParseRecordHeader(ByteSpan data, std::uint32_t* length,
                         std::uint32_t* crc) {
  if (data.size() < kRecordHeaderBytes) {
    return InvalidArgumentError("log record header truncated");
  }
  serial::Reader r(data.subspan(0, kRecordHeaderBytes));
  VEGVISIR_RETURN_IF_ERROR(r.ReadU32(length));
  VEGVISIR_RETURN_IF_ERROR(r.ReadU32(crc));
  if (*length == 0) {
    return InvalidArgumentError("log record length is zero");
  }
  if (*length > serial::limits::kMaxLogRecordBytes) {
    return InvalidArgumentError("log record length exceeds limit");
  }
  return Status::Ok();
}

std::string SegmentFileName(std::uint64_t segment_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu.vlog",
                static_cast<unsigned long long>(segment_id));
  return buf;
}

Status ParseSegmentFileName(const std::string& name,
                            std::uint64_t* segment_id) {
  if (name.size() < kSegmentPrefix.size() + kSegmentDigits +
                        kSegmentSuffix.size() ||
      name.compare(0, kSegmentPrefix.size(), kSegmentPrefix) != 0 ||
      name.compare(name.size() - kSegmentSuffix.size(), kSegmentSuffix.size(),
                   kSegmentSuffix) != 0) {
    return InvalidArgumentError("not a segment file name: " + name);
  }
  const char* first = name.data() + kSegmentPrefix.size();
  const char* last = name.data() + name.size() - kSegmentSuffix.size();
  const auto [ptr, ec] = std::from_chars(first, last, *segment_id);
  if (ec != std::errc() || ptr != last) {
    return InvalidArgumentError("bad segment number in " + name);
  }
  return Status::Ok();
}

}  // namespace vegvisir::storage
