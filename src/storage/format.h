// On-disk format of the durable block log (DESIGN.md §13).
//
// A log is a directory of append-only segment files:
//
//   seg-000000.vlog      [segment header][record][record]...
//   segment header       8-byte magic "VGVSSEG1" | u32 version | u64 id
//   record               u32 payload length | u32 CRC-32 of payload |
//                        payload (one canonically serialized block)
//
// The segments are the whole on-disk state: there is no side index,
// and a reader finds a block only by scanning records in append
// order. All integers are little-endian via serial::Writer/
// Reader. The length field is wire-tainted: ParseRecordHeader bounds
// it against serial::limits::kMaxLogRecordBytes before any caller
// allocates. Torn tails are a normal artifact of power loss
// mid-append; recovery walks records until the first header/CRC/
// bounds failure in the final segment and truncates there — nothing
// before the failure point is ever dropped, and a failure anywhere
// but the tail is reported as corruption, not repaired silently.
#pragma once

#include <cstdint>
#include <string>

#include "serial/limits.h"
#include "util/bytes.h"
#include "util/status.h"

namespace vegvisir::storage {

inline constexpr std::size_t kMagicLen = 8;
inline constexpr char kSegmentMagic[kMagicLen + 1] = "VGVSSEG1";
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = kMagicLen + 4 + 8;
inline constexpr std::size_t kRecordHeaderBytes = 4 + 4;
// The appender rolls to a fresh segment once the current one crosses
// this (a fault-free segment therefore also stays far below
// serial::limits::kMaxSegmentRecords).
inline constexpr std::uint64_t kSegmentTargetBytes = 4u << 20;
// The largest segment file Append can leave behind, a torn tail
// included: every record starts at or below the roll target. Recovery
// reads a segment with one buffer sized from its file length, so a
// longer file is refused as corruption before anything is allocated.
inline constexpr std::uint64_t kMaxSegmentBytes =
    kSegmentHeaderBytes + kSegmentTargetBytes + kRecordHeaderBytes +
    serial::limits::kMaxLogRecordBytes;

// CRC-32 (IEEE, reflected polynomial 0xEDB88320; "123456789" ->
// 0xCBF43926). Slicing-by-8 tables, no dependencies; protects each
// record payload against bit rot and identifies the torn tail after a
// crash.
std::uint32_t Crc32(ByteSpan data);

Bytes EncodeSegmentHeader(std::uint64_t segment_id);
Status ParseSegmentHeader(ByteSpan data, std::uint64_t* segment_id);

Bytes EncodeRecordHeader(std::uint32_t length, std::uint32_t crc);
// Rejects zero-length records and lengths beyond kMaxLogRecordBytes.
Status ParseRecordHeader(ByteSpan data, std::uint32_t* length,
                         std::uint32_t* crc);

// "seg-000042.vlog" (zero-padded so lexicographic order is id order).
std::string SegmentFileName(std::uint64_t segment_id);
// Inverse of SegmentFileName; kInvalidArgument for any other name.
Status ParseSegmentFileName(const std::string& name,
                            std::uint64_t* segment_id);

}  // namespace vegvisir::storage
