// Durable file I/O.
//
// The classic write-to-temp-then-rename idiom is atomic against
// concurrent readers but NOT against power loss: without an fsync on
// the temp file the rename can land while the data blocks are still
// dirty (the new name then points at garbage), and without an fsync
// on the parent directory the rename itself can vanish, taking the
// file with it. DurableWriteFile does the full dance — write, fsync
// the file, rename, fsync the directory — which is the guarantee the
// checkpoint writers (chain/store.h, node/checkpoint.h) build on.
#pragma once

#include <string>

#include "util/bytes.h"
#include "util/status.h"

namespace vegvisir {

// Atomically and durably replaces `path` with `data`: after an OK
// return the bytes survive power loss, and at no point does a reader
// observe a mix of old and new content. The temp file is created as
// `path` + ".tmp" (same directory, so the rename never crosses
// filesystems) and removed on failure.
Status DurableWriteFile(const std::string& path, ByteSpan data);

// Reads a whole file into memory. kNotFound if it cannot be opened.
StatusOr<Bytes> ReadFileBytes(const std::string& path);

// fsyncs a directory so completed renames/creates/unlinks inside it
// survive power loss.
Status FsyncDir(const std::string& dir);

}  // namespace vegvisir
