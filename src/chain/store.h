// Chain persistence: save and load a replica to a file.
//
// IoT devices reboot; a replica must survive power cycles without
// re-fetching its history over the radio. The on-disk format is a
// versioned header, the genesis block, then every other block -- a
// stored body or an evicted stub's linkage -- in the DAG's slot order
// (Dag::Hashes(): parents first, so the loaded DAG gets the same
// slots; the bytes differ across replicas holding the same DAG), and
// a SHA-256 checksum over everything before it. Loading re-validates
// structure (the DAG insert rules) and the checksum, so a corrupted or
// tampered file is rejected rather than silently half-loaded. CSM
// state is not persisted: it is a pure function of the blocks and is
// deterministically rebuilt by replay (tested in store_test).
#pragma once

#include <string>

#include "chain/dag.h"
#include "util/status.h"

namespace vegvisir::chain {

// Serializes the DAG (stored bodies + evicted stubs) to bytes.
Bytes SerializeDag(const Dag& dag);

// Reconstructs a DAG from SerializeDag output. Fails on version or
// checksum mismatch, malformed blocks, or structural violations.
// Evicted stubs are restored as evicted (bodies must be re-fetched
// from a superpeer).
StatusOr<Dag> DeserializeDag(ByteSpan data);

// File convenience wrappers (atomic via write-to-temp + rename).
Status SaveDagToFile(const Dag& dag, const std::string& path);
StatusOr<Dag> LoadDagFromFile(const std::string& path);

}  // namespace vegvisir::chain
