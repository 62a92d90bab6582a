// Rateless IBLT over salted 64-bit short IDs.
//
// The compact set-difference stage of reconciliation v2 (DESIGN.md
// §16), after Yang, Gilad & Alizadeh, "Practical Rateless Set
// Reconciliation" (SIGCOMM 2024). A set is coded into an unbounded
// stream of symbols; any prefix of it works as an invertible Bloom
// lookup table. Subtracting two streams symbol by symbol leaves a
// stream of the *symmetric difference only*, and peel-decoding that
// recovers the differing keys exactly. So the wire cost of a sync
// scales with the delta, not with frontier depth (the §VI efficiency
// worry Algorithm 1's level escalation cannot avoid), and no estimate
// of the delta has to be right in advance: a decoder that is stuck
// just reads further into the stream.
//
// Every key lands in symbol 0, and in symbol i with probability
// 1/(1 + i/2), independently per symbol: the paper's mapping. Hashes
// of the key decide the first 32 symbols one by one; past them the
// paper's gap sampler, a PRNG seeded with the key, jumps to the key's
// next symbol. So both peers place a key identically with nothing
// agreed beyond the session salt. Symbol 0 holds the whole
// difference: the decoder is done when, after peeling, symbol 0 is
// empty.
//
// Keys are not block hashes but ShortId(hash, salt): 64 bits of the
// hash mixed with a per-session salt, so a symbol costs 17 wire bytes
// instead of 41. Only the side that holds a block can map its ID back
// to the hash; the session does that resolution (recon/session.cpp),
// and any ambiguity there counts as a failed decode.
//
// Decode is all-or-nothing and loudly so: the decoder reports its
// lists only once the received prefix peels completely, and fails a
// stream that cannot be the difference of two honest ones. The session
// falls back to level escalation past a total-symbol cap or on failure:
// the stream is an optimization, never a correctness dependency.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/types.h"
#include "serial/codec.h"
#include "util/status.h"

namespace vegvisir::setdiff {

// Wire floor of one encoded symbol: 1-byte minimum zigzag count +
// 8-byte key XOR + 8-byte checksum XOR. CheckWireCount divides the
// remaining input by this, so a symbol-count bomb must pay for padding.
inline constexpr std::size_t kSymbolWireBytes = 1 + 8 + 8;

// The 64-bit short ID of a block hash under a session salt. Every
// byte of the hash feeds the ID, so hashes sharing any 8-byte lane
// still get independent IDs.
std::uint64_t ShortId(const chain::BlockHash& hash, std::uint64_t salt);

struct CodedSymbol {
  std::int64_t count = 0;
  std::uint64_t key_sum = 0;    // XOR fold of resident keys
  std::uint64_t check_sum = 0;  // XOR fold of per-key checksums

  // Adds (delta > 0) or removes (delta < 0) one key.
  void Apply(std::uint64_t key, std::int64_t delta);
  bool IsZero() const { return count == 0 && key_sum == 0 && check_sum == 0; }
  bool operator==(const CodedSymbol& other) const = default;
};

// The symbols [begin, begin + count) of the stream coding `keys`.
std::vector<CodedSymbol> EncodeSymbols(const std::vector<std::uint64_t>& keys,
                                       std::uint64_t begin,
                                       std::uint64_t count);

// Sizing policy: how far into the stream to read first when the
// difference is believed to hold at least `delta` keys. It covers the
// symbols a difference of that size needs in most arrangements, so a
// second chunk is the exception.
std::uint64_t SymbolsFor(std::uint64_t delta);

// Wire form: varint symbol count, then per symbol a zigzag count and
// the fixed u64 key and checksum XORs.
void WriteSymbols(serial::Writer* w, const std::vector<CodedSymbol>& symbols);
Status ReadSymbols(serial::Reader* r, std::vector<CodedSymbol>* out);

// Peels a peer's stream against a local set, one chunk at a time.
class SymbolDecoder {
 public:
  explicit SymbolDecoder(std::vector<std::uint64_t> local);

  // Takes the peer's symbols [received(), received() + chunk.size()),
  // subtracts the local set's symbols at the same indices and peels
  // as far as the prefix received so far allows.
  void Add(const std::vector<CodedSymbol>& chunk);

  std::uint64_t received() const { return diff_.size(); }
  // The local set's keys, sorted.
  const std::vector<std::uint64_t>& local() const { return local_; }
  // The received prefix peeled completely: `remote_only` and
  // `local_only` hold the difference, each sorted.
  bool decoded() const { return decoded_; }
  // The stream cannot be the difference of two honest sets (a peel
  // that never ends, or keys left over once symbol 0 is empty). Final.
  bool failed() const { return failed_; }

  const std::vector<std::uint64_t>& remote_only() const { return remote_; }
  const std::vector<std::uint64_t>& local_only() const { return local_only_; }

 private:
  void Peel(std::vector<std::uint64_t> queue);
  void Finish();

  std::vector<std::uint64_t> local_;
  // The received prefix minus the local set and minus every key
  // peeled so far.
  std::vector<CodedSymbol> diff_;
  // Peeled keys with their sign (+1: only the peer holds it).
  std::vector<std::pair<std::uint64_t, std::int64_t>> peeled_;
  std::vector<std::uint64_t> remote_;
  std::vector<std::uint64_t> local_only_;
  bool decoded_ = false;
  bool failed_ = false;
};

}  // namespace vegvisir::setdiff
