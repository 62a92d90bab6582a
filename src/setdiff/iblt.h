// Invertible Bloom Lookup Table over salted 64-bit short IDs.
//
// The compact set-difference stage of reconciliation v2 (DESIGN.md
// §16): each peer folds its entire block set into a table of `cells`
// counters, cell-wise subtraction of two tables yields a sketch of
// the *symmetric difference only*, and peel-decoding that sketch
// recovers the differing keys exactly — so the wire cost of a sync
// scales with the delta, not with frontier depth (the §VI efficiency
// worry Algorithm 1's level escalation cannot avoid).
//
// Keys are not block hashes but ShortId(hash, salt): 64 bits of the
// hash mixed with a per-session salt, so a cell costs 17 wire bytes
// instead of 41. Only the side that holds a block can map its ID back
// to the hash; the session does that resolution (recon/session.cpp),
// and any ambiguity there counts as a failed decode.
//
// Decode is all-or-nothing and loudly so: Peel() returns false when
// the difference exceeds what the cell count can carry (or a key
// arrangement is unlucky), and the session reacts by escalating the
// cell count once and then falling back to level escalation — the
// sketch is an optimization, never a correctness dependency.
//
// The k probe positions and the per-key checksum are splitmix-style
// remixes of the ID with the table seed. Both peers MUST build with
// identical (cells, seed) for subtraction to be meaningful; Subtract
// enforces it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "chain/types.h"
#include "serial/codec.h"
#include "util/status.h"

namespace vegvisir::setdiff {

// Probe positions per key (k). 3 keeps the decodable-delta threshold
// near cells/1.3 while costing three cell updates per insert.
inline constexpr std::size_t kIbltHashCount = 3;

// Wire floor of one encoded cell: 1-byte minimum zigzag count +
// 8-byte key XOR + 8-byte checksum XOR. CheckWireCount divides the
// remaining input by this, so a cell-count bomb must pay for padding.
inline constexpr std::size_t kIbltCellWireBytes = 1 + 8 + 8;

// The 64-bit short ID of a block hash under a session salt. Every
// byte of the hash feeds the ID, so hashes sharing any 8-byte lane
// still get independent IDs.
std::uint64_t ShortId(const chain::BlockHash& hash, std::uint64_t salt);

struct IbltCell {
  std::int64_t count = 0;
  std::uint64_t key_sum = 0;    // XOR fold of resident keys
  std::uint64_t check_sum = 0;  // XOR fold of per-key checksums

  bool IsZero() const { return count == 0 && key_sum == 0 && check_sum == 0; }
  bool operator==(const IbltCell& other) const = default;
};

class Iblt {
 public:
  // `cells` is clamped to [1, kMaxIbltCells] by the callers (the
  // decoder enforces the cap; sessions pick sizes via CellsForDelta).
  Iblt(std::size_t cells, std::uint64_t seed);

  void Insert(std::uint64_t key);
  void Erase(std::uint64_t key);

  // Cell-wise subtraction (this - other). Fails unless both tables
  // were built with the same cell count and seed.
  Status Subtract(const Iblt& other);

  // Peel-decodes a *difference* table (the result of Subtract).
  // Keys this side held and the peer did not land in `plus`; keys the
  // peer held land in `minus`; both come back sorted so downstream
  // behaviour is replica-deterministic. Returns false — leaving the
  // outputs empty — when the table does not fully peel (delta larger
  // than the cells can carry); the caller escalates or falls back.
  bool Peel(std::vector<std::uint64_t>* plus,
            std::vector<std::uint64_t>* minus) const;

  std::size_t cell_count() const { return cells_.size(); }
  std::uint64_t seed() const { return seed_; }
  const std::vector<IbltCell>& cells() const { return cells_; }

  // Wire form: varint cell count, then per cell a zigzag count and
  // the fixed u64 key and checksum XORs. The seed travels in the
  // enclosing DiffSketch message, not here.
  void Encode(serial::Writer* w) const;
  static StatusOr<Iblt> Decode(serial::Reader* r, std::uint64_t seed);

 private:
  void Apply(std::uint64_t key, std::int64_t delta);
  void Positions(std::uint64_t key, std::size_t out[kIbltHashCount]) const;
  std::uint64_t CheckOf(std::uint64_t key) const;

  std::uint64_t seed_;
  // Per-role remixes of the seed: one per probe position, then the
  // checksum's.
  std::array<std::uint64_t, kIbltHashCount + 1> lane_seeds_;
  std::vector<IbltCell> cells_;
};

// Sizing policy shared by both session sides: the cell count that
// gives a ~1.5x margin over an estimated symmetric difference, with a
// floor that absorbs estimator error on tiny deltas. Clamped to
// `cap` (a responder's configured ceiling, itself <= kMaxIbltCells).
std::size_t CellsForDelta(std::uint64_t estimated_delta, std::size_t cap);

// The escalated retry size after a decode failure (one step, x4).
std::size_t EscalatedCells(std::size_t previous, std::size_t cap);

}  // namespace vegvisir::setdiff
