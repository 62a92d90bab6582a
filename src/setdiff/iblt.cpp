#include "setdiff/iblt.h"

#include <algorithm>
#include <cstring>
#include <deque>

#include "serial/limits.h"

namespace vegvisir::setdiff {
namespace {

// splitmix64: the standard 64-bit finalizer-style mixer. One round per
// input word decorrelates the output from the seed and from every
// other word.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t ShortId(const chain::BlockHash& hash, std::uint64_t salt) {
  std::uint64_t id = salt;
  for (std::size_t lane = 0; lane < hash.size(); lane += 8) {
    std::uint64_t v;
    std::memcpy(&v, hash.data() + lane, sizeof(v));
    id = Mix64(id ^ v);
  }
  return id;
}

Iblt::Iblt(std::size_t cells, std::uint64_t seed)
    : seed_(seed), cells_(std::max<std::size_t>(cells, 1)) {
  for (std::size_t i = 0; i < lane_seeds_.size(); ++i) {
    lane_seeds_[i] = Mix64(seed + i);
  }
}

void Iblt::Positions(std::uint64_t key,
                     std::size_t out[kIbltHashCount]) const {
  // Partitioned layout: position i is drawn from subtable i (the
  // table split into k contiguous, nearly-equal segments). A single
  // key can therefore never collide with itself — without this, all
  // three positions coincide with probability 1/cells^2 per key,
  // leaving a count-3 cell that no table size can peel, and 2-of-3
  // self-collisions measurably raise the failure rate of the small
  // tables CellsForDelta produces.
  const std::size_t total = cells_.size();
  if (total < kIbltHashCount) {
    // Degenerate decoder-supplied geometry: no partition possible.
    // Peel will simply fail cleanly on anything nontrivial.
    for (std::size_t i = 0; i < kIbltHashCount; ++i) {
      out[i] = static_cast<std::size_t>(Mix64(key ^ lane_seeds_[i]) % total);
    }
    return;
  }
  const std::size_t base = total / kIbltHashCount;
  for (std::size_t i = 0; i < kIbltHashCount; ++i) {
    const std::size_t begin = i * base;
    const std::size_t size =
        (i + 1 == kIbltHashCount) ? total - begin : base;
    out[i] = begin + static_cast<std::size_t>(
                         Mix64(key ^ lane_seeds_[i]) % size);
  }
}

std::uint64_t Iblt::CheckOf(std::uint64_t key) const {
  return Mix64(key ^ lane_seeds_[kIbltHashCount]);
}

void Iblt::Apply(std::uint64_t key, std::int64_t delta) {
  std::size_t pos[kIbltHashCount];
  Positions(key, pos);
  const std::uint64_t check = CheckOf(key);
  for (std::size_t i = 0; i < kIbltHashCount; ++i) {
    IbltCell& cell = cells_[pos[i]];
    cell.count += delta;
    cell.key_sum ^= key;
    cell.check_sum ^= check;
  }
}

void Iblt::Insert(std::uint64_t key) { Apply(key, 1); }
void Iblt::Erase(std::uint64_t key) { Apply(key, -1); }

Status Iblt::Subtract(const Iblt& other) {
  if (other.cells_.size() != cells_.size() || other.seed_ != seed_) {
    return InvalidArgumentError("iblt parameter mismatch");
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    IbltCell& a = cells_[i];
    const IbltCell& b = other.cells_[i];
    a.count -= b.count;
    a.key_sum ^= b.key_sum;
    a.check_sum ^= b.check_sum;
  }
  return Status::Ok();
}

bool Iblt::Peel(std::vector<std::uint64_t>* plus,
                std::vector<std::uint64_t>* minus) const {
  plus->clear();
  minus->clear();
  Iblt work = *this;

  // A cell is pure when exactly one difference key remains resident:
  // |count| == 1 and the checksum fold matches the lone key's own
  // checksum (the 64-bit check makes a coincidental match
  // negligible). Peeling that key may expose new pure cells.
  //
  // Each honest peel empties the pure cell it came from, so a table
  // of n cells yields at most n keys. A forged table can make two
  // cells hand one key back and forth forever; the bound stops it.
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < work.cells_.size(); ++i) queue.push_back(i);
  const auto bounded = [&] {
    return plus->size() + minus->size() <= work.cells_.size();
  };
  while (!queue.empty() && bounded()) {
    const std::size_t i = queue.front();
    queue.pop_front();
    const IbltCell& cell = work.cells_[i];
    if (cell.count != 1 && cell.count != -1) continue;
    const std::uint64_t key = cell.key_sum;
    if (work.CheckOf(key) != cell.check_sum) continue;
    const std::int64_t sign = cell.count;
    (sign > 0 ? plus : minus)->push_back(key);
    work.Apply(key, -sign);
    std::size_t pos[kIbltHashCount];
    work.Positions(key, pos);
    for (std::size_t p = 0; p < kIbltHashCount; ++p) queue.push_back(pos[p]);
  }

  const bool clean =
      bounded() && std::all_of(work.cells_.begin(), work.cells_.end(),
                               [](const IbltCell& c) { return c.IsZero(); });
  if (!clean) {
    plus->clear();
    minus->clear();
    return false;
  }
  std::sort(plus->begin(), plus->end());
  std::sort(minus->begin(), minus->end());
  return true;
}

void Iblt::Encode(serial::Writer* w) const {
  w->WriteVarint(cells_.size());
  for (const IbltCell& cell : cells_) {
    w->WriteI64(cell.count);
    w->WriteU64(cell.key_sum);
    w->WriteU64(cell.check_sum);
  }
}

StatusOr<Iblt> Iblt::Decode(serial::Reader* r, std::uint64_t seed) {
  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r->ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxIbltCells, r->remaining(),
      kIbltCellWireBytes, "cell"));
  if (count == 0) return InvalidArgumentError("cell count must be >= 1");
  Iblt out(static_cast<std::size_t>(count), seed);
  for (std::uint64_t i = 0; i < count; ++i) {
    IbltCell& cell = out.cells_[static_cast<std::size_t>(i)];
    VEGVISIR_RETURN_IF_ERROR(r->ReadI64(&cell.count));
    VEGVISIR_RETURN_IF_ERROR(r->ReadU64(&cell.key_sum));
    VEGVISIR_RETURN_IF_ERROR(r->ReadU64(&cell.check_sum));
  }
  return out;
}

std::size_t CellsForDelta(std::uint64_t estimated_delta, std::size_t cap) {
  // 2x the estimate: the asymptotic k=3 peel threshold is ~1.22x, but
  // the small tables this path actually builds (tens of cells) sit in
  // the finite-size regime where 1.5x still fails ~10% of the time,
  // and every failure costs a full escalation round trip — expensive
  // on the lossy links this protocol targets. The +8 floor absorbs
  // estimator error on tiny deltas.
  const std::uint64_t sized = estimated_delta * 2 + 8;
  const std::uint64_t floor = std::max<std::uint64_t>(sized, 16);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(floor, std::max<std::size_t>(cap, 1)));
}

std::size_t EscalatedCells(std::size_t previous, std::size_t cap) {
  const std::uint64_t grown = static_cast<std::uint64_t>(previous) * 4;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(grown, std::max<std::size_t>(cap, 1)));
}

}  // namespace vegvisir::setdiff
