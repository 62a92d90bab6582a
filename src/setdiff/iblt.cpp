#include "setdiff/iblt.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

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

std::uint64_t CheckOf(std::uint64_t key) {
  return Mix64(key ^ 0x636865636b73756dULL);  // "checksum"
}

// A key sits in symbol k with probability 2/(k+2) = 1/(1 + k/2),
// independently for every k. Below kDirect each symbol tests the key
// directly, with a hash of (key, k) and an integer threshold; most
// keys sit there, and a test costs one mix. Past it, IndexWalk draws
// the gap to the key's next symbol, since skipping symbols i+1..j has
// probability prod_{k=i+1..j} k/(k+2) = (i+1)(i+2) / ((j+1)(j+2)):
// few keys reach that far, and a walk step skips many symbols.
constexpr std::uint64_t kDirect = 32;

// hash <= kInSymbol[k] has probability 2/(k+2) over 64-bit hashes.
constexpr std::array<std::uint64_t, kDirect> kInSymbol = [] {
  std::array<std::uint64_t, kDirect> t{};
  for (std::uint64_t k = 0; k < kDirect; ++k) {
    t[k] = k == 0 ? ~std::uint64_t{0} : ~std::uint64_t{0} / (k + 2) * 2;
  }
  return t;
}();

// 1 if symbol k < kDirect holds the key, else 0.
std::uint64_t InSymbol(std::uint64_t key, std::uint64_t k) {
  return Mix64(key + k * 0xd1b54a32d192ed03ULL) <= kInSymbol[k] ? 1 : 0;
}

// The stream indices of one key at or past kDirect, in order, drawn
// from a PRNG seeded with the key.
class IndexWalk {
 public:
  explicit IndexWalk(std::uint64_t key) : rng_(key) { Next(); }

  std::uint64_t index() const { return index_; }

  // Inverting the skip tail at a uniform u in (0, 1] gives the next
  // index: the least j with (j+1)(j+2) >= (i+1)(i+2)/u. Every step
  // below is a correctly rounded IEEE operation (4*c is exact, so a
  // fused multiply-add cannot change the sum), so peers on any
  // platform agree.
  void Next() {
    rng_ = Mix64(rng_);
    const double u = static_cast<double>((rng_ >> 11) + 1) * 0x1p-53;
    const double i = static_cast<double>(index_);
    const double c = (i + 1) * (i + 2) / u;
    const double j = std::ceil((std::sqrt(1 + 4 * c) - 3) / 2);
    // Far past any stream the wire can carry: the key has no more
    // indices worth walking.
    if (j >= 0x1p62) {
      index_ = std::numeric_limits<std::uint64_t>::max();
      return;
    }
    index_ = std::max(index_ + 1, static_cast<std::uint64_t>(j));
  }

 private:
  std::uint64_t rng_;
  // Starts as if the key sat in the last directly tested symbol.
  std::uint64_t index_ = kDirect - 1;
};

// Calls fn(i) for every index i in [begin, end) whose symbol holds
// `key`, in increasing order.
template <typename Fn>
void ForEachIndex(std::uint64_t key, std::uint64_t begin, std::uint64_t end,
                  Fn fn) {
  for (std::uint64_t k = begin; k < std::min(end, kDirect); ++k) {
    if (InSymbol(key, k) != 0) fn(k);
  }
  if (end <= kDirect) return;
  for (IndexWalk w(key); w.index() < end; w.Next()) {
    if (w.index() >= begin) fn(w.index());
  }
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

void CodedSymbol::Apply(std::uint64_t key, std::int64_t delta) {
  count += delta;
  key_sum ^= key;
  check_sum ^= CheckOf(key);
}

std::vector<CodedSymbol> EncodeSymbols(const std::vector<std::uint64_t>& keys,
                                       std::uint64_t begin,
                                       std::uint64_t count) {
  std::vector<CodedSymbol> out(count);
  const std::uint64_t end = begin + count;
  for (const std::uint64_t key : keys) {
    const std::uint64_t check = CheckOf(key);
    ForEachIndex(key, begin, end, [&](std::uint64_t i) {
      CodedSymbol& s = out[i - begin];
      s.count += 1;
      s.key_sum ^= key;
      s.check_sum ^= check;
    });
  }
  return out;
}

std::uint64_t SymbolsFor(std::uint64_t delta) {
  // A difference of d keys peels after about 1.75d symbols at d <= 8,
  // falling towards 1.4d by d = 256, with a spread of about sqrt(d).
  // 1.5d + 2 sqrt(d) + 1 reads past the 95th percentile from d = 2 up;
  // a stuck decoder then doubles the prefix.
  const auto root =
      static_cast<std::uint64_t>(std::sqrt(static_cast<double>(delta)));
  return delta + delta / 2 + 2 * root + 1;
}

void WriteSymbols(serial::Writer* w, const std::vector<CodedSymbol>& symbols) {
  w->WriteVarint(symbols.size());
  for (const CodedSymbol& s : symbols) {
    w->WriteI64(s.count);
    w->WriteU64(s.key_sum);
    w->WriteU64(s.check_sum);
  }
}

Status ReadSymbols(serial::Reader* r, std::vector<CodedSymbol>* out) {
  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r->ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxSymbols, r->remaining(), kSymbolWireBytes,
      "symbol"));
  out->assign(static_cast<std::size_t>(count), CodedSymbol{});
  for (CodedSymbol& s : *out) {
    VEGVISIR_RETURN_IF_ERROR(r->ReadI64(&s.count));
    VEGVISIR_RETURN_IF_ERROR(r->ReadU64(&s.key_sum));
    VEGVISIR_RETURN_IF_ERROR(r->ReadU64(&s.check_sum));
  }
  return Status::Ok();
}

SymbolDecoder::SymbolDecoder(std::vector<std::uint64_t> local)
    : local_(std::move(local)) {
  std::sort(local_.begin(), local_.end());
}

void SymbolDecoder::Add(const std::vector<CodedSymbol>& chunk) {
  if (decoded_ || failed_) return;
  const std::uint64_t begin = diff_.size();
  const std::vector<CodedSymbol> mine =
      EncodeSymbols(local_, begin, chunk.size());
  std::vector<std::uint64_t> queue;
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    CodedSymbol s = chunk[i];
    s.count -= mine[i].count;
    s.key_sum ^= mine[i].key_sum;
    s.check_sum ^= mine[i].check_sum;
    diff_.push_back(s);
    queue.push_back(begin + i);
  }
  // Keys peeled from earlier chunks leave the new symbols too.
  for (const auto& [key, sign] : peeled_) {
    ForEachIndex(key, begin, diff_.size(), [&, key = key, sign = sign](
                                               std::uint64_t i) {
      diff_[i].Apply(key, -sign);
    });
  }
  Peel(std::move(queue));
}

void SymbolDecoder::Peel(std::vector<std::uint64_t> queue) {
  // A symbol is pure when exactly one difference key remains in it:
  // |count| == 1 and the checksum fold matches the lone key's own
  // checksum (the 64-bit check makes a coincidental match negligible).
  // Peeling that key may leave other symbols pure.
  while (!queue.empty()) {
    const CodedSymbol s = diff_[queue.back()];
    queue.pop_back();
    if ((s.count != 1 && s.count != -1) || CheckOf(s.key_sum) != s.check_sum) {
      continue;
    }
    // Each honest peel empties the symbol it came from, so a prefix of
    // n symbols yields at most n keys. A forged stream can hand one key
    // back and forth forever; the bound stops it.
    if (peeled_.size() == diff_.size()) {
      failed_ = true;
      return;
    }
    peeled_.emplace_back(s.key_sum, s.count);
    ForEachIndex(s.key_sum, 0, diff_.size(), [&](std::uint64_t i) {
      diff_[i].Apply(s.key_sum, -s.count);
      queue.push_back(i);
    });
  }
  // Symbol 0 holds every difference key: until it is empty, the
  // decoder needs more of the stream.
  if (!diff_.empty() && diff_[0].IsZero()) Finish();
}

void SymbolDecoder::Finish() {
  // Every other symbol holds a subset of symbol 0's keys, so an honest
  // stream is empty everywhere once symbol 0 is; and no honest key
  // peels twice.
  std::vector<std::uint64_t> all;
  for (const auto& [key, sign] : peeled_) {
    (sign > 0 ? remote_ : local_only_).push_back(key);
    all.push_back(key);
  }
  std::sort(all.begin(), all.end());
  if (std::adjacent_find(all.begin(), all.end()) != all.end() ||
      !std::all_of(diff_.begin(), diff_.end(),
                   [](const CodedSymbol& s) { return s.IsZero(); })) {
    remote_.clear();
    local_only_.clear();
    failed_ = true;
    return;
  }
  std::sort(remote_.begin(), remote_.end());
  std::sort(local_only_.begin(), local_only_.end());
  decoded_ = true;
}

}  // namespace vegvisir::setdiff
