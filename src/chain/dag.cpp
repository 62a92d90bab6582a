#include "chain/dag.h"

#include <algorithm>
#include <cstring>
#include <queue>

#include "crypto/sha256.h"

namespace vegvisir::chain {
namespace {

const std::vector<BlockHash> kNoHashes;
const std::string kNoCreator;

}  // namespace

Dag::Dag(Block genesis) {
  genesis_hash_ = genesis.hash();
  Entry e;
  e.parents = genesis.header().parents;  // empty for a true genesis
  e.creator = genesis.header().user_id;
  e.timestamp = genesis.header().timestamp_ms;
  e.encoded_size = genesis.EncodedSize();
  e.block = std::move(genesis);
  stored_count_ = 1;
  stored_bytes_ = e.encoded_size;
  Append(genesis_hash_, std::move(e), {});
}

const Dag::Entry* Dag::FindEntry(const BlockHash& h) const {
  const auto it = index_.find(h);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

Status Dag::FindParents(const std::vector<BlockHash>& parents,
                        std::vector<Slot>* slots) const {
  slots->reserve(parents.size());
  for (const BlockHash& p : parents) {
    const auto it = index_.find(p);
    if (it == index_.end()) {
      return NotFoundError("missing parent " + HashShort(p));
    }
    slots->push_back(it->second);
  }
  return Status::Ok();
}

void Dag::Append(const BlockHash& hash, Entry e,
                 const std::vector<Slot>& parent_slots) {
  const Slot slot = static_cast<Slot>(hashes_.size());
  for (const Slot p : parent_slots) {
    entries_[p].children.push_back(slot);
    frontier_.erase(hashes_[p]);
  }
  frontier_.insert(hash);
  entries_.push_back(std::move(e));
  hashes_.push_back(hash);
  index_.emplace(hash, slot);
}

Presence Dag::PresenceOf(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  if (e == nullptr) return Presence::kAbsent;
  return e->block.has_value() ? Presence::kStored : Presence::kEvicted;
}

const Block* Dag::Find(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  if (e == nullptr || !e->block.has_value()) return nullptr;
  return &*e->block;
}

Status Dag::Insert(Block block) {
  const BlockHash h = block.hash();
  if (index_.count(h) > 0) {
    return AlreadyExistsError("block " + HashShort(h));
  }
  if (block.header().parents.empty()) {
    return FailedPreconditionError(
        "parentless block is not this chain's genesis");
  }
  std::vector<Slot> parent_slots;
  VEGVISIR_RETURN_IF_ERROR(FindParents(block.header().parents, &parent_slots));

  Entry e;
  e.parents = block.header().parents;
  e.creator = block.header().user_id;
  e.timestamp = block.header().timestamp_ms;
  e.encoded_size = block.EncodedSize();
  e.block = std::move(block);
  stored_count_ += 1;
  stored_bytes_ += e.encoded_size;
  Append(h, std::move(e), parent_slots);
  return Status::Ok();
}

std::vector<BlockHash> Dag::Frontier() const {
  return std::vector<BlockHash>(frontier_.begin(), frontier_.end());
}

std::vector<BlockHash> Dag::FrontierLevel(int n) const {
  std::set<BlockHash> level(frontier_.begin(), frontier_.end());
  std::set<BlockHash> boundary = level;  // blocks added at the last level
  for (int i = 1; i < n; ++i) {
    std::set<BlockHash> next_boundary;
    for (const BlockHash& h : boundary) {
      const Entry* e = FindEntry(h);
      for (const BlockHash& p : e->parents) {
        if (level.insert(p).second) next_boundary.insert(p);
      }
    }
    if (next_boundary.empty()) break;  // reached genesis everywhere
    boundary = std::move(next_boundary);
  }
  return std::vector<BlockHash>(level.begin(), level.end());
}

BlockHash Dag::FrontierDigest() const {
  crypto::Sha256 hasher;
  for (const BlockHash& h : frontier_) {  // std::set: already sorted
    hasher.Update(ByteSpan(h.data(), h.size()));
  }
  const crypto::Sha256Digest digest = hasher.Finish();
  BlockHash out;
  std::memcpy(out.data(), digest.data(), out.size());
  return out;
}

const std::vector<BlockHash>& Dag::ParentsOf(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  return e == nullptr ? kNoHashes : e->parents;
}

std::vector<BlockHash> Dag::ChildrenOf(const BlockHash& h) const {
  std::vector<BlockHash> children;
  if (const Entry* e = FindEntry(h)) {
    for (const Slot c : e->children) children.push_back(hashes_[c]);
  }
  return children;
}

const std::string& Dag::CreatorOf(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  return e == nullptr ? kNoCreator : e->creator;
}

std::uint64_t Dag::TimestampOf(const BlockHash& h) const {
  const Entry* e = FindEntry(h);
  return e == nullptr ? 0 : e->timestamp;
}

std::vector<BlockHash> Dag::TopologicalOrder() const {
  // Kahn's algorithm; the ready set is a min-heap on block hash so the
  // order is the same on every replica.
  std::vector<std::size_t> pending_parents(entries_.size());
  for (std::size_t s = 0; s < entries_.size(); ++s) {
    pending_parents[s] = entries_[s].parents.size();
  }
  const auto hash_greater = [this](Slot a, Slot b) {
    return hashes_[a] > hashes_[b];
  };
  std::priority_queue<Slot, std::vector<Slot>, decltype(hash_greater)> ready(
      hash_greater);
  ready.push(0);  // genesis

  std::vector<BlockHash> order;
  order.reserve(entries_.size());
  while (!ready.empty()) {
    const Slot s = ready.top();
    ready.pop();
    order.push_back(hashes_[s]);
    for (const Slot c : entries_[s].children) {
      if (--pending_parents[c] == 0) ready.push(c);
    }
  }
  return order;
}

bool Dag::IsAncestor(const BlockHash& ancestor, const BlockHash& descendant,
                     bool include_self) const {
  if (ancestor == descendant) return include_self;
  if (!Contains(ancestor) || !Contains(descendant)) return false;
  // Walk upward from the descendant.
  std::set<BlockHash> visited;
  std::vector<BlockHash> stack = {descendant};
  while (!stack.empty()) {
    const BlockHash h = stack.back();
    stack.pop_back();
    for (const BlockHash& p : FindEntry(h)->parents) {
      if (p == ancestor) return true;
      if (visited.insert(p).second) stack.push_back(p);
    }
  }
  return false;
}

std::set<BlockHash> Dag::Ancestors(const BlockHash& h) const {
  std::set<BlockHash> result;
  if (!Contains(h)) return result;
  std::vector<BlockHash> stack = {h};
  while (!stack.empty()) {
    const BlockHash cur = stack.back();
    stack.pop_back();
    for (const BlockHash& p : FindEntry(cur)->parents) {
      if (result.insert(p).second) stack.push_back(p);
    }
  }
  return result;
}

std::set<BlockHash> Dag::Descendants(const BlockHash& h) const {
  std::set<BlockHash> result;
  const Entry* e = FindEntry(h);
  if (e == nullptr) return result;
  std::vector<const Entry*> stack = {e};
  while (!stack.empty()) {
    const Entry* cur = stack.back();
    stack.pop_back();
    for (const Slot c : cur->children) {
      if (result.insert(hashes_[c]).second) stack.push_back(&entries_[c]);
    }
  }
  return result;
}

std::uint64_t Dag::MaxParentTimestamp(
    const std::vector<BlockHash>& parents) const {
  std::uint64_t max_ts = 0;
  for (const BlockHash& p : parents) {
    max_ts = std::max(max_ts, TimestampOf(p));
  }
  return max_ts;
}

std::set<std::string> Dag::WitnessesOf(const BlockHash& h) const {
  std::set<std::string> witnesses;
  const Entry* e = FindEntry(h);
  if (e == nullptr) return witnesses;
  for (const BlockHash& d : Descendants(h)) {
    const std::string& creator = FindEntry(d)->creator;
    if (creator != e->creator) witnesses.insert(creator);
  }
  return witnesses;
}

Status Dag::Evict(const BlockHash& h) {
  const auto it = index_.find(h);
  if (it == index_.end()) return NotFoundError("block " + HashShort(h));
  Entry& e = entries_[it->second];
  if (!e.block.has_value()) {
    return FailedPreconditionError("block already evicted");
  }
  if (h == genesis_hash_) {
    return FailedPreconditionError("genesis cannot be evicted");
  }
  if (e.children.empty()) {
    return FailedPreconditionError("frontier block cannot be evicted");
  }
  e.block.reset();
  stored_count_ -= 1;
  stored_bytes_ -= e.encoded_size;
  return Status::Ok();
}

Status Dag::InsertEvictedStub(const BlockHash& hash,
                              std::vector<BlockHash> parents,
                              std::string creator,
                              std::uint64_t timestamp_ms,
                              std::size_t encoded_size) {
  if (index_.count(hash) > 0) {
    return AlreadyExistsError("block " + HashShort(hash));
  }
  if (parents.empty()) {
    return FailedPreconditionError("stub cannot be a second genesis");
  }
  std::vector<Slot> parent_slots;
  VEGVISIR_RETURN_IF_ERROR(FindParents(parents, &parent_slots));
  Entry e;
  e.parents = std::move(parents);
  e.creator = std::move(creator);
  e.timestamp = timestamp_ms;
  e.encoded_size = encoded_size;
  Append(hash, std::move(e), parent_slots);
  return Status::Ok();
}

Status Dag::Restore(Block block) {
  const auto it = index_.find(block.hash());
  if (it == index_.end()) {
    return NotFoundError("unknown block " + HashShort(block.hash()));
  }
  Entry& e = entries_[it->second];
  if (e.block.has_value()) {
    return AlreadyExistsError("block body already present");
  }
  stored_count_ += 1;
  stored_bytes_ += block.EncodedSize();
  e.encoded_size = block.EncodedSize();
  e.block = std::move(block);
  return Status::Ok();
}

std::vector<BlockHash> Dag::StoredOldestFirst() const {
  std::vector<Slot> stored;
  stored.reserve(stored_count_);
  for (Slot s = 0; s < entries_.size(); ++s) {
    if (entries_[s].block.has_value()) stored.push_back(s);
  }
  std::sort(stored.begin(), stored.end(), [this](Slot a, Slot b) {
    const std::uint64_t ta = entries_[a].timestamp, tb = entries_[b].timestamp;
    return ta != tb ? ta < tb : hashes_[a] < hashes_[b];
  });
  std::vector<BlockHash> out;
  out.reserve(stored.size());
  for (const Slot s : stored) out.push_back(hashes_[s]);
  return out;
}

}  // namespace vegvisir::chain
