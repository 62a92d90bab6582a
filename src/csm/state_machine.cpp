#include "csm/state_machine.h"

#include <algorithm>

#include "chain/genesis.h"
#include "crypto/sha256.h"
#include "serial/codec.h"
#include "serial/limits.h"

namespace vegvisir::csm {
namespace {

bool RoleIn(const std::string& role, const std::vector<std::string>& roles) {
  return std::find(roles.begin(), roles.end(), role) != roles.end();
}

bool IsReservedName(const std::string& name) {
  return name.rfind("__", 0) == 0;
}

}  // namespace

StateMachine::StateMachine(StateMachineConfig config,
                           telemetry::Telemetry* telemetry)
    : config_(std::move(config)),
      owned_(telemetry == nullptr ? std::make_unique<telemetry::Telemetry>()
                                  : nullptr),
      telem_(telemetry == nullptr ? owned_.get() : telemetry),
      c_applied_blocks_(telem_->metrics.GetCounter("csm.applied_blocks")),
      c_applied_txns_(telem_->metrics.GetCounter("csm.applied_txns")),
      c_rejected_txns_(telem_->metrics.GetCounter("csm.rejected_txns")),
      c_duplicate_creates_(
          telem_->metrics.GetCounter("csm.duplicate_creates")),
      meta_(crdt::ValueType::kStr) {}

void StateMachine::ApplyBlock(const chain::Block& block) {
  const chain::BlockHash h = block.hash();
  if (!applied_blocks_.insert(h).second) return;  // idempotent

  const std::string hash_hex = chain::HashHex(h);
  for (std::size_t i = 0; i < block.transactions().size(); ++i) {
    crdt::OpContext ctx;
    ctx.tx_id = hash_hex + ":" + std::to_string(i);
    ctx.user_id = block.header().user_id;
    ctx.timestamp = block.header().timestamp_ms;
    ApplyTx(block.transactions()[i], ctx, h);
  }
  c_applied_blocks_.Inc();
  // Block timestamps live in the same millisecond domain as the
  // simulated clock, so they are the natural trace time here.
  telem_->trace.RecordInstant("csm.apply", block.header().timestamp_ms,
                              block.transactions().size());
}

void StateMachine::ApplyTx(const chain::Transaction& tx,
                           const crdt::OpContext& ctx,
                           const chain::BlockHash& block_hash) {
  if (tx.crdt_name == chain::kUsersCrdtName) {
    ApplyUsersTx(tx, ctx, block_hash);
  } else if (tx.crdt_name == chain::kMetaCrdtName) {
    ApplyMetaTx(tx, ctx);
  } else if (tx.crdt_name == chain::kOmegaCrdtName) {
    ApplyOmegaTx(tx, ctx);
  } else if (IsReservedName(tx.crdt_name)) {
    Reject(ctx, "unknown reserved CRDT '" + tx.crdt_name + "'");
  } else {
    ApplyAppOp(tx, ctx);
  }
}

void StateMachine::ApplyUsersTx(const chain::Transaction& tx,
                                const crdt::OpContext& ctx,
                                const chain::BlockHash& block_hash) {
  if (tx.args.size() != 1 || tx.args[0].type() != crdt::ValueType::kBytes) {
    Reject(ctx, "U op takes one bytes argument (a certificate)");
    return;
  }
  auto cert = chain::Certificate::Deserialize(tx.args[0].AsBytes());
  if (!cert.ok()) {
    Reject(ctx, "malformed certificate: " + cert.status().ToString());
    return;
  }

  if (tx.op == "add") {
    const Status s = membership_.Add(*cert, block_hash);
    if (!s.ok()) {
      Reject(ctx, "enrolment refused: " + s.ToString());
      return;
    }
    c_applied_txns_.Inc();
    return;
  }

  if (tx.op == "remove") {
    const std::string role = membership_.RoleOf(ctx.user_id);
    if (!RoleIn(role, config_.revoker_roles)) {
      Reject(ctx, "role '" + role + "' may not revoke certificates");
      return;
    }
    const Status s = membership_.Revoke(*cert, block_hash);
    if (!s.ok()) {
      Reject(ctx, "revocation refused: " + s.ToString());
      return;
    }
    c_applied_txns_.Inc();
    return;
  }

  Reject(ctx, "U supports 'add' and 'remove', got '" + tx.op + "'");
}

void StateMachine::ApplyMetaTx(const chain::Transaction& tx,
                               const crdt::OpContext& ctx) {
  // Chain metadata is owner-writable only.
  if (membership_.RoleOf(ctx.user_id) != chain::kOwnerRole) {
    Reject(ctx, "only the owner may write __meta__");
    return;
  }
  const Status s = meta_.Apply(tx.op, tx.args, ctx);
  if (!s.ok()) {
    Reject(ctx, "__meta__ op failed: " + s.ToString());
    return;
  }
  c_applied_txns_.Inc();
}

void StateMachine::ApplyOmegaTx(const chain::Transaction& tx,
                                const crdt::OpContext& ctx) {
  if (tx.op != "create") {
    Reject(ctx, "__omega__ supports only 'create'");
    return;
  }
  if (tx.args.size() != 4) {
    Reject(ctx, "create takes (name, type, element_type, acl)");
    return;
  }
  for (const crdt::Value& v : tx.args) {
    if (v.type() != crdt::ValueType::kStr) {
      Reject(ctx, "create arguments must all be strings");
      return;
    }
  }
  const std::string& name = tx.args[0].AsStr();
  if (name.empty() || IsReservedName(name)) {
    Reject(ctx, "invalid CRDT name '" + name + "'");
    return;
  }
  crdt::CrdtType type;
  if (!crdt::CrdtTypeFromName(tx.args[1].AsStr(), &type)) {
    Reject(ctx, "unknown CRDT type '" + tx.args[1].AsStr() + "'");
    return;
  }
  crdt::ValueType element_type;
  {
    const std::string& e = tx.args[2].AsStr();
    if (e == "bool") {
      element_type = crdt::ValueType::kBool;
    } else if (e == "int") {
      element_type = crdt::ValueType::kInt;
    } else if (e == "str") {
      element_type = crdt::ValueType::kStr;
    } else if (e == "bytes") {
      element_type = crdt::ValueType::kBytes;
    } else {
      Reject(ctx, "unknown element type '" + e + "'");
      return;
    }
  }
  auto policy = AclPolicy::Parse(tx.args[3].AsStr());
  if (!policy.ok()) {
    Reject(ctx, "bad acl: " + policy.status().ToString());
    return;
  }
  if (!config_.creator_roles.empty() &&
      !RoleIn(membership_.RoleOf(ctx.user_id), config_.creator_roles)) {
    Reject(ctx, "role may not create CRDTs");
    return;
  }
  if (membership_.FindCertificate(ctx.user_id) == nullptr) {
    Reject(ctx, "creator is not a member");
    return;
  }

  const auto it = omega_.find(name);
  if (it != omega_.end()) {
    if (ctx.tx_id >= it->second.creation_tx_id) {
      // Deterministic loser of a name race (or a literal duplicate).
      c_duplicate_creates_.Inc();
      return;
    }
    if (config_.compact_op_log) {
      // The log was compacted away, so the late winner cannot replay:
      // keep the incumbent (first-create-wins-by-arrival; see the
      // compact_op_log documentation for the trade-off).
      c_duplicate_creates_.Inc();
      return;
    }
    // This create wins the race: rebuild and replay below.
    c_duplicate_creates_.Inc();
  }

  Instance inst;
  inst.creation_tx_id = ctx.tx_id;
  inst.type = type;
  inst.element_type = element_type;
  inst.policy = *std::move(policy);
  inst.crdt = crdt::CreateCrdt(type, element_type);
  omega_[name] = std::move(inst);
  c_applied_txns_.Inc();

  // Replay the operation log (parked ops, or everything after a
  // create-race winner change). Replays do not recount stats.
  const auto log_it = op_log_.find(name);
  if (log_it != op_log_.end()) {
    Instance& target = omega_[name];
    for (const OpRecord& rec : log_it->second) {
      RunOp(target, rec, /*count_stats=*/false);
    }
    // In compacted mode the parked ops have served their purpose.
    if (config_.compact_op_log) op_log_.erase(log_it);
  }
}

void StateMachine::ApplyAppOp(const chain::Transaction& tx,
                              const crdt::OpContext& ctx) {
  OpRecord rec{tx.op, tx.args, ctx};
  const auto inst_it = omega_.find(tx.crdt_name);
  if (inst_it != omega_.end()) {
    RunOp(inst_it->second, rec, /*count_stats=*/true);
    // Compacted mode keeps no history for applied ops.
    if (config_.compact_op_log) return;
  }
  // Logged for replays (create races) and for ops parked ahead of
  // their create.
  op_log_[tx.crdt_name].push_back(std::move(rec));
}

void StateMachine::RunOp(Instance& inst, const OpRecord& rec,
                         bool count_stats) {
  const std::string role = membership_.RoleOf(rec.ctx.user_id);
  if (!inst.policy.IsAllowed(role, rec.op)) {
    if (count_stats) {
      Reject(rec.ctx, "role '" + role + "' may not '" + rec.op + "'");
    }
    return;
  }
  const Status s = inst.crdt->Apply(rec.op, rec.args, rec.ctx);
  if (!s.ok()) {
    if (count_stats) Reject(rec.ctx, s.ToString());
    return;
  }
  if (count_stats) c_applied_txns_.Inc();
}

void StateMachine::Reject(const crdt::OpContext& ctx, std::string reason) {
  c_rejected_txns_.Inc();
  if (rejections_.size() < config_.max_rejection_log) {
    rejections_.push_back(Rejection{ctx.tx_id, std::move(reason)});
  }
}

const crdt::Crdt* StateMachine::FindCrdt(const std::string& name) const {
  const auto it = omega_.find(name);
  return it == omega_.end() ? nullptr : it->second.crdt.get();
}

std::vector<std::string> StateMachine::CrdtNames() const {
  std::vector<std::string> names;
  names.reserve(omega_.size());
  for (const auto& [name, inst] : omega_) names.push_back(name);
  return names;
}

const AclPolicy* StateMachine::PolicyOf(const std::string& name) const {
  const auto it = omega_.find(name);
  return it == omega_.end() ? nullptr : &it->second.policy;
}

std::string StateMachine::ChainName() const {
  const auto v = meta_.Get("name");
  return v.has_value() ? v->AsStr() : "";
}

std::size_t StateMachine::PendingOpCount() const {
  std::size_t n = 0;
  for (const auto& [name, log] : op_log_) {
    if (omega_.count(name) == 0) n += log.size();
  }
  return n;
}

Bytes StateMachine::StateFingerprint() const {
  serial::Writer w;
  w.WriteString("csm-state");
  w.WriteBytes(membership_.StateFingerprint());
  w.WriteBytes(meta_.StateFingerprint());
  w.WriteVarint(omega_.size());
  for (const auto& [name, inst] : omega_) {
    w.WriteString(name);
    w.WriteString(inst.creation_tx_id);
    w.WriteU8(static_cast<std::uint8_t>(inst.type));
    w.WriteU8(static_cast<std::uint8_t>(inst.element_type));
    w.WriteString(inst.policy.Serialize());
    w.WriteBytes(inst.crdt->StateFingerprint());
  }
  return w.Take();
}

Bytes StateMachine::SaveSnapshot() const {
  serial::Writer w;
  w.WriteString("vegvisir-csm-snapshot-v1");
  membership_.EncodeState(&w);
  meta_.EncodeState(&w);

  w.WriteVarint(omega_.size());
  for (const auto& [name, inst] : omega_) {
    w.WriteString(name);
    w.WriteString(inst.creation_tx_id);
    w.WriteU8(static_cast<std::uint8_t>(inst.type));
    w.WriteU8(static_cast<std::uint8_t>(inst.element_type));
    w.WriteString(inst.policy.Serialize());
    inst.crdt->EncodeState(&w);
  }

  w.WriteVarint(op_log_.size());
  for (const auto& [name, records] : op_log_) {
    w.WriteString(name);
    w.WriteVarint(records.size());
    for (const OpRecord& rec : records) {
      w.WriteString(rec.op);
      w.WriteVarint(rec.args.size());
      for (const crdt::Value& v : rec.args) v.Encode(&w);
      w.WriteString(rec.ctx.tx_id);
      w.WriteString(rec.ctx.user_id);
      w.WriteU64(rec.ctx.timestamp);
    }
  }

  w.WriteVarint(applied_blocks_.size());
  for (const chain::BlockHash& h : applied_blocks_) w.WriteFixed(h);

  Bytes payload = w.Take();
  const crypto::Sha256Digest checksum = crypto::Sha256::Hash(payload);
  Append(&payload, ByteSpan(checksum.data(), checksum.size()));
  return payload;
}

Status StateMachine::LoadSnapshot(ByteSpan data) {
  if (data.size() < crypto::kSha256DigestSize) {
    return InvalidArgumentError("snapshot too short");
  }
  const ByteSpan payload(data.data(),
                         data.size() - crypto::kSha256DigestSize);
  const ByteSpan stored(data.data() + payload.size(),
                        crypto::kSha256DigestSize);
  const crypto::Sha256Digest computed = crypto::Sha256::Hash(payload);
  if (!ConstantTimeEqual(stored, ByteSpan(computed.data(), computed.size()))) {
    return InvalidArgumentError("snapshot checksum mismatch");
  }

  serial::Reader r(payload);
  std::string magic;
  VEGVISIR_RETURN_IF_ERROR(r.ReadString(&magic));
  if (magic != "vegvisir-csm-snapshot-v1") {
    return InvalidArgumentError("bad snapshot magic");
  }

  // Decode into a fresh state machine so a failure midway leaves the
  // current state untouched.
  StateMachine loaded(config_);
  VEGVISIR_RETURN_IF_ERROR(loaded.membership_.DecodeState(&r));
  VEGVISIR_RETURN_IF_ERROR(loaded.meta_.DecodeState(&r));

  std::uint64_t count;
  VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxCsmInstances, r.remaining(), 1, "instance"));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name;
    VEGVISIR_RETURN_IF_ERROR(r.ReadString(&name));
    Instance inst;
    VEGVISIR_RETURN_IF_ERROR(r.ReadString(&inst.creation_tx_id));
    std::uint8_t type_tag, elem_tag;
    VEGVISIR_RETURN_IF_ERROR(r.ReadU8(&type_tag));
    VEGVISIR_RETURN_IF_ERROR(r.ReadU8(&elem_tag));
    if (type_tag > static_cast<std::uint8_t>(crdt::CrdtType::kEwFlag) ||
        elem_tag > static_cast<std::uint8_t>(crdt::ValueType::kBytes)) {
      return InvalidArgumentError("bad type tags in snapshot");
    }
    inst.type = static_cast<crdt::CrdtType>(type_tag);
    inst.element_type = static_cast<crdt::ValueType>(elem_tag);
    std::string policy_text;
    VEGVISIR_RETURN_IF_ERROR(r.ReadString(&policy_text));
    auto policy = AclPolicy::Parse(policy_text);
    if (!policy.ok()) return policy.status();
    inst.policy = *std::move(policy);
    inst.crdt = crdt::CreateCrdt(inst.type, inst.element_type);
    VEGVISIR_RETURN_IF_ERROR(inst.crdt->DecodeState(&r));
    loaded.omega_.emplace(std::move(name), std::move(inst));
  }

  VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxOpLogCrdts, r.remaining(), 1, "op-log"));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name;
    VEGVISIR_RETURN_IF_ERROR(r.ReadString(&name));
    std::uint64_t record_count;
    VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&record_count));
    VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
        record_count, serial::limits::kMaxOpRecords, r.remaining(), 1,
        "record"));
    std::vector<OpRecord> records;
    records.reserve(record_count);
    for (std::uint64_t j = 0; j < record_count; ++j) {
      OpRecord rec;
      VEGVISIR_RETURN_IF_ERROR(r.ReadString(&rec.op));
      std::uint64_t arg_count;
      VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&arg_count));
      VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
          arg_count, serial::limits::kMaxOpArgs, r.remaining(), 1, "arg"));
      for (std::uint64_t a = 0; a < arg_count; ++a) {
        crdt::Value v;
        VEGVISIR_RETURN_IF_ERROR(crdt::Value::Decode(&r, &v));
        rec.args.push_back(std::move(v));
      }
      VEGVISIR_RETURN_IF_ERROR(r.ReadString(&rec.ctx.tx_id));
      VEGVISIR_RETURN_IF_ERROR(r.ReadString(&rec.ctx.user_id));
      VEGVISIR_RETURN_IF_ERROR(r.ReadU64(&rec.ctx.timestamp));
      records.push_back(std::move(rec));
    }
    loaded.op_log_.emplace(std::move(name), std::move(records));
  }

  VEGVISIR_RETURN_IF_ERROR(r.ReadVarint(&count));
  VEGVISIR_RETURN_IF_ERROR(serial::CheckWireCount(
      count, serial::limits::kMaxAppliedBlocks, r.remaining(),
      sizeof(chain::BlockHash), "applied-block"));
  for (std::uint64_t i = 0; i < count; ++i) {
    chain::BlockHash h;
    VEGVISIR_RETURN_IF_ERROR(r.ReadFixed(&h));
    loaded.applied_blocks_.insert(h);
  }
  VEGVISIR_RETURN_IF_ERROR(r.ExpectEnd());

  // Field-wise adoption of the decoded state: this machine keeps its
  // telemetry plumbing (the counters are operational, not state).
  membership_ = std::move(loaded.membership_);
  meta_ = std::move(loaded.meta_);
  omega_ = std::move(loaded.omega_);
  op_log_ = std::move(loaded.op_log_);
  applied_blocks_ = std::move(loaded.applied_blocks_);
  rejections_ = std::move(loaded.rejections_);
  return Status::Ok();
}

chain::Transaction StateMachine::MakeCreateTx(const std::string& name,
                                              crdt::CrdtType type,
                                              crdt::ValueType element_type,
                                              const AclPolicy& policy) {
  chain::Transaction tx;
  tx.crdt_name = chain::kOmegaCrdtName;
  tx.op = "create";
  tx.args = {crdt::Value::OfStr(name),
             crdt::Value::OfStr(crdt::CrdtTypeName(type)),
             crdt::Value::OfStr(crdt::ValueTypeName(element_type)),
             crdt::Value::OfStr(policy.Serialize())};
  return tx;
}

chain::Transaction StateMachine::MakeAddUserTx(
    const chain::Certificate& cert) {
  chain::Transaction tx;
  tx.crdt_name = chain::kUsersCrdtName;
  tx.op = "add";
  tx.args = {crdt::Value::OfBytes(cert.Serialize())};
  return tx;
}

chain::Transaction StateMachine::MakeRevokeUserTx(
    const chain::Certificate& cert) {
  chain::Transaction tx;
  tx.crdt_name = chain::kUsersCrdtName;
  tx.op = "remove";
  tx.args = {crdt::Value::OfBytes(cert.Serialize())};
  return tx;
}

chain::Transaction StateMachine::MakeMetaPutTx(const std::string& key,
                                               const std::string& value) {
  chain::Transaction tx;
  tx.crdt_name = chain::kMetaCrdtName;
  tx.op = "put";
  tx.args = {crdt::Value::OfStr(key), crdt::Value::OfStr(value)};
  return tx;
}

}  // namespace vegvisir::csm
