#include "common.h"

#include <sys/vfs.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "chain/certificate.h"
#include "chain/genesis.h"
#include "crypto/drbg.h"
#include "serial/codec.h"
#include "util/rng.h"

namespace vegvisir::e2e {
namespace {

// Shortest round-trip form: every digit as measured, nothing padded.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kWall:
      return "wall";
    case Kind::kSim:
      return "sim";
    case Kind::kCount:
      return "count";
  }
  return "count";
}

std::string FsType(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlay";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string MetricsObject(
    const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : m) {
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"value\": " + Num(vu.first) +
           ", \"unit\": " + Quote(vu.second) + "}";
  }
  return out + "}";
}

}  // namespace

std::string RandomText(Rng& rng, int lo, int hi) {
  const auto n = static_cast<std::size_t>(rng.NextInRange(lo, hi));
  std::string s(n, 'a');
  for (char& c : s) c = static_cast<char>('a' + rng.NextBelow(26));
  return s;
}

std::string RandomKey(Rng& rng) {
  std::string key = "k";
  key += std::to_string(rng.NextBelow(64));
  return key;
}

unsigned WideWidth() {
  const unsigned n = exec::HardwareConcurrency();
  const unsigned w = std::max(2u, n / 2);
  return n >= 2 ? std::min(w, n - 1) : 1;
}

Pools::Pools()
    : serial(exec::ExecConfig{1, 4096}),
      wide(exec::ExecConfig{WideWidth(), 4096}) {}

void AlternateWidths(
    const Options& opt, int min_pairs, bool untraced_reference,
    const std::function<void(int pair, int width, bool traced)>& rep) {
  const auto end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  for (int pair = 0; pair < min_pairs || Clock::now() < end; ++pair) {
    for (int k = 0; k < 2; ++k) rep(pair, pair % 2 == 0 ? k : 1 - k, opt.trace);
    if (opt.trace && untraced_reference) rep(pair, 0, false);
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

const char* StageName(int s) {
  static constexpr const char* kNames[kStageCount] = {
      "recon.initiator_self", "recon.responder",    "exec.preverify",
      "exec.verify_wait",     "chain.frontier",     "chain.block_create",
      "chain.validate",       "storage.append",     "chain.dag_insert",
      "csm.apply",            "storage.open",       "storage.replay",
      "chain.topo_order",     "sim.run",            "node.append_op",
      "chain.witness_query",  "node.other",
  };
  return kNames[s];
}

void StageTimes::Add(const StageTimes& o) {
  for (int s = 0; s < kStageCount; ++s) us[s] += o.us[s];
  total_us += o.total_us;
  blocks += o.blocks;
  ++runs;
}

void StageTimes::CloseRemainder() {
  double claimed = 0;
  for (int s = 0; s < kStageCount; ++s) {
    if (s != kNodeOther) claimed += us[s];
  }
  us[kNodeOther] = total_us - claimed;
}

Metric Wall(double value, const char* unit, bool higher, std::size_t samples) {
  return Metric{value, unit, Kind::kWall, higher, kWallBound, samples};
}

Metric Exact(double value, const char* unit, Kind kind, bool higher,
             std::size_t samples) {
  return Metric{value, unit, kind, higher, 0, samples};
}

void Result::Expect(bool ok, const std::string& what) {
  if (ok) return;
  op_failed_ = true;
  if (failures_.size() < 8) failures_.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Result::EndOp() {
  ++attempted_;
  if (op_failed_) ++failed_;
  op_failed_ = false;
}

void Result::SetEndToEnd(const EndToEnd& e) {
  end_to_end_["setup_s"] = {e.setup_s, "s"};
  end_to_end_["blocks_per_s"] = {e.blocks_per_s[0], "1/s"};
  end_to_end_["blocks_per_s_tN"] = {e.blocks_per_s[1], "1/s"};
  end_to_end_["latency_ms_p50"] = {e.latency_ms_p50, "ms"};
  end_to_end_["bytes_per_block"] = {e.bytes_per_block, "B"};
}

void Result::SetLayers(std::array<StageTimes, 2> traced,
                       double untraced_us_per_block, const LayerCounts& c) {
  for (StageTimes& t : traced) t.CloseRemainder();
  traced_ = traced;
  for (int w = 0; w < 2; ++w) {
    const StageTimes& t = traced[static_cast<std::size_t>(w)];
    for (int s = 0; s < kStageCount; ++s) {
      layers_[std::string(StageName(s)) + "_share." + kWidthSuffix[w]] = {
          t.total_us > 0 ? t.us[s] / t.total_us : 0, "frac"};
    }
    layers_[std::string("trace.total_us_per_block.") + kWidthSuffix[w]] = {
        t.TotalPerBlock(), "us"};
    for (int s = 0; s < kStageCount; ++s) {
      Detail(std::string(StageName(s)) + "_us." + kWidthSuffix[w],
             Wall(t.UsPerBlock(s), "us", false, t.runs));
    }
  }
  const double t1 = traced[0].TotalPerBlock();
  const double tn = traced[1].TotalPerBlock();
  layers_["trace.overhead_frac"] = {
      untraced_us_per_block > 0 ? t1 / untraced_us_per_block - 1 : 0, "frac"};
  // Amdahl: only the signature checks fan out over the pool, so the
  // serial share is everything but the t1 pre-verify and verify-wait
  // stages (at t1 the pool runs the checks inline, inside preverify).
  const double parallel =
      traced[0].total_us > 0 ? (traced[0].us[kExecPreverify] +
                                traced[0].us[kExecVerifyWait]) /
                                   traced[0].total_us
                             : 0;
  const double serial = 1 - parallel;
  const double n = static_cast<double>(WideWidth());
  const double ceiling = 1 / (serial + parallel / n);
  const double speedup = tn > 0 ? t1 / tn : 0;
  layers_["exec.speedup_tN"] = {speedup, "x"};
  layers_["amdahl.serial_share"] = {serial, "frac"};
  layers_["amdahl.ceiling_tN"] = {ceiling, "x"};
  layers_["amdahl.efficiency_tN"] = {speedup / ceiling, "frac"};

  layers_["storage.fsyncs_per_block"] = {c.storage_fsyncs_per_block, "count"};
  layers_["storage.write_bytes_per_block"] = {c.storage_write_bytes_per_block,
                                              "B"};
  layers_["storage.read_bytes_per_block"] = {c.storage_read_bytes_per_block,
                                             "B"};
  layers_["recon.sessions_per_block"] = {c.recon_sessions_per_block, "count"};
  layers_["recon.rounds_per_session"] = {c.recon_rounds_per_session, "count"};
  layers_["recon.bytes_per_block"] = {c.recon_bytes_per_block, "B"};
  layers_["recon.failed_session_ratio"] = {c.recon_failed_session_ratio,
                                           "frac"};
  layers_["setdiff.sketch_bytes_per_block"] = {
      c.setdiff_sketch_bytes_per_block, "B"};
  layers_["setdiff.decode_failure_ratio"] = {c.setdiff_decode_failure_ratio,
                                             "frac"};
  layers_["setdiff.fallbacks_per_session"] = {c.setdiff_fallbacks_per_session,
                                              "count"};
  layers_["exec.presig_hit_ratio"] = {c.exec_presig_hit_ratio, "frac"};
  layers_["gossip.sessions_timed_out"] = {c.gossip_sessions_timed_out,
                                          "count"};
  layers_["net.messages_per_block"] = {c.net_messages_per_block, "count"};
  layers_["node.quarantined_per_block"] = {c.node_quarantined_per_block,
                                           "count"};
}

void Result::PrintStageTable() const {
  std::printf("\ntraced stages, us per block (share of traced total)\n");
  std::printf("%-22s %18s %18s\n", "stage", "t1", "tN");
  for (int s = 0; s < kStageCount; ++s) {
    if (traced_[0].us[s] == 0 && traced_[1].us[s] == 0) continue;
    std::printf("%-22s", StageName(s));
    for (const StageTimes& t : traced_) {
      std::printf(" %10.2f (%5.1f%%)", t.UsPerBlock(s),
                  t.total_us > 0 ? 100 * t.us[s] / t.total_us : 0.0);
    }
    std::printf("\n");
  }
  std::printf("%-22s %10.2f          %10.2f\n", "total",
              traced_[0].TotalPerBlock(), traced_[1].TotalPerBlock());
}

void Result::WriteDetail(const Options& opt, double canary_start,
                         double canary_end) const {
  if (opt.out.empty()) return;
  std::string j = "{\n";
  j += "  \"schema\": \"vegvisir-bench-e2e/1\",\n";
  j += "  \"workload\": " + Quote(workload_) + ",\n";
  j += "  \"seed\": " + std::to_string(opt.seed) + ",\n";
  j += "  \"seconds\": " + Num(opt.seconds) + ",\n";
  j += "  \"trace\": " + std::string(opt.trace ? "1" : "0") + ",\n";
  j += "  \"smoke\": " + std::string(opt.smoke ? "true" : "false") + ",\n";
  j += "  \"host\": {\"hardware_concurrency\": " +
       std::to_string(exec::HardwareConcurrency()) +
       ", \"width_n\": " + std::to_string(WideWidth()) +
       ", \"fs_type\": " + Quote(FsType(opt.data_dir)) +
       ", \"verify_per_s_start\": " + Num(canary_start) +
       ", \"verify_per_s_end\": " + Num(canary_end) + "},\n";
  j += "  \"correct\": " + std::string(correct() ? "true" : "false") + ",\n";
  j += "  \"attempted\": " + std::to_string(attempted_) + ",\n";
  j += "  \"failed\": " + std::to_string(failed_) + ",\n";
  j += "  \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    j += (i ? ", " : "") + Quote(failures_[i]);
  }
  j += "],\n  \"metrics\": {";
  std::map<std::string, Metric> all = detail_;
  all["failed_frac"] = Exact(
      attempted_ > 0 ? double(failed_) / double(attempted_) : 1, "frac",
      Kind::kCount, false, attempted_);
  bool first = true;
  for (const auto& [name, m] : all) {
    j += first ? "\n" : ",\n";
    first = false;
    j += "    " + Quote(name) + ": {\"value\": " + Num(m.value) +
         ", \"unit\": " + Quote(m.unit) + ", \"kind\": " +
         Quote(KindName(m.kind)) + ", \"better\": " +
         Quote(m.higher_is_better ? "higher" : "lower") +
         ", \"bound\": " + Num(m.bound) +
         ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  j += "\n  },\n";
  j += "  \"summary\": " + MetricsObject(opt.trace ? layers_ : end_to_end_) +
       "\n}\n";
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return;
  }
  std::fputs(j.c_str(), f);
  std::fclose(f);
}

void Result::PrintResultLine(bool trace) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              MetricsObject(trace ? layers_ : end_to_end_).c_str());
}

double VerifyCanary(int iterations) {
  // Ten equal chunks, median chunk rate: a burst from a neighbour on
  // the host moves one chunk, not the reading.
  constexpr int kChunks = 10;
  const crypto::KeyPair keys = KeysFor(0, 0);
  const Bytes message(96, 0x5a);
  const crypto::Signature sig = keys.Sign(message);
  const int per_chunk = std::max(1, iterations / kChunks);
  std::vector<double> rates;
  for (int c = 0; c < kChunks; ++c) {
    int ok = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < per_chunk; ++i) {
      ok += crypto::Verify(keys.public_key(), message, sig) ? 1 : 0;
    }
    const double s = UsSince(t0) / 1e6;
    if (ok != per_chunk || s <= 0) return 0;
    rates.push_back(per_chunk / s);
  }
  return Median(rates);
}

std::unique_ptr<storage::TieredStore> OpenDurable(
    const std::string& dir, telemetry::Telemetry* telemetry) {
  storage::TieredStoreOptions o;
  o.dir = dir;
  o.fsync_each_append = true;
  o.telemetry = telemetry;
  auto s = storage::TieredStore::Open(std::move(o));
  return s.ok() ? std::move(*s) : nullptr;
}

bool SeedLog(const chain::Dag& dag, storage::TieredStore* store) {
  for (const chain::BlockHash& h : dag.TopologicalOrder()) {
    if (!store->Append(*dag.Find(h)).ok()) return false;
  }
  store->UpdateResidency(dag);
  return true;
}

Bytes ReplicaFingerprint(const chain::Dag& dag, const csm::StateMachine& csm) {
  serial::Writer w;
  w.WriteString("node");
  const auto order = dag.TopologicalOrder();
  w.WriteVarint(order.size());
  for (const chain::BlockHash& h : order) w.WriteFixed(h);
  w.WriteBytes(csm.StateFingerprint());
  return w.Take();
}

std::string FreshDir(const Options& opt, const std::string& leaf) {
  const std::filesystem::path dir = std::filesystem::path(opt.data_dir) / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

crypto::KeyPair KeysFor(std::uint64_t seed, std::uint64_t index) {
  crypto::Drbg drbg(seed * 1'000'003ULL + index + 0xE2E);
  return crypto::KeyPair::Generate(drbg);
}

Fleet MakeFleet(std::uint64_t seed, int writers, int backlog_blocks,
                exec::ThreadPool* pool) {
  Fleet f;
  f.owner = std::make_unique<crypto::KeyPair>(KeysFor(seed, 0));
  f.genesis = chain::GenesisBuilder("e2e-" + std::to_string(seed))
                  .WithTimestamp(1)
                  .Build("owner", *f.owner);

  std::vector<crypto::KeyPair> keys;
  std::vector<std::string> ids;
  for (int i = 0; i < writers; ++i) {
    keys.push_back(KeysFor(seed, static_cast<std::uint64_t>(i) + 1));
    ids.push_back("writer-" + std::to_string(i));
  }

  chain::BlockHash parent = f.genesis.hash();
  std::uint64_t ts = 2;
  const auto owner_block = [&](chain::Transaction tx) {
    chain::BlockHeader h;
    h.user_id = "owner";
    h.timestamp_ms = ts++;
    h.parents = {parent};
    f.base.push_back(chain::Block::Create(std::move(h), {std::move(tx)},
                                          *f.owner));
    parent = f.base.back().hash();
  };
  for (int i = 0; i < writers; ++i) {
    owner_block(csm::StateMachine::MakeAddUserTx(chain::IssueCertificate(
        ids[static_cast<std::size_t>(i)],
        keys[static_cast<std::size_t>(i)].public_key(), "member", *f.owner)));
  }
  const csm::AclPolicy open = csm::AclPolicy::AllowAll();
  owner_block(csm::StateMachine::MakeCreateTx("g", crdt::CrdtType::kGSet,
                                              crdt::ValueType::kStr, open));
  owner_block(csm::StateMachine::MakeCreateTx(
      "c", crdt::CrdtType::kPnCounter, crdt::ValueType::kInt, open));
  owner_block(csm::StateMachine::MakeCreateTx("m", crdt::CrdtType::kLwwMap,
                                              crdt::ValueType::kStr, open));
  owner_block(csm::StateMachine::MakeCreateTx("r", crdt::CrdtType::kRga,
                                              crdt::ValueType::kStr, open));

  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xBAC106ULL);
  std::vector<std::string> last_rga(static_cast<std::size_t>(writers));
  std::vector<chain::BlockHash> prev = {parent};
  int made = 0;
  for (int round = 0; made < backlog_blocks; ++round) {
    const int n = std::min(writers, backlog_blocks - made);
    const std::uint64_t round_ts = ts + static_cast<std::uint64_t>(round);
    std::vector<chain::BlockHeader> headers(static_cast<std::size_t>(n));
    std::vector<chain::Transaction> txs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      headers[idx].user_id = ids[idx];
      headers[idx].timestamp_ms = round_ts;
      headers[idx].parents = prev;
      chain::Transaction& tx = txs[idx];
      switch ((round + i) % 4) {
        case 0:
          tx.crdt_name = "g";
          tx.op = "add";
          tx.args = {crdt::Value::OfStr(RandomText(rng, 16, 48))};
          break;
        case 1:
          tx.crdt_name = "c";
          tx.op = rng.NextBelow(3) == 0 ? "dec" : "inc";
          tx.args = {crdt::Value::OfInt(rng.NextInRange(1, 100))};
          break;
        case 2:
          tx.crdt_name = "m";
          tx.op = "put";
          tx.args = {
              crdt::Value::OfStr(RandomKey(rng)),
              crdt::Value::OfStr(RandomText(rng, 8, 32))};
          break;
        default:
          tx.crdt_name = "r";
          tx.op = "insert";
          tx.args = {crdt::Value::OfStr(last_rga[idx]),
                     crdt::Value::OfStr(RandomText(rng, 4, 24))};
          break;
      }
    }
    std::vector<chain::Block> blocks(static_cast<std::size_t>(n));
    pool->ParallelFor(static_cast<std::size_t>(n), 1,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          blocks[i] = chain::Block::Create(headers[i], {txs[i]},
                                                           keys[i]);
                        }
                      });
    prev.clear();
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (txs[idx].crdt_name == "r") {
        last_rga[idx] = chain::HashHex(blocks[idx].hash()) + ":0";
      }
      prev.push_back(blocks[idx].hash());
      f.backlog.push_back(std::move(blocks[idx]));
    }
    f.max_timestamp_ms = round_ts;
    made += n;
  }
  return f;
}

}  // namespace vegvisir::e2e
