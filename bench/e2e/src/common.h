// Shared plumbing for bench_e2e: options, execution widths, timing and
// statistics helpers, the traced-stage table, the result record and
// its two JSON forms, and the seeded block generator the catchup and
// restart workloads share.
//
// Everything here sits outside the program under test: workloads call
// the public APIs of src/ and time those calls from the outside.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/dag.h"
#include "crypto/ed25519.h"
#include "csm/state_machine.h"
#include "exec/pool.h"
#include "storage/engine.h"
#include "util/rng.h"

namespace vegvisir::e2e {

using Clock = std::chrono::steady_clock;

inline double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny sizes for the smoke test: same code paths, every check on.
  bool smoke = false;
  std::string data_dir;  // parent of every durable store the run opens
  std::string out;       // detailed record path ("" = none)
};

// The two execution widths every workload alternates between: serial
// (index 0, "t1"), and N = max(2, nproc/2) capped so that the main
// thread plus N workers never exceed nproc (index 1, "tN").
unsigned WideWidth();
inline constexpr const char* kWidthSuffix[2] = {"t1", "tN"};

struct Pools {
  Pools();
  exec::ThreadPool* at(int w) { return w == 0 ? &serial : &wide; }

  exec::ThreadPool serial;
  exec::ThreadPool wide;
};

// The measurement loop every workload shares. Runs pairs of
// repetitions, rep(pair, width, traced), one at each width, the first
// width alternating from pair to pair, until opt.seconds have passed
// and at least `min_pairs` pairs ran. `traced` is opt.trace; with
// `untraced_reference`, a traced run adds an untraced width-1
// repetition to every pair, for the tracing overhead.
void AlternateWidths(
    const Options& opt, int min_pairs, bool untraced_reference,
    const std::function<void(int pair, int width, bool traced)>& rep);

// ---- statistics ------------------------------------------------------
double Median(std::vector<double> v);
// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);

// ---- traced stages ---------------------------------------------------
// The union of the stages the four workloads time. A workload that
// never enters a stage reports a zero share for it: that layer did no
// work there, which is itself a prediction the benchmark checks.
enum Stage : int {
  kReconInitiatorSelf,
  kReconResponder,
  kExecPreverify,
  kExecVerifyWait,
  kChainFrontier,
  kChainBlockCreate,
  kChainValidate,
  kStorageAppend,
  kChainDagInsert,
  kCsmApply,
  kStorageOpen,
  kStorageReplay,
  kChainTopoOrder,
  kSimRun,
  kNodeAppendOp,
  kChainWitnessQuery,
  kNodeOther,  // traced total minus every stage above
  kStageCount
};
const char* StageName(int s);

struct StageTimes {
  std::array<double, kStageCount> us{};
  double total_us = 0;
  double blocks = 0;
  std::size_t runs = 0;  // traced operations added up here

  // Adds one traced operation's times.
  void Add(const StageTimes& o);
  // Sets kNodeOther to the part of total_us no other stage claimed.
  void CloseRemainder();
  double UsPerBlock(int s) const { return blocks > 0 ? us[s] / blocks : 0; }
  double TotalPerBlock() const { return blocks > 0 ? total_us / blocks : 0; }
};

// Adds the wall time of its scope to one stage.
class StageTimer {
 public:
  StageTimer(StageTimes* t, Stage s) : t_(t), s_(s), t0_(Clock::now()) {}
  ~StageTimer() { t_->us[s_] += UsSince(t0_); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageTimes* t_;
  Stage s_;
  Clock::time_point t0_;
};

// ---- result record ---------------------------------------------------
// How compare.py treats a detailed metric: a wall-clock reading is
// compared within its bound; a simulated-time or count reading is a
// pure function of the seed and compared exactly.
enum class Kind { kWall, kSim, kCount };

struct Metric {
  double value = 0;
  std::string unit;
  Kind kind = Kind::kWall;
  bool higher_is_better = false;
  double bound = 0;  // wall metrics: allowed worsening, share of median
  std::size_t samples = 0;
};
// The bound of every wall-clock metric, as in BENCHMARK.json: on a
// shared 4-core host, run-to-run spreads of 5-12% were measured for
// throughput and latency (README.md), so a tighter bound would flag
// host noise as a regression.
inline constexpr double kWallBound = 0.25;
Metric Wall(double value, const char* unit, bool higher, std::size_t samples);
Metric Exact(double value, const char* unit, Kind kind, bool higher,
             std::size_t samples = 1);

// The end-to-end metrics of an untraced run. Every workload reports
// each of them; what "block" and "latency" mean per workload is in
// README.md.
struct EndToEnd {
  double setup_s = 0;
  std::array<double, 2> blocks_per_s{};  // [t1, tN]
  double latency_ms_p50 = 0;
  double bytes_per_block = 0;
};

// The exact per-layer counts of a traced run (0 where the workload
// does not exercise the layer).
struct LayerCounts {
  double storage_fsyncs_per_block = 0;
  double storage_write_bytes_per_block = 0;
  double storage_read_bytes_per_block = 0;
  double recon_sessions_per_block = 0;
  double recon_rounds_per_session = 0;
  double recon_bytes_per_block = 0;
  double recon_failed_session_ratio = 0;
  double setdiff_sketch_bytes_per_block = 0;
  double setdiff_decode_failure_ratio = 0;
  double setdiff_fallbacks_per_session = 0;
  double exec_presig_hit_ratio = 0;
  double gossip_sessions_timed_out = 0;
  double net_messages_per_block = 0;
  double node_quarantined_per_block = 0;
};

class Result {
 public:
  explicit Result(std::string workload) : workload_(std::move(workload)) {}

  // Checks one output of the operation in progress; a false `ok` fails
  // the operation (the first few reasons are kept for the report).
  void Expect(bool ok, const std::string& what);
  // Closes the operation in progress: one more attempted, and one more
  // failed if any of its Expects did not hold.
  void EndOp();

  // Workload-level metrics: the detailed record compare.py reads.
  void Detail(const std::string& name, Metric m) { detail_[name] = m; }

  void SetEndToEnd(const EndToEnd& e);
  // `traced` is the stage table at [t1, tN]; `untraced_us_per_block` is
  // the same work's cost at t1 with tracing off (for the overhead).
  // Also records each stage's microseconds per block as a detailed
  // metric, <stage>_us.<width>.
  void SetLayers(std::array<StageTimes, 2> traced,
                 double untraced_us_per_block, const LayerCounts& counts);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  // Prints the traced stage table in microseconds per block.
  void PrintStageTable() const;
  // Writes the detailed record (no-op when opt.out is empty).
  void WriteDetail(const Options& opt, double canary_start,
                   double canary_end) const;
  // The final stdout line: end-to-end metrics when untraced, per-layer
  // metrics when traced.
  void PrintResultLine(bool trace) const;

 private:
  std::string workload_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool op_failed_ = false;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> detail_;
  // name -> (value, unit), as the result line prints them.
  std::map<std::string, std::pair<double, std::string>> end_to_end_;
  std::map<std::string, std::pair<double, std::string>> layers_;
  std::array<StageTimes, 2> traced_{};
};

// Host-noise canary: Ed25519 verifies per second over a fixed loop
// (2000 iterations; fewer for the smoke test), taken at the start and
// end of every run and read as the median of ten equal chunks.
double VerifyCanary(int iterations);

// A durable store with the production flush policy (fsync per
// append), its storage.* series in `telemetry`; null if it cannot open.
std::unique_ptr<storage::TieredStore> OpenDurable(
    const std::string& dir, telemetry::Telemetry* telemetry);
// Node::AttachStorage for a replica assembled from parts: seeds an
// empty log with the DAG so far, in topological order.
bool SeedLog(const chain::Dag& dag, storage::TieredStore* store);
// Node::Fingerprint's digest, for a replica assembled from parts.
Bytes ReplicaFingerprint(const chain::Dag& dag, const csm::StateMachine& csm);

// A fresh, empty directory under opt.data_dir.
std::string FreshDir(const Options& opt, const std::string& leaf);
void RemoveDir(const std::string& dir);

// ---- seeded chain generator (catchup, restart) -------------------------
// A chain owned by "owner" with `writers` enrolled members and four
// CRDTs (gset, pncounter, lwwmap, rga). `base` holds the owner's
// enrolment and create blocks; `backlog` holds the members' blocks,
// one operation each, written in rounds: every member appends on the
// previous round's blocks without seeing its own round's siblings, so
// the DAG is `writers` wide, as after a partition merge. Signing fans
// out over `pool`; the blocks depend only on the seed.
struct Fleet {
  std::unique_ptr<crypto::KeyPair> owner;
  chain::Block genesis;
  std::vector<chain::Block> base;
  std::vector<chain::Block> backlog;
  std::uint64_t max_timestamp_ms = 0;
};
Fleet MakeFleet(std::uint64_t seed, int writers, int backlog_blocks,
                exec::ThreadPool* pool);

// Seeded operation arguments: lowercase text of length [lo, hi], and
// one of 64 map keys "k0".."k63".
std::string RandomText(Rng& rng, int lo, int hi);
std::string RandomKey(Rng& rng);

// A key pair derived from (seed, index).
crypto::KeyPair KeysFor(std::uint64_t seed, std::uint64_t index);

// ---- workloads ---------------------------------------------------------
// Each workload owns whatever execution pools it needs while it runs
// (field's live inside its clusters), so the process never holds more
// workers than one workload uses.
Result RunCatchup(const Options& opt);
Result RunLocalWrite(const Options& opt);
Result RunRestart(const Options& opt);
Result RunField(const Options& opt);

}  // namespace vegvisir::e2e
