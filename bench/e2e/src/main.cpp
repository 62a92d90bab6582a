// bench_e2e: the repository benchmark (see ../README.md).
//
//   bench_e2e --workload catchup|local_write|restart|field
//             --data-dir DIR [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--out FILE]
//
// Runs one workload for about --seconds, checks every output, prints
// a human-readable summary and, as the last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones. --out
// writes the detailed record compare.py reads.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"

using namespace vegvisir;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "catchup|local_write|restart|field --data-dir DIR "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--data-dir") {
      opt.data_dir = argv[++i];
    } else if (a == "--out") {
      opt.out = argv[++i];
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.data_dir.empty()) return Usage("--data-dir is required");
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(opt.data_dir, ec);
  if (ec) return Usage(("cannot create " + opt.data_dir).c_str());

  e2e::Result (*run)(const e2e::Options&) = nullptr;
  if (opt.workload == "catchup") run = e2e::RunCatchup;
  if (opt.workload == "local_write") run = e2e::RunLocalWrite;
  if (opt.workload == "restart") run = e2e::RunRestart;
  if (opt.workload == "field") run = e2e::RunField;
  if (run == nullptr) return Usage("unknown workload");

  const int canary_iterations = opt.smoke ? 200 : 2'000;
  const double canary_start = e2e::VerifyCanary(canary_iterations);
  const e2e::Result result = run(opt);
  const double canary_end = e2e::VerifyCanary(canary_iterations);

  std::printf("host: nproc %u, width N %u, canary %.0f -> %.0f verifies/s\n",
              exec::HardwareConcurrency(), e2e::WideWidth(), canary_start,
              canary_end);
  result.WriteDetail(opt, canary_start, canary_end);
  result.PrintResultLine(opt.trace);
  return 0;
}
