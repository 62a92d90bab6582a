// E9 — crypto substrate microbenchmarks.
//
// Establishes the per-operation costs that the energy model
// (sim/energy.h) abstracts: hashing throughput, Ed25519 sign/verify
// latency, ChaCha20 sealing, DRBG generation.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "crypto/chacha20.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "util/bytes.h"

namespace vegvisir::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  benchio::Sink().metrics.GetCounter("bench.crypto.sha256_bytes")
      .Inc(static_cast<std::uint64_t>(state.iterations() * state.range(0)));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_Sha512(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::Hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = BytesOf("benchmark-key");
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x3c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256::Mac(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(256)->Arg(4096);

void BM_Ed25519KeyGen(benchmark::State& state) {
  Drbg drbg(std::uint64_t{42});
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyPair::Generate(drbg));
  }
}
BENCHMARK(BM_Ed25519KeyGen);

void BM_Ed25519Sign(benchmark::State& state) {
  Drbg drbg(std::uint64_t{42});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.Sign(msg));
  }
  benchio::Sink().metrics.GetCounter("bench.crypto.signs")
      .Inc(static_cast<std::uint64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519Sign)->Arg(64)->Arg(1024);

void BM_Ed25519Verify(benchmark::State& state) {
  Drbg drbg(std::uint64_t{42});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x55);
  const Signature sig = kp.Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Verify(kp.public_key(), msg, sig));
  }
  benchio::Sink().metrics.GetCounter("bench.crypto.verifies")
      .Inc(static_cast<std::uint64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519Verify)->Arg(64)->Arg(1024);

// Verify under a key prepared once, as a node's BatchVerifier holds it.
void BM_Ed25519VerifyPrepared(benchmark::State& state) {
  Drbg drbg(std::uint64_t{42});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x55);
  const Signature sig = kp.Sign(msg);
  const VerifyingKey key(kp.public_key());
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Verify(msg, sig));
  }
}
BENCHMARK(BM_Ed25519VerifyPrepared)->Arg(64)->Arg(1024);

// The one-time cost a node pays the first time it verifies under a key.
void BM_Ed25519PrepareKey(benchmark::State& state) {
  Drbg drbg(std::uint64_t{42});
  const KeyPair kp = KeyPair::Generate(drbg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifyingKey(kp.public_key()));
  }
}
BENCHMARK(BM_Ed25519PrepareKey);

void BM_ChaCha20(benchmark::State& state) {
  ChaCha20Key key{};
  key[0] = 1;
  ChaCha20Nonce nonce{};
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChaCha20Xor(key, nonce, 0, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(256)->Arg(4096)->Arg(65536);

void BM_DrbgGenerate(benchmark::State& state) {
  Drbg drbg(std::uint64_t{7});
  Bytes out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    drbg.Generate(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DrbgGenerate)->Arg(32)->Arg(1024);

}  // namespace
}  // namespace vegvisir::crypto

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  vegvisir::benchio::WriteBench("crypto");
  return 0;
}
