// Figure 6 reproduction: single-key derivation cost as a function of the
// keystream size (2^x keys) for the three PRG constructions — software AES
// (the constant-time bitsliced AES-128 that runs without AES-NI, one key
// schedule and one four-block pass per expansion), SHA-256, and AES-NI.
// Deriving one key costs log2(n) PRG expansions, so each series is linear
// in x; AES-NI is the cheapest per step (the paper's conclusion and
// default).
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.hpp"
#include "crypto/cpu.hpp"
#include "crypto/ggm_tree.hpp"
#include "crypto/prg.hpp"

namespace tc::bench {
namespace {

void BM_DeriveKey(benchmark::State& state, crypto::PrgKind kind) {
  uint32_t height = static_cast<uint32_t>(state.range(0));
  crypto::GgmTree tree(crypto::RandomKey128(), height, kind);
  crypto::DeterministicRng rng(height);
  uint64_t mask = (height >= 63) ? ~uint64_t{0}
                                 : ((uint64_t{1} << height) - 1);
  for (auto _ : state) {
    uint64_t leaf = rng.NextU64() & mask;
    auto key = tree.DeriveLeaf(leaf);
    benchmark::DoNotOptimize(key);
  }
  state.counters["keys"] = std::pow(2.0, height);
  state.counters["prg_calls"] = height;
}

void RegisterAll() {
  struct Series {
    const char* name;
    crypto::PrgKind kind;
  };
  for (auto series : {Series{"AES", crypto::PrgKind::kAesSoft},
                      Series{"SHA256", crypto::PrgKind::kSha256},
                      Series{"AES-NI", crypto::PrgKind::kAesNi}}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("BM_DeriveKey/") + series.name).c_str(),
        [kind = series.kind](benchmark::State& s) { BM_DeriveKey(s, kind); });
    b->Unit(benchmark::kMicrosecond);
    // x = log2(#keys): 5 .. 60 in steps of 5 (Fig 6's x-axis).
    for (int x = 5; x <= 60; x += 5) b->Arg(x);
  }
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  std::printf(
      "=== Fig 6: key derivation cost vs keystream size (2^x keys) ===\n"
      "one derivation = x PRG expansions; paper: 2.5us at 2^30 with AES-NI\n"
      "AES-NI series runs on: %s\n\n",
      tc::crypto::CpuHas(tc::crypto::kCpuAesNi)
          ? "AES-NI"
          : "software AES (no AES-NI in the CPU feature table)");
  tc::bench::RegisterAll();
  return tc::bench::RunBenchmarks(argc, argv);
}
