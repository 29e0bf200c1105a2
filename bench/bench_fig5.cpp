// Figure 5 reproduction: aggregate-query latency over interval sizes
// [0, 2^x] for the four schemes. Expected shape: TimeCrypt tracks
// plaintext closely (flat, small log-steps as fewer tree levels are
// touched; aggregating the whole index = reading the root); the strawman
// ciphers show the sawtooth of expensive on-the-fly additions inside
// partially-covered nodes.
//
// Sizes: TimeCrypt/plaintext index 2^20 chunks (2^26 with TC_BENCH_LARGE=1);
// strawman capped at 2^16 — the paper capped it at 2^20 for the same reason
// ("excessive construction overhead").
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "crypto/ggm_tree.hpp"
#include "index/digest_cipher.hpp"
#include "strawman/strawman_cipher.hpp"

namespace tc::bench {
namespace {

struct Fixture {
  std::string scheme;
  std::unique_ptr<IndexFixture> fx;
  uint64_t size;
};

Fixture& GetFixture(const std::string& scheme) {
  static std::map<std::string, Fixture> fixtures;
  auto it = fixtures.find(scheme);
  if (it != fixtures.end()) return it->second;

  std::shared_ptr<const index::DigestCipher> cipher;
  uint64_t size;
  if (scheme == "Plaintext") {
    cipher = index::MakePlainCipher(1);
    size = LargeRuns() ? (1u << 26) : (1u << 20);
  } else if (scheme == "TimeCrypt") {
    cipher = index::MakeHeacCipher(
        1, std::make_shared<crypto::GgmTree>(crypto::RandomKey128(), 30));
    size = LargeRuns() ? (1u << 26) : (1u << 20);
  } else if (scheme == "Paillier") {
    static std::shared_ptr<const strawman::Paillier> paillier =
        strawman::Paillier::Generate(3072);
    cipher = strawman::MakePaillierCipher(1, paillier);
    size = 1u << 16;
  } else {
    static std::shared_ptr<const strawman::EcElGamal> eg =
        strawman::EcElGamal::Generate();
    cipher = strawman::MakeEcElGamalCipher(1, eg);
    size = 1u << 16;
  }
  Fixture f{scheme, std::make_unique<IndexFixture>(cipher, 64), size};
  f.fx->Fill(size, /*fresh_encrypt=*/false);
  auto [pos, inserted] = fixtures.emplace(scheme, std::move(f));
  return pos->second;
}

void BM_RangeQuery(benchmark::State& state, const std::string& scheme) {
  Fixture& f = GetFixture(scheme);
  uint64_t len = uint64_t{1} << state.range(0);
  if (len > f.size) {
    state.SkipWithError("interval exceeds index size");
    return;
  }
  for (auto _ : state) {
    auto blob = f.fx->tree->Query(0, len);
    if (!blob.ok()) std::abort();
    benchmark::DoNotOptimize(blob->data());
  }
  state.counters["interval"] = static_cast<double>(len);
}

void RegisterAll() {
  int max_tc = LargeRuns() ? 26 : 20;
  for (auto scheme : {"TimeCrypt", "Plaintext"}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("BM_RangeQuery/") + scheme).c_str(),
        [scheme](benchmark::State& s) { BM_RangeQuery(s, scheme); });
    b->Unit(benchmark::kMicrosecond);
    for (int x = 0; x <= max_tc; x += 2) b->Arg(x);
  }
  for (auto scheme : {"Paillier", "EC-ElGamal"}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("BM_RangeQuery/") + scheme).c_str(),
        [scheme](benchmark::State& s) { BM_RangeQuery(s, scheme); });
    b->Unit(benchmark::kMicrosecond);
    for (int x = 0; x <= 16; x += 2) b->Arg(x);
  }
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  std::printf(
      "=== Fig 5: aggregate query latency vs interval size [0, 2^x] ===\n"
      "(expected shape: TimeCrypt ~ plaintext, flat with log steps;\n"
      " strawman orders of magnitude above with sawtooth)\n\n");
  tc::bench::RegisterAll();
  return tc::bench::RunBenchmarks(argc, argv);
}
