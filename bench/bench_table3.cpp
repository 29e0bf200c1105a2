// Table 3 reproduction: per-digest encryption and decryption cost for
// TimeCrypt (HEAC over a 2^30-key GGM tree), Paillier, and EC-ElGamal with
// 32-bit integer plaintexts at >= 80-bit security.
//
// The paper's "IoT" row ran on an OpenMote (32-bit ARM M3 @ 32 MHz with a
// crypto accelerator); we have no such hardware, so the laptop-class row is
// measured and the IoT row is reported from the paper for reference. The
// claim preserved: HEAC is microseconds, orders of magnitude below both
// strawman ciphers on every platform.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "crypto/ggm_tree.hpp"
#include "crypto/heac.hpp"
#include "strawman/ec_elgamal.hpp"
#include "strawman/paillier.hpp"

namespace tc::bench {
namespace {

// TimeCrypt: Enc = two fresh leaf derivations from a 2^30 tree + one field
// key + modular add (cold-path cost, as in Table 3 which charges the full
// hash-tree walk).
void BM_TimeCryptEnc(benchmark::State& state) {
  crypto::GgmTree tree(crypto::RandomKey128(), 30);
  crypto::HeacCodec codec(1);
  std::vector<uint64_t> m = {0xdeadbeef};
  uint64_t i = 0;
  for (auto _ : state) {
    auto leaf_i = tree.DeriveLeaf(i);
    auto leaf_n = tree.DeriveLeaf(i + 1);
    auto c = codec.Encrypt(m, i, *leaf_i, *leaf_n);
    benchmark::DoNotOptimize(c.fields.data());
    i = (i + 1) & ((uint64_t{1} << 29) - 1);
  }
}
BENCHMARK(BM_TimeCryptEnc)->Unit(benchmark::kMicrosecond);

void BM_TimeCryptDec(benchmark::State& state) {
  crypto::GgmTree tree(crypto::RandomKey128(), 30);
  crypto::HeacCodec codec(1);
  std::vector<uint64_t> m = {0xdeadbeef};
  auto c = codec.Encrypt(m, 5, *tree.DeriveLeaf(5), *tree.DeriveLeaf(6));
  for (auto _ : state) {
    auto leaf_f = tree.DeriveLeaf(5);
    auto leaf_l = tree.DeriveLeaf(6);
    auto plain = codec.Decrypt(c, *leaf_f, *leaf_l);
    benchmark::DoNotOptimize(plain.data());
  }
}
BENCHMARK(BM_TimeCryptDec)->Unit(benchmark::kMicrosecond);

// Hot-path variant: the ingest pipeline derives leaves sequentially
// (amortized O(1) per key) — the number the E2E throughput rests on.
void BM_TimeCryptEncSequential(benchmark::State& state) {
  crypto::Key128 seed = crypto::RandomKey128();
  crypto::SequentialLeafIterator it(seed, 0, 0, 30, 0);
  crypto::HeacCodec codec(1);
  std::vector<uint64_t> m = {0xdeadbeef};
  crypto::Key128 prev = it.Current();
  for (auto _ : state) {
    it.Next();
    auto c = codec.Encrypt(m, it.CurrentIndex() - 1, prev, it.Current());
    benchmark::DoNotOptimize(c.fields.data());
    prev = it.Current();
  }
}
BENCHMARK(BM_TimeCryptEncSequential)->Unit(benchmark::kMicrosecond);

// Paillier at 2048-bit (>=112-bit security; the paper's table used >=80-bit
// parameters for this comparison — pass --benchmark_filter and
// TC_BENCH_LARGE=1 for the 3072-bit variant used elsewhere).
std::unique_ptr<strawman::Paillier>& TablePaillier() {
  static std::unique_ptr<strawman::Paillier> p =
      strawman::Paillier::Generate(LargeRuns() ? 3072 : 2048);
  return p;
}

void BM_PaillierEnc(benchmark::State& state) {
  auto& paillier = TablePaillier();
  for (auto _ : state) {
    auto c = paillier->Encrypt(0xdeadbeef);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_PaillierEnc)->Unit(benchmark::kMicrosecond);

void BM_PaillierDec(benchmark::State& state) {
  auto& paillier = TablePaillier();
  auto c = paillier->Encrypt(0xdeadbeef);
  for (auto _ : state) {
    auto m = paillier->Decrypt(c);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PaillierDec)->Unit(benchmark::kMicrosecond);

void BM_EcElGamalEnc(benchmark::State& state) {
  auto eg = strawman::EcElGamal::Generate();
  for (auto _ : state) {
    auto c = eg->Encrypt(0xdeadbeef);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_EcElGamalEnc)->Unit(benchmark::kMicrosecond);

void BM_EcElGamalDec(benchmark::State& state) {
  auto eg = strawman::EcElGamal::Generate();
  // 32-bit plaintext: BSGS with a 2^17 baby table (dlog is the cost driver
  // — this is why the paper lists N/A for EC-ElGamal decryption on IoT).
  auto c = eg->Encrypt(0xdeadbeef);
  (void)eg->Decrypt(c, 17);  // warm the baby-step table outside timing
  for (auto _ : state) {
    auto m = eg->Decrypt(c, 17);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_EcElGamalDec)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  std::printf(
      "=== Table 3: crypto op cost (laptop-class row; IoT row from paper) ===\n"
      "paper laptop : TimeCrypt 5.08us enc/dec | Paillier 30ms/15ms | "
      "EC-ElGamal 1.4ms/1.1ms\n"
      "paper IoT    : TimeCrypt 1.08ms | Paillier 1.59s/1.62s | "
      "EC-ElGamal 252ms/N/A  (OpenMote, not reproducible here)\n\n");
  return tc::bench::RunBenchmarks(argc, argv);
}
