// Table 2 reproduction: micro ADD latency, index size, average ingest time,
// and average worst-case query time for Paillier / EC-ElGamal / TimeCrypt /
// Plaintext, at 128-bit security (3072-bit Paillier, P-256, AES-128 GGM).
//
// Sizes are scaled for a single-core box: index columns at 1k and 256k
// chunks by default (TC_BENCH_LARGE=1 raises TimeCrypt/plaintext to 1M as
// in the paper; the strawman stays capped, exactly as the paper capped its
// 100M column "due to excessive overheads").
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "crypto/ggm_tree.hpp"
#include "index/digest_cipher.hpp"
#include "strawman/strawman_cipher.hpp"

namespace tc::bench {
namespace {

std::shared_ptr<const strawman::Paillier>& SharedPaillier() {
  static std::shared_ptr<const strawman::Paillier> p =
      strawman::Paillier::Generate(3072);
  return p;
}

std::shared_ptr<const strawman::EcElGamal>& SharedEg() {
  static std::shared_ptr<const strawman::EcElGamal> eg =
      strawman::EcElGamal::Generate();
  return eg;
}

std::shared_ptr<const index::DigestCipher> MakeCipher(
    const std::string& scheme) {
  if (scheme == "Plaintext") return index::MakePlainCipher(1);
  if (scheme == "TimeCrypt") {
    return index::MakeHeacCipher(
        1, std::make_shared<crypto::GgmTree>(crypto::RandomKey128(), 30));
  }
  if (scheme == "Paillier") {
    return strawman::MakePaillierCipher(1, SharedPaillier());
  }
  return strawman::MakeEcElGamalCipher(1, SharedEg());
}

// ---- Micro ADD: one homomorphic addition of two digest blobs -------------

void BM_MicroAdd(benchmark::State& state, const std::string& scheme) {
  auto cipher = MakeCipher(scheme);
  std::vector<uint64_t> fields = {123};
  Bytes a = *cipher->Encrypt(fields, 0);
  Bytes b = *cipher->Encrypt(fields, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.data());
    Status s = cipher->Add(std::span<uint8_t>(a), b);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK_CAPTURE(BM_MicroAdd, Paillier, "Paillier");
BENCHMARK_CAPTURE(BM_MicroAdd, ECElGamal, "EC-ElGamal");
BENCHMARK_CAPTURE(BM_MicroAdd, TimeCrypt, "TimeCrypt");
BENCHMARK_CAPTURE(BM_MicroAdd, Plaintext, "Plaintext");

// ---- Average ingest: encrypt + index append ------------------------------

void BM_Ingest(benchmark::State& state, const std::string& scheme) {
  const uint64_t prefill = static_cast<uint64_t>(state.range(0));
  auto cipher = MakeCipher(scheme);
  IndexFixture fx(cipher, 64);
  // Strawman prefill reuses one blob: paying 256k Paillier encryptions to
  // build a fixture would dominate the binary's runtime without changing
  // the measured per-op cost.
  fx.Fill(prefill, /*fresh_encrypt=*/false);

  std::vector<uint64_t> fields = {7};
  uint64_t next = prefill;
  for (auto _ : state) {
    Bytes blob = *cipher->Encrypt(fields, next);  // client-side cost
    if (!fx.tree->Append(next, blob).ok()) std::abort();
    ++next;
  }
  state.counters["index_bytes"] =
      static_cast<double>(fx.tree->IndexBytes());
  state.counters["expansion_x"] =
      static_cast<double>(cipher->blob_size()) / 8.0;
}

// ---- Average query: worst-case (unaligned) range -------------------------

void BM_Query(benchmark::State& state, const std::string& scheme) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  auto cipher = MakeCipher(scheme);
  IndexFixture fx(cipher, 64);
  fx.Fill(n, /*fresh_encrypt=*/false);

  // Worst-case alignment: [1, n-1) forces a full drill-down on both ends.
  for (auto _ : state) {
    auto blob = fx.tree->Query(1, n - 1);
    if (!blob.ok()) std::abort();
    benchmark::DoNotOptimize(blob->data());
  }
}

void RegisterSized() {
  const int64_t small = 1000;
  const int64_t mid = LargeRuns() ? (1 << 20) : (1 << 18);
  for (auto scheme : {"Paillier", "EC-ElGamal"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Ingest/") + scheme).c_str(),
        [scheme](benchmark::State& s) { BM_Ingest(s, scheme); })
        ->Arg(small)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_Query/") + scheme).c_str(),
        [scheme](benchmark::State& s) { BM_Query(s, scheme); })
        ->Arg(small)
        ->Unit(benchmark::kMicrosecond);
  }
  for (auto scheme : {"TimeCrypt", "Plaintext"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Ingest/") + scheme).c_str(),
        [scheme](benchmark::State& s) { BM_Ingest(s, scheme); })
        ->Arg(small)
        ->Arg(mid)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_Query/") + scheme).c_str(),
        [scheme](benchmark::State& s) { BM_Query(s, scheme); })
        ->Arg(small)
        ->Arg(mid)
        ->Unit(benchmark::kMicrosecond);
  }
}

// ---- Index size table (the Table 2 "Index - Size" column) ----------------

void PrintIndexSizes() {
  std::printf("\n=== Table 2: index size per 1M chunks (one sum field) ===\n");
  std::printf("%-12s %14s %10s\n", "scheme", "index size", "vs plain");
  double plain_size = 0;
  for (auto scheme :
       {"Plaintext", "TimeCrypt", "EC-ElGamal", "Paillier"}) {
    auto cipher = MakeCipher(scheme);
    // Closed-form: sum over levels of entries x blob, fanout 64, n = 1M.
    uint64_t entries = 1'000'000, total = 0;
    while (entries > 0) {
      total += entries * cipher->blob_size();
      entries /= 64;
    }
    if (plain_size == 0) plain_size = static_cast<double>(total);
    std::printf("%-12s %14s %9.1fx\n", scheme, FmtBytes(total).c_str(),
                total / plain_size);
  }
  std::printf(
      "(paper: Paillier 780MB=96x, EC-ElGamal 168MB=21x, TimeCrypt 8.1MB=1x;"
      "\n our EC row is smaller because we store compressed points, the\n"
      " prototype's Java serialization was larger — expansion ordering "
      "matches)\n\n");
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  tc::bench::PrintIndexSizes();
  tc::bench::RegisterSized();
  return tc::bench::RunBenchmarks(argc, argv);
}
