// Ablation benches for TimeCrypt's design choices (none corresponds to a
// single paper table, but each quantifies a decision the paper makes):
//
//   1. Index fanout k (the paper fixes k = 64): ingest + query cost across
//      k = 2..256 — why 64 is a good middle ground.
//   2. Key canceling (§4.2.2): decrypting an n-chunk aggregate with the
//      telescoped outer keys (O(1) derivations) vs the naive Castelluccia
//      keystream (O(n) derivations) — the core scaling claim.
//   3. PRG construction on the *ingest* path (Fig 6 measures derivation in
//      isolation; this measures the end-impact on sequential encryption).
//   4. Chunk compression codec: none vs zlib on realistic vitals data.
//   5. §7 limitation: strided (every-2nd-chunk) aggregation decrypt cost
//      grows linearly, unlike contiguous ranges.
//   6. Index cache budget sweep: query latency as the cache shrinks below
//      the working set (the Fig 7 "small cache" effect, isolated).
//   7. Payload seal (§4.1, §4.3): AES-GCM-128 seal and open of one chunk
//      body under a fresh per-chunk key, four bodies sealed at once in VAES
//      lanes, and the owner's whole payload seal (build, compress, seal) at
//      10 and 500 points per chunk.
//   8. Owner seal (§4.1): the whole per-chunk client pipeline (digest,
//      HEAC, compress, AES-GCM, upload batch) through an OwnerClient whose
//      transport acks every chunk batch at once.
//   9. Seal kernels: the per-chunk key derivations of 8 one at a time —
//      the GGM leaf pair, HEAC's field keys (also four leaves at once) and
//      the payload key — and the hashes under the owner's other keys:
//      SHA-256 and HMAC-SHA256; and the AES and GCM rows again on the
//      portable kernels (BM_Portable*).
#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <span>

#include "bench_common.hpp"
#include "chunk/chunk.hpp"
#include "chunk/compress.hpp"
#include "client/owner.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/cpu.hpp"
#include "crypto/ggm_tree.hpp"
#include "crypto/heac.hpp"
#include "crypto/sha256.hpp"
#include "index/digest_cipher.hpp"
#include "integrity/attestation.hpp"
#include "integrity/merkle.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"
#include "workload/mhealth.hpp"

namespace tc::bench {
namespace {

// ------------------------------------------------------------- 1. fanout

void BM_FanoutIngest(benchmark::State& state) {
  uint32_t fanout = static_cast<uint32_t>(state.range(0));
  auto cipher = std::shared_ptr<const index::DigestCipher>(
      index::MakePlainCipher(2));
  std::vector<uint64_t> fields = {123, 10};
  Bytes blob = *cipher->Encrypt(fields, 0);
  IndexFixture fx(cipher, fanout);
  uint64_t i = 0;
  for (auto _ : state) {
    if (!fx.tree->Append(i++, blob).ok()) std::abort();
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_FanoutIngest)->Arg(2)->Arg(8)->Arg(16)->Arg(64)->Arg(256);

void BM_FanoutQuery(benchmark::State& state) {
  uint32_t fanout = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kChunks = 1 << 16;
  auto cipher = std::shared_ptr<const index::DigestCipher>(
      index::MakePlainCipher(2));
  IndexFixture fx(cipher, fanout);
  fx.Fill(kChunks, /*fresh_encrypt=*/false);
  // Worst-case alignment: a range starting and ending mid-node.
  uint64_t first = fanout / 2 + 1;
  uint64_t last = kChunks - fanout / 2 - 1;
  for (auto _ : state) {
    auto blob = fx.tree->Query(first, last);
    if (!blob.ok()) std::abort();
    benchmark::DoNotOptimize(blob->data());
  }
}
BENCHMARK(BM_FanoutQuery)->Arg(2)->Arg(8)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// ----------------------------------------------- 2. key canceling payoff

void BM_DecryptTelescoped(benchmark::State& state) {
  // TimeCrypt: an n-chunk aggregate needs exactly two leaf derivations.
  uint64_t n = static_cast<uint64_t>(state.range(0));
  crypto::GgmTree tree(crypto::RandomKey128(), 30);
  crypto::HeacCodec codec(1);
  crypto::HeacCiphertext agg;
  agg.fields = {12345};
  agg.first_chunk = 0;
  agg.last_chunk = n;
  for (auto _ : state) {
    auto m = codec.Decrypt(agg, tree.DeriveLeaf(0).value(),
                           tree.DeriveLeaf(n).value());
    benchmark::DoNotOptimize(m.data());
  }
  state.counters["key_derivations"] = 2;
}
BENCHMARK(BM_DecryptTelescoped)
    ->Arg(1 << 4)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_DecryptNaiveKeystream(benchmark::State& state) {
  // Naive Castelluccia (no key canceling): the decryptor must derive and
  // add every per-chunk key in the range — O(n).
  uint64_t n = static_cast<uint64_t>(state.range(0));
  crypto::GgmTree ggm(crypto::RandomKey128(), 30);
  for (auto _ : state) {
    uint64_t key_sum = 0;
    crypto::SequentialLeafIterator it(crypto::RandomKey128(), 0, 0, 30, 0);
    for (uint64_t i = 0; i < n; ++i) {
      key_sum += crypto::Fold64(it.Current().secret_bytes());
      it.Next();
    }
    uint64_t m = 12345 - key_sum;
    benchmark::DoNotOptimize(m);
  }
  state.counters["key_derivations"] = static_cast<double>(n);
}
BENCHMARK(BM_DecryptNaiveKeystream)
    ->Arg(1 << 4)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

// --------------------------------------------- 3. PRG kind on ingest path

void BM_SequentialEncrypt(benchmark::State& state, crypto::PrgKind kind) {
  crypto::HeacCodec codec(2);
  crypto::SequentialLeafIterator it(crypto::RandomKey128(), 0, 0, 30, 0,
                                    kind);
  crypto::Key128 current = it.Current();
  std::vector<uint64_t> fields = {42, 10};
  uint64_t chunk = 0;
  for (auto _ : state) {
    it.Next();
    crypto::Key128 next = it.Current();
    auto c = codec.Encrypt(fields, chunk++, current, next);
    benchmark::DoNotOptimize(c.fields.data());
    current = next;
  }
}
BENCHMARK_CAPTURE(BM_SequentialEncrypt, AESNI, crypto::PrgKind::kAesNi)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SequentialEncrypt, SHA256, crypto::PrgKind::kSha256)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SequentialEncrypt, SoftAES, crypto::PrgKind::kAesSoft)
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------ 4. compression

std::vector<index::DataPoint> VitalsPoints(size_t n) {
  workload::MHealthConfig config;
  config.seed = 7;
  workload::MHealthGenerator gen(config);
  return gen.Batch(/*metric=*/0, n);
}

// The argument is points per chunk. A 10-point body is shorter than
// chunk::kMinDeflateBody, so kZlib stores it raw without trying deflate;
// a 500-point body deflates.
void BM_CompressNone(benchmark::State& state) {
  auto points = VitalsPoints(static_cast<size_t>(state.range(0)));
  size_t out_bytes = 0;
  for (auto _ : state) {
    auto blob = chunk::CompressPoints(points, chunk::Compression::kNone);
    if (!blob.ok()) std::abort();
    out_bytes = blob->size();
    benchmark::DoNotOptimize(blob->data());
  }
  state.counters["bytes_per_chunk"] = static_cast<double>(out_bytes);
  state.counters["bytes_per_point"] =
      static_cast<double>(out_bytes) / static_cast<double>(points.size());
}
BENCHMARK(BM_CompressNone)->Arg(10)->Arg(500)->Unit(benchmark::kMicrosecond);

void BM_CompressZlib(benchmark::State& state) {
  auto points = VitalsPoints(static_cast<size_t>(state.range(0)));
  size_t out_bytes = 0;
  for (auto _ : state) {
    auto blob = chunk::CompressPoints(points, chunk::Compression::kZlib);
    if (!blob.ok()) std::abort();
    out_bytes = blob->size();
    benchmark::DoNotOptimize(blob->data());
  }
  state.counters["bytes_per_chunk"] = static_cast<double>(out_bytes);
  state.counters["bytes_per_point"] =
      static_cast<double>(out_bytes) / static_cast<double>(points.size());
}
BENCHMARK(BM_CompressZlib)->Arg(10)->Arg(500)->Unit(benchmark::kMicrosecond);

// ----------------------------------------- 5. strided aggregation (§7)

void BM_DecryptStrided(benchmark::State& state) {
  // Aggregating every SECOND chunk defeats key canceling: each selected
  // chunk contributes both its outer keys, so decryption needs 2 keys per
  // chunk instead of 2 total (§7 "suffers from alternative patterns").
  uint64_t n = static_cast<uint64_t>(state.range(0));  // selected chunks
  crypto::GgmTree tree(crypto::RandomKey128(), 30);
  crypto::HeacCodec codec(1);
  for (auto _ : state) {
    uint64_t sum_keys = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t chunk = 2 * i;  // stride 2
      crypto::FieldKeys lo(tree.DeriveLeaf(chunk).value(), 1);
      crypto::FieldKeys hi(tree.DeriveLeaf(chunk + 1).value(), 1);
      sum_keys += lo.key(0) - hi.key(0);
    }
    uint64_t m = 999 - sum_keys;
    benchmark::DoNotOptimize(m);
  }
  state.counters["key_derivations"] = static_cast<double>(2 * n);
}
BENCHMARK(BM_DecryptStrided)
    ->Arg(1 << 4)->Arg(1 << 8)->Arg(1 << 12)
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------- 5b. integrity extension overhead

void BM_WitnessAppend(benchmark::State& state) {
  // The ingest-path cost the integrity extension adds per chunk: one
  // witness hash + tree append (both producer- and server-side pay this).
  Bytes digest(16, 0x42);
  Bytes payload(700, 0x17);  // typical compressed+sealed chunk size
  integrity::MerkleTree tree;
  uint64_t i = 0;
  for (auto _ : state) {
    tree.Append(integrity::ChunkWitness(7, i++, digest, payload));
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_WitnessAppend)->Unit(benchmark::kMicrosecond);

void BM_AuditProofServe(benchmark::State& state) {
  // Server-side cost of serving one audit path at various tree sizes.
  uint64_t n = static_cast<uint64_t>(state.range(0));
  integrity::MerkleTree tree;
  Bytes digest(16, 0x42);
  for (uint64_t i = 0; i < n; ++i) {
    tree.Append(integrity::ChunkWitness(7, i, digest, digest));
  }
  crypto::DeterministicRng rng(3);
  for (auto _ : state) {
    auto proof = tree.Proof(rng.NextBelow(n), n);
    if (!proof.ok()) std::abort();
    benchmark::DoNotOptimize(proof->steps.data());
  }
}
BENCHMARK(BM_AuditProofServe)
    ->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18)
    ->Unit(benchmark::kMicrosecond);

void BM_ChunkVerify(benchmark::State& state) {
  // Consumer-side cost of verifying one witnessed chunk (signature checked
  // once per attestation in practice; here it is amortized in).
  constexpr uint64_t kN = 1 << 14;
  auto signing = crypto::GenerateSigningKeyPair();
  integrity::StreamAttestor attestor(7, signing);
  Bytes digest(16, 0x42);
  Bytes payload(700, 0x17);
  integrity::MerkleTree server_tree;
  for (uint64_t i = 0; i < kN; ++i) {
    if (!attestor.Add(i, digest, payload).ok()) std::abort();
    server_tree.Append(integrity::ChunkWitness(7, i, digest, payload));
  }
  auto att = attestor.Attest();
  if (!att.ok()) std::abort();
  crypto::DeterministicRng rng(4);
  for (auto _ : state) {
    uint64_t i = rng.NextBelow(kN);
    auto proof = server_tree.Proof(i, kN);
    if (!proof.ok()) std::abort();
    auto verdict = integrity::VerifyChunk(*att, signing.public_key, i,
                                          digest, payload, *proof);
    if (!verdict.ok()) std::abort();
  }
}
BENCHMARK(BM_ChunkVerify)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------- 6. cache budget sweep

void BM_CacheBudgetQuery(benchmark::State& state) {
  size_t cache_bytes = static_cast<size_t>(state.range(0)) << 10;  // KiB
  constexpr uint64_t kChunks = 1 << 15;
  auto cipher = std::shared_ptr<const index::DigestCipher>(
      index::MakePlainCipher(2));
  IndexFixture fx(cipher, 64, cache_bytes);
  fx.Fill(kChunks, /*fresh_encrypt=*/false);
  crypto::DeterministicRng rng(99);
  for (auto _ : state) {
    uint64_t first = rng.NextBelow(kChunks / 2);
    uint64_t last = first + 1 + rng.NextBelow(kChunks - first - 1);
    auto blob = fx.tree->Query(first, last);
    if (!blob.ok()) std::abort();
    benchmark::DoNotOptimize(blob->data());
  }
  const auto& cache = fx.tree->cache();
  double total = static_cast<double>(cache.hits() + cache.misses());
  state.counters["hit_rate"] =
      total > 0 ? static_cast<double>(cache.hits()) / total : 0.0;
}
BENCHMARK(BM_CacheBudgetQuery)
    ->Arg(1)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------ 7. payload seal

// A pool of per-chunk keys: each seal or open schedules a key it has not
// used for 63 calls, as every chunk's payload has its own key.
std::vector<crypto::Key128> PayloadKeys() {
  std::vector<crypto::Key128> keys(64);
  for (auto& key : keys) key = crypto::RandomKey128();
  return keys;
}

// The argument is the body size in bytes: 32 is about a 10-point chunk's
// compressed points, 1024 a deflated 500-point chunk's.
void BM_GcmSeal(benchmark::State& state) {
  Bytes body(static_cast<size_t>(state.range(0)));
  crypto::RandomBytes(body);
  const auto keys = PayloadKeys();
  const auto aad = chunk::ChunkAad(7);
  size_t i = 0;
  for (auto _ : state) {
    Bytes sealed = crypto::GcmSeal(keys[i++ % keys.size()], body, aad);
    benchmark::DoNotOptimize(sealed.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(i * body.size()));
}
BENCHMARK(BM_GcmSeal)->Arg(32)->Arg(1024);

// BM_GcmSeal's payload sealed four at a time, each under its own key, into
// the owner's layout (in place, between nonce and tag room): one iteration
// is four seals, so compare items/s (or a quarter of the time) with
// BM_GcmSeal. On CPUs without VAES each lane seals alone.
void BM_GcmSealLanes(benchmark::State& state) {
  const auto size = static_cast<size_t>(state.range(0));
  Bytes body(size);
  crypto::RandomBytes(body);
  const auto keys = PayloadKeys();
  const auto aad = chunk::ChunkAad(7);
  constexpr size_t kLanes = crypto::kCryptoLanes;
  std::array<Bytes, kLanes> sealed;
  std::array<crypto::GcmSealLane, kLanes> lanes;
  size_t i = 0;
  for (auto _ : state) {
    for (size_t l = 0; l < kLanes; ++l) {
      sealed[l].resize(crypto::kGcmNonceSize + size + crypto::kGcmTagSize);
      uint8_t* out = sealed[l].data();
      std::memcpy(out + crypto::kGcmNonceSize, body.data(), size);
      lanes[l] = {&keys[i++ % keys.size()],
                  BytesView(out + crypto::kGcmNonceSize, size), aad, out};
    }
    crypto::GcmSealLanes(lanes);
    benchmark::DoNotOptimize(sealed[0].data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
  state.SetBytesProcessed(static_cast<int64_t>(i * size));
}
BENCHMARK(BM_GcmSealLanes)->Arg(32);

void BM_GcmOpen(benchmark::State& state) {
  Bytes body(static_cast<size_t>(state.range(0)));
  crypto::RandomBytes(body);
  const auto keys = PayloadKeys();
  const auto aad = chunk::ChunkAad(7);
  std::vector<Bytes> sealed;
  for (const auto& key : keys) sealed.push_back(crypto::GcmSeal(key, body, aad));
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i++ % keys.size();
    auto opened = crypto::GcmOpen(keys[k], sealed[k], aad);
    if (!opened.ok()) std::abort();
    benchmark::DoNotOptimize(opened->data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(i * body.size()));
}
BENCHMARK(BM_GcmOpen)->Arg(32)->Arg(1024);

// The owner's payload path for one chunk: ChunkBuilder::Add per point,
// then SealPayload (compress, seal) under that chunk's key. The argument is
// points per chunk; the 10-point body is stored raw, the 500-point one
// deflated (kZlib, the owner's default).
void BM_SealPayload(benchmark::State& state) {
  const auto points = VitalsPoints(static_cast<size_t>(state.range(0)));
  const TimeRange window{points.front().timestamp_ms,
                         points.back().timestamp_ms + 1};
  const auto keys = PayloadKeys();
  chunk::ChunkBuilder builder(0, window, chunk::Compression::kZlib);
  size_t payload_bytes = 0;
  uint64_t chunk = 0;
  for (auto _ : state) {
    builder.Reset(chunk, window);
    for (const auto& p : points) {
      if (!builder.Add(p).ok()) std::abort();
    }
    auto sealed = builder.SealPayload(keys[chunk++ % keys.size()]);
    if (!sealed.ok()) std::abort();
    payload_bytes = sealed->size();
    benchmark::DoNotOptimize(sealed->data());
    benchmark::ClobberMemory();
  }
  state.counters["payload_bytes"] = static_cast<double>(payload_bytes);
}
BENCHMARK(BM_SealPayload)->Arg(10)->Arg(500);

// ------------------------------------------------------ 8. owner seal

/// Acks every InsertChunkBatch at once and hands every other call to an
/// in-memory engine: the owner's pipeline with no server work per chunk.
class AckingHandler final : public net::RequestHandler {
 public:
  AckingHandler()
      : engine_(std::make_shared<store::MemKvStore>(),
                server::ServerOptions{}) {}

  Result<Bytes> Handle(net::MessageType type, BytesView body) override {
    if (type == net::MessageType::kInsertChunkBatch) return Bytes{};
    return engine_.Handle(type, body);
  }

 private:
  server::ServerEngine engine_;
};

// One iteration inserts one chunk's points into a 19-field HEAC vitals
// stream (kZlib); its first point seals the chunk before it. The arguments
// are points per chunk and OwnerOptions::upload_batch_chunks: 10-point
// chunks in 256-chunk batches are tcbench's prefill, 500-point chunks sent
// one at a time its live producers.
void BM_OwnerSeal(benchmark::State& state) {
  const auto points = static_cast<int64_t>(state.range(0));
  constexpr DurationMs kDelta = 10 * kSecond;
  client::OwnerOptions options;
  options.upload_batch_chunks = static_cast<uint64_t>(state.range(1));
  client::OwnerClient owner(
      std::make_shared<net::InProcTransport>(std::make_shared<AckingHandler>()),
      options);
  net::StreamConfig config;
  config.name = "owner-seal";
  config.delta_ms = kDelta;
  config.schema = workload::MHealthGenerator::VitalsSchema();
  config.cipher = net::CipherKind::kHeac;
  auto uuid = owner.CreateStream(config);
  if (!uuid.ok()) std::abort();
  const auto values = VitalsPoints(static_cast<size_t>(points));
  uint64_t chunk = 0;
  for (auto _ : state) {
    const auto t0 = static_cast<Timestamp>(chunk++) * kDelta;
    for (int64_t i = 0; i < points; ++i) {
      index::DataPoint p{t0 + i * (kDelta / points), values[i].value};
      if (!owner.InsertRecord(*uuid, p).ok()) std::abort();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(chunk));
}
BENCHMARK(BM_OwnerSeal)
    ->ArgNames({"points", "batch"})
    ->Args({10, 256})
    ->Args({500, 1});

// ------------------------------------------------------ 9. seal kernels

// Leaves i and i+1 of a height-30 keystream for chunk i, as the owner asks
// StreamKeys for them: leaf i is the previous chunk's leaf i+1, so each
// iteration is one step of the sequential iterator.
void BM_SequentialLeafPair(benchmark::State& state) {
  client::StreamKeys keys(crypto::RandomKey128());
  uint64_t chunk = 0;
  for (auto _ : state) {
    crypto::Key128 leaf_i = keys.Leaf(chunk);
    crypto::Key128 leaf_n = keys.Leaf(chunk + 1);
    benchmark::DoNotOptimize(leaf_i);
    benchmark::DoNotOptimize(leaf_n);
    ++chunk;
  }
  state.SetItemsProcessed(static_cast<int64_t>(chunk));
}
BENCHMARK(BM_SequentialLeafPair);

// One leaf's HEAC field keys, re-derived into the same storage as the
// owner does for every chunk; the argument is the field count (19 for the
// vitals schema).
void BM_FieldKeysDerive(benchmark::State& state) {
  const auto leaves = PayloadKeys();
  crypto::FieldKeys keys(leaves[0], static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    keys.Derive(leaves[i++ % leaves.size()]);
    benchmark::DoNotOptimize(keys.key(0));
  }
}
BENCHMARK(BM_FieldKeysDerive)->Arg(19);

// Four leaves' field keys per iteration, as the owner derives a group of
// four chunks' (FieldKeys::DeriveLanes): compare items/s (or a quarter of
// the time) with BM_FieldKeysDerive.
void BM_FieldKeysDeriveLanes(benchmark::State& state) {
  const auto leaves = PayloadKeys();
  constexpr size_t kLanes = crypto::kCryptoLanes;
  std::vector<crypto::FieldKeys> keys(
      kLanes, crypto::FieldKeys(static_cast<size_t>(state.range(0))));
  size_t i = 0;
  for (auto _ : state) {
    crypto::FieldKeys::DeriveLanes(
        std::span(leaves).subspan(i % (leaves.size() - kLanes), kLanes), keys);
    i += kLanes;
    benchmark::DoNotOptimize(keys[0].key(0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_FieldKeysDeriveLanes)->Arg(19);

// The payload key H(k_i - k_{i+1}) of one chunk.
void BM_ChunkPayloadKey(benchmark::State& state) {
  const auto leaves = PayloadKeys();
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i++ % leaves.size();
    crypto::Key128 key = crypto::ChunkPayloadKey(
        leaves[k], leaves[(k + 1) % leaves.size()]);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_ChunkPayloadKey);

// SHA-256 of the longest one-block message (55 bytes), of one whole block,
// whose padding takes a second, and of 1 KiB.
void BM_Sha256(benchmark::State& state) {
  const Bytes msg(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    crypto::Sha256Digest d = crypto::Sha256(msg);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(55)->Arg(64)->Arg(1024);

// HMAC-SHA256 under a 16-byte key, as StreamKeys derives its subseeds from
// the master seed, over 16 bytes and 1 KiB.
void BM_HmacSha256(benchmark::State& state) {
  const crypto::Key128 key = crypto::RandomKey128();
  const Bytes msg(static_cast<size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    crypto::Sha256Digest d = crypto::HmacSha256(key.secret_bytes(), msg);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(16)->Arg(1024);

// The AES and GCM rows above on the portable kernels, as on a CPU without
// AES-NI, PCLMULQDQ or SHA-NI: each runs with the CPU feature table masked
// (crypto::internal::ScopedCpuFeatureMask), so its PRG, field keys and
// AES-GCM are the software ones.
template <void (*kRow)(benchmark::State&)>
void Portable(benchmark::State& state) {
  const crypto::internal::ScopedCpuFeatureMask mask(crypto::kCpuAllFeatures);
  kRow(state);
}
BENCHMARK(Portable<BM_SequentialLeafPair>)
    ->Name("BM_PortableSequentialLeafPair");
BENCHMARK(Portable<BM_FieldKeysDerive>)
    ->Name("BM_PortableFieldKeysDerive")
    ->Arg(19);
BENCHMARK(Portable<BM_FieldKeysDeriveLanes>)
    ->Name("BM_PortableFieldKeysDeriveLanes")
    ->Arg(19);
BENCHMARK(Portable<BM_GcmSeal>)->Name("BM_PortableGcmSeal")->Arg(32);

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  std::printf(
      "=== Ablations: fanout / key-canceling / PRG / compression / "
      "strided / cache / payload seal / owner seal / seal kernels ===\n"
      "(design-choice quantification; see README.md benchmark matrix)\n\n");
  return tc::bench::RunBenchmarks(argc, argv);
}
