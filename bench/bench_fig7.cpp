// Figure 7 (a-d) + §6.3 mhealth reproduction: end-to-end ingest and
// statistical-query throughput and latency through the full stack (client
// serialization pipeline -> transport -> server index), for Plaintext,
// TimeCrypt, and the strawman ciphers, plus the small-index-cache (1 MB)
// variant, and raw range reads over the log store.
//
// The paper's numbers come from an 8-vCPU server with 100 client threads;
// this harness runs single-core, so absolute throughput is lower across the
// board — the reproduced claims are the *relative* ones: TimeCrypt within a
// few percent of plaintext, strawman orders of magnitude below.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <map>

#include "bench_common.hpp"
#include "client/owner.hpp"
#include "server/server_engine.hpp"
#include "store/log_kv.hpp"
#include "store/mem_kv.hpp"
#include "workload/mhealth.hpp"

namespace tc::bench {
namespace {

constexpr DurationMs kDelta = 10 * kSecond;
constexpr int kPointsPerChunk = 500;  // 50 Hz x 10 s

struct Stack {
  std::shared_ptr<store::MemKvStore> kv;
  std::shared_ptr<server::ServerEngine> server;
  std::shared_ptr<net::Transport> transport;
  std::unique_ptr<client::OwnerClient> owner;

  explicit Stack(size_t cache_bytes = 256u << 20) {
    kv = std::make_shared<store::MemKvStore>();
    server = std::make_shared<server::ServerEngine>(
        kv, server::ServerOptions{cache_bytes});
    transport = std::make_shared<net::InProcTransport>(server);
    owner = std::make_unique<client::OwnerClient>(transport);
  }
};

net::StreamConfig MHealthConfig(net::CipherKind cipher) {
  net::StreamConfig c;
  c.name = "mhealth";
  c.t0 = 0;
  c.delta_ms = kDelta;
  c.schema = workload::MHealthGenerator::VitalsSchema();
  c.cipher = cipher;
  c.fanout = 64;
  return c;
}

// ---- (a) ingest throughput, records/s ------------------------------------

void BM_E2eIngest(benchmark::State& state, net::CipherKind cipher,
                  size_t cache_bytes) {
  Stack stack(cache_bytes);
  auto uuid = *stack.owner->CreateStream(MHealthConfig(cipher));
  workload::MHealthGenerator gen({.num_metrics = 1, .sample_hz = 50.0});

  int64_t records = 0;
  for (auto _ : state) {
    auto p = gen.Next(0);
    if (!stack.owner->InsertRecord(uuid, p).ok()) std::abort();
    ++records;
  }
  state.SetItemsProcessed(records);  // items/s == records/s (Fig 7a)
}

// ---- (b,c) statistical query throughput / latency -------------------------

void BM_E2eStatQuery(benchmark::State& state, net::CipherKind cipher,
                     size_t cache_bytes) {
  Stack stack(cache_bytes);
  auto uuid = *stack.owner->CreateStream(MHealthConfig(cipher));
  workload::MHealthGenerator gen({.num_metrics = 1, .sample_hz = 50.0});

  // Prefill ~2000 chunks (1M points equivalent at 500/chunk — generated at
  // 10 points per chunk to bound setup time; query cost depends on chunk
  // count, not in-chunk point count).
  constexpr uint64_t kChunks = 2000;
  for (uint64_t c = 0; c < kChunks; ++c) {
    for (int i = 0; i < 10; ++i) {
      auto st = stack.owner->InsertRecord(
          uuid, {static_cast<Timestamp>(c * kDelta + i * 1000),
                 static_cast<int64_t>(600 + i)});
      if (!st.ok()) std::abort();
    }
  }
  if (!stack.owner->Flush(uuid).ok()) std::abort();

  crypto::DeterministicRng rng(7);
  int64_t ops = 0;
  for (auto _ : state) {
    uint64_t a = rng.NextBelow(kChunks - 1);
    uint64_t b = a + 1 + rng.NextBelow(kChunks - a - 1);
    auto r = stack.owner->GetStatRange(
        uuid, {static_cast<Timestamp>(a) * kDelta,
               static_cast<Timestamp>(b) * kDelta});
    // The prefill's closed form: chunks [a, b) hold ten points each, with
    // values 600..609 (sum 6045).
    if (!r.ok() || r->stats.Count().value_or(0) != 10 * (b - a) ||
        r->stats.Sum().value_or(0) != static_cast<int64_t>(6045 * (b - a))) {
      std::abort();
    }
    benchmark::DoNotOptimize(r->stats.fields().data());
    ++ops;
  }
  state.SetItemsProcessed(ops);  // items/s == query ops/s (Fig 7b)
}

// ---- mixed 4:1 read:write load (the Fig 7 load generator's mix) ----------

void BM_E2eMixed(benchmark::State& state, net::CipherKind cipher) {
  Stack stack;
  auto uuid = *stack.owner->CreateStream(MHealthConfig(cipher));
  // Seed with 200 chunks so queries have a window from the start.
  for (uint64_t c = 0; c < 200; ++c) {
    for (int i = 0; i < 10; ++i) {
      auto st = stack.owner->InsertRecord(
          uuid, {static_cast<Timestamp>(c * kDelta + i * 1000), 600});
      if (!st.ok()) std::abort();
    }
  }
  if (!stack.owner->Flush(uuid).ok()) std::abort();

  crypto::DeterministicRng rng(11);
  uint64_t next_ts = 201 * kDelta;
  int64_t ops = 0;
  for (auto _ : state) {
    // 4 queries per ingest batch, as in the paper's load mix.
    for (int q = 0; q < 4; ++q) {
      uint64_t a = rng.NextBelow(190);
      auto r = stack.owner->GetStatRange(
          uuid, {static_cast<Timestamp>(a) * kDelta,
                 static_cast<Timestamp>(a + 10) * kDelta});
      if (!r.ok()) std::abort();
    }
    for (int i = 0; i < 10; ++i) {
      auto st = stack.owner->InsertRecord(
          uuid,
          {static_cast<Timestamp>(next_ts + i * 1000), 600});
      if (!st.ok()) std::abort();
    }
    next_ts += kDelta;
    ops += 5;
  }
  state.SetItemsProcessed(ops);
}

// ---- raw range reads over the log store ----------------------------------

/// A TimeCrypt stream of kRangeStreamChunks chunks of `points` points each,
/// uploaded in 256-chunk batches to an engine over a log store in a
/// temporary file, the way tcserver --store log keeps it.
struct LogStack {
  static constexpr uint64_t kRangeStreamChunks = 8192;

  std::filesystem::path path;
  std::shared_ptr<server::ServerEngine> server;
  std::unique_ptr<client::OwnerClient> owner;
  uint64_t uuid = 0;

  explicit LogStack(int points)
      : path(std::filesystem::temp_directory_path() /
             ("bench_fig7_range_" + std::to_string(::getpid()) + "_" +
              std::to_string(points) + ".log")) {
    std::filesystem::remove(path);
    auto log = store::LogKvStore::Open(path.string());
    if (!log.ok()) std::abort();
    server = std::make_shared<server::ServerEngine>(
        std::shared_ptr<store::KvStore>(std::move(*log)));
    client::OwnerOptions options;
    options.upload_batch_chunks = 256;
    owner = std::make_unique<client::OwnerClient>(
        std::make_shared<net::InProcTransport>(server), options);
    uuid = *owner->CreateStream(MHealthConfig(net::CipherKind::kHeac));
    // `points` samples per kDelta chunk.
    workload::MHealthGenerator gen(
        {.num_metrics = 1, .sample_hz = points * 1e3 / kDelta});
    for (uint64_t n = 0; n < kRangeStreamChunks * points; ++n) {
      if (!owner->InsertRecord(uuid, gen.Next(0)).ok()) std::abort();
    }
    if (!owner->Flush(uuid).ok()) std::abort();
  }
  ~LogStack() {
    owner.reset();
    server.reset();
    std::filesystem::remove(path);
  }
};

/// Fetch and decrypt `chunks` consecutive chunks at a random start: the
/// server reads their payloads from the log, the owner opens them.
void BM_E2eGetRange(benchmark::State& state, int points, uint64_t chunks) {
  // One stream per chunk size, built on first use and kept for the process.
  static std::map<int, std::unique_ptr<LogStack>> stacks;
  auto& stack = stacks[points];
  if (!stack) stack = std::make_unique<LogStack>(points);

  crypto::DeterministicRng rng(5);
  int64_t read = 0;
  for (auto _ : state) {
    uint64_t first =
        rng.NextBelow(LogStack::kRangeStreamChunks - chunks + 1);
    auto r = stack->owner->GetRange(
        stack->uuid, {static_cast<Timestamp>(first) * kDelta,
                      static_cast<Timestamp>(first + chunks) * kDelta});
    if (!r.ok() || r->empty()) std::abort();
    benchmark::DoNotOptimize(r->data());
    read += static_cast<int64_t>(chunks);
  }
  state.SetItemsProcessed(read);  // items/s == chunks read/s
}

void RegisterAll() {
  struct Scheme {
    const char* name;
    net::CipherKind kind;
  };
  // Full E2E for plaintext + TimeCrypt (the ±1.8% comparison), including
  // the 1 MB small-cache variants (Fig 7c "Insert S"/"Query S").
  for (auto s : {Scheme{"Plaintext", net::CipherKind::kPlain},
                 Scheme{"TimeCrypt", net::CipherKind::kHeac}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_E2eIngest/") + s.name).c_str(),
        [s](benchmark::State& st) {
          BM_E2eIngest(st, s.kind, 256u << 20);
        })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_E2eIngest_SmallCache/") + s.name).c_str(),
        [s](benchmark::State& st) { BM_E2eIngest(st, s.kind, 1u << 20); })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_E2eStatQuery/") + s.name).c_str(),
        [s](benchmark::State& st) {
          BM_E2eStatQuery(st, s.kind, 256u << 20);
        })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_E2eStatQuery_SmallCache/") + s.name).c_str(),
        [s](benchmark::State& st) { BM_E2eStatQuery(st, s.kind, 1u << 20); })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_E2eMixed/") + s.name).c_str(),
        [s](benchmark::State& st) { BM_E2eMixed(st, s.kind); })
        ->Unit(benchmark::kMicrosecond);
  }
  for (int points : {10, 500}) {
    for (uint64_t chunks : {1, 64, 4096}) {
      benchmark::RegisterBenchmark(
          ("BM_E2eGetRange/TimeCrypt/" + std::to_string(points) + "pt/" +
           std::to_string(chunks))
              .c_str(),
          [points, chunks](benchmark::State& st) {
            BM_E2eGetRange(st, points, chunks);
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

// ---- strawman E2E (Fig 7a-b-d): honest per-chunk Paillier and EC-ElGamal
// encryption through the same server --------------------------------------

/// A strawman scheme's digest cipher and public key, made once per process
/// (Paillier-3072 keygen takes seconds).
struct StrawmanKeys {
  std::shared_ptr<const index::DigestCipher> cipher;
  Bytes public_key;
};

const StrawmanKeys& KeysFor(net::CipherKind kind) {
  if (kind == net::CipherKind::kPaillier) {
    static const StrawmanKeys paillier = [] {
      auto key = std::shared_ptr<const crypto::Paillier>(
          crypto::Paillier::Generate(3072));
      return StrawmanKeys{index::MakePaillierCipher(1, key),
                          key->ExportPublicKey()};
    }();
    return paillier;
  }
  static const StrawmanKeys ec_elgamal = [] {
    auto key =
        std::shared_ptr<const crypto::EcElGamal>(crypto::EcElGamal::Generate());
    return StrawmanKeys{index::MakeEcElGamalCipher(1, key, 17),
                        key->ExportPublicKey()};
  }();
  return ec_elgamal;
}

/// A stack holding one strawman stream. Its schema is sum-only, since
/// strawman cost is per field.
struct StrawmanStack {
  Stack stack;
  std::shared_ptr<const index::DigestCipher> cipher;
  uint64_t chunks = 0;

  explicit StrawmanStack(net::CipherKind kind) : cipher(KeysFor(kind).cipher) {
    net::StreamConfig config = MHealthConfig(kind);
    config.schema = index::DigestSchema{};
    config.schema.with_count = false;
    config.cipher_public = KeysFor(kind).public_key;
    net::CreateStreamRequest create{1, config};
    if (!stack.transport
             ->Call(net::MessageType::kCreateStream, create.Encode())
             .ok()) {
      std::abort();
    }
  }

  /// Encrypt the next chunk's digest and index it.
  void InsertChunk() {
    std::vector<uint64_t> fields = {600};
    const Bytes blob = *cipher->Encrypt(fields, chunks);
    net::InsertChunkBatchRequest req{1, {{chunks, blob, {}}}};
    if (!stack.transport
             ->Call(net::MessageType::kInsertChunkBatch, req.Encode())
             .ok()) {
      std::abort();
    }
    ++chunks;
  }
};

/// One iteration is one chunk: honest encryption plus the server's index
/// update. `records` is Fig 7a's rate at 500 records per chunk.
void BM_StrawmanIngest(benchmark::State& state, net::CipherKind kind) {
  StrawmanStack strawman(kind);
  for (auto _ : state) strawman.InsertChunk();
  state.counters["records"] = benchmark::Counter(
      static_cast<double>(strawman.chunks * kPointsPerChunk),
      benchmark::Counter::kIsRate);
}

/// One iteration is one random-range statistical query, decryption included.
void BM_StrawmanStatQuery(benchmark::State& state, net::CipherKind kind,
                          uint64_t chunks) {
  // One stream per scheme, built on first use and kept for the process.
  static std::map<net::CipherKind, std::unique_ptr<StrawmanStack>> strawmen;
  auto& strawman = strawmen[kind];
  if (!strawman) {
    strawman = std::make_unique<StrawmanStack>(kind);
    while (strawman->chunks < chunks) strawman->InsertChunk();
  }
  crypto::DeterministicRng rng(3);
  for (auto _ : state) {
    uint64_t a = rng.NextBelow(chunks - 1);
    uint64_t b = a + 1 + rng.NextBelow(chunks - a - 1);
    net::StatRangeRequest req{1, {static_cast<Timestamp>(a) * kDelta,
                                  static_cast<Timestamp>(b) * kDelta}};
    auto resp = strawman->stack.transport->Call(
        net::MessageType::kGetStatRange, req.Encode());
    if (!resp.ok()) std::abort();
    auto decoded = net::StatRangeResponse::Decode(*resp);
    auto plain = strawman->cipher->Decrypt(
        decoded->aggregate_blob, decoded->first_chunk, decoded->last_chunk);
    if (!plain.ok()) std::abort();
  }
  state.counters["queries"] =
      benchmark::Counter(state.iterations(), benchmark::Counter::kIsRate);
}

void RegisterStrawmen() {
  struct Scheme {
    const char* name;
    net::CipherKind kind;
    uint64_t query_chunks;
  };
  for (auto s : {Scheme{"Paillier", net::CipherKind::kPaillier, 100},
                 Scheme{"EC-ElGamal", net::CipherKind::kEcElGamal, 400}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_StrawmanIngest/") + s.name).c_str(),
        [s](benchmark::State& st) { BM_StrawmanIngest(st, s.kind); })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_StrawmanStatQuery/") + s.name + "/chunks:" +
         std::to_string(s.query_chunks))
            .c_str(),
        [s](benchmark::State& st) {
          BM_StrawmanStatQuery(st, s.kind, s.query_chunks);
        })
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  std::printf(
      "=== Fig 7 + §6.3 mhealth: E2E ingest & query, plaintext vs "
      "TimeCrypt vs strawman ===\n"
      "paper (8 vCPU, 100 clients): plaintext 2.47M rec/s, 19.4k query "
      "ops/s; TimeCrypt -1.8%%; 20x/52x over EC-ElGamal/Paillier\n\n");
  tc::bench::RegisterAll();
  tc::bench::RegisterStrawmen();
  return tc::bench::RunBenchmarks(argc, argv);
}
