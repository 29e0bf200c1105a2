// Figure 8 reproduction: latency of statistical queries over one month of
// health data (the paper's 121M records / 259,200 chunks at Δ=10 s),
// requested at granularities from one minute up to one month, plaintext vs
// TimeCrypt.
//
// Expected shape: at minute granularity the client decrypts ~43k window
// aggregates, so TimeCrypt pays ~1.5x over plaintext; the overhead decays
// toward 1.0x as granularity coarsens (one decryption for the whole month).
// The paper reports 1.51x at minute granularity (40320 decryptions), falling
// to 1.01x at month granularity.
//
// Rows are BM_Fig8Series/<scheme>/span:<fixture>/window:<granularity>. One
// iteration is one GetStatSeries over the whole fixture, decrypted client-
// side window by window, after one untimed warm-up query (the paper's
// steady-state measurement). The span:day rows (one day of chunks, windows
// up to a day) are the smoke sizes; span:month is the figure. Chunks are
// ingested digest-only: the figure measures the statistical path, and raw
// payloads are irrelevant to it.
#include <map>
#include <utility>

#include "bench_common.hpp"
#include "client/owner.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"

namespace tc::bench {
namespace {

constexpr DurationMs kDelta = 10 * kSecond;
constexpr uint64_t kChunksPerMinute = 6;
constexpr uint64_t kRecordsPerChunk = 467;  // 259,200 chunks => 121M records

struct MonthFixture {
  std::shared_ptr<net::Transport> transport;
  std::unique_ptr<client::OwnerClient> owner;
  uint64_t uuid;
  uint64_t total_chunks;

  MonthFixture(net::CipherKind cipher, uint64_t chunks)
      : total_chunks(chunks) {
    transport = std::make_shared<net::InProcTransport>(
        std::make_shared<server::ServerEngine>(
            std::make_shared<store::MemKvStore>()));
    owner = std::make_unique<client::OwnerClient>(transport);

    net::StreamConfig config;
    config.name = "mhealth-month";
    config.t0 = 0;
    config.delta_ms = kDelta;
    config.schema.with_sum = config.schema.with_count = true;
    config.cipher = cipher;
    config.fanout = 64;
    uuid = *owner->CreateStream(config);

    auto* keys = *owner->KeysFor(uuid);
    auto digest = cipher == net::CipherKind::kHeac
                      ? index::MakeHeacCipher(2, keys->shared_tree())
                      : index::MakePlainCipher(2);
    for (uint64_t c = 0; c < total_chunks; ++c) {
      std::vector<uint64_t> fields = {kRecordsPerChunk * 600,
                                      kRecordsPerChunk};
      const Bytes blob = *digest->Encrypt(fields, c);
      net::InsertChunkBatchRequest req{uuid, {{c, blob, {}}}};
      if (!transport->Call(net::MessageType::kInsertChunkBatch, req.Encode())
               .ok()) {
        std::abort();
      }
    }
  }

  /// The Fig 8 query: the whole fixture at `granularity` windows, decrypted
  /// client-side window by window.
  void View(uint64_t granularity_chunks) {
    auto series = owner->GetStatSeries(
        uuid, {0, static_cast<Timestamp>(total_chunks) * kDelta},
        granularity_chunks);
    if (!series.ok()) std::abort();
    // Touch the decoded results (the plot data).
    uint64_t count = 0;
    for (const auto& window : *series) count += *window.stats.Count();
    if (count != kRecordsPerChunk * total_chunks) std::abort();
  }
};

void BM_Fig8Series(benchmark::State& state, net::CipherKind cipher,
                   uint64_t chunks, uint64_t granularity) {
  // One fixture per scheme and span, built on first use and kept for the
  // process (the month fixtures take seconds to ingest).
  static std::map<std::pair<net::CipherKind, uint64_t>,
                  std::unique_ptr<MonthFixture>>
      fixtures;
  auto& fixture = fixtures[{cipher, chunks}];
  if (!fixture) fixture = std::make_unique<MonthFixture>(cipher, chunks);
  fixture->View(granularity);  // warm-up
  for (auto _ : state) fixture->View(granularity);
  state.counters["windows"] =
      static_cast<double>((chunks + granularity - 1) / granularity);
}

void RegisterAll() {
  struct Granularity {
    const char* label;
    uint64_t chunks;
  };
  constexpr uint64_t kDay = kChunksPerMinute * 60 * 24;
  const Granularity granularities[] = {
      {"minute", kChunksPerMinute},
      {"hour", kChunksPerMinute * 60},
      {"day", kDay},
      {"week", kDay * 7},
      {"month", kDay * 30},
  };
  struct Span {
    const char* label;
    uint64_t chunks;
  };
  for (Span span : {Span{"day", kDay}, Span{"month", kDay * 30}}) {
    for (const Granularity& g : granularities) {
      if (g.chunks > span.chunks) continue;
      for (auto [scheme, cipher] :
           {std::pair{"Plaintext", net::CipherKind::kPlain},
            std::pair{"TimeCrypt", net::CipherKind::kHeac}}) {
        benchmark::RegisterBenchmark(
            (std::string("BM_Fig8Series/") + scheme + "/span:" + span.label +
             "/window:" + g.label)
                .c_str(),
            [cipher = cipher, span, g](benchmark::State& st) {
              BM_Fig8Series(st, cipher, span.chunks, g.chunks);
            })
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  tc::bench::RegisterAll();
  return tc::bench::RunBenchmarks(argc, argv);
}
