// Figure 8 reproduction: latency of statistical queries over one month of
// health data (the paper's 121M records / 259,200 chunks at Δ=10 s),
// requested at granularities from one minute up to one month, plaintext vs
// TimeCrypt.
//
// Expected shape: at minute granularity the client decrypts ~43k window
// aggregates, so TimeCrypt pays ~1.5x over plaintext; the overhead decays
// toward 1.0x as granularity coarsens (one decryption for the whole month).
//
// Chunks are ingested digest-only (the figure measures the statistical
// path; raw payloads are irrelevant to it).
//
// `--quick` shrinks the fixture to one day so a CI smoke run finishes in
// about a second while still exercising every code path.
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "client/owner.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"
#include "workload/mhealth.hpp"

namespace tc::bench {
namespace {

constexpr DurationMs kDelta = 10 * kSecond;
constexpr uint64_t kChunksPerMinute = 6;
constexpr uint64_t kMonthMinutes = 30 * 24 * 60;  // 43200
constexpr uint64_t kMonthChunks = kMonthMinutes * kChunksPerMinute;  // 259200

struct MonthFixture {
  std::shared_ptr<store::MemKvStore> kv;
  std::shared_ptr<server::ServerEngine> server;
  std::shared_ptr<net::Transport> transport;
  std::unique_ptr<client::OwnerClient> owner;
  uint64_t uuid;
  uint64_t total_chunks;

  MonthFixture(net::CipherKind cipher, uint64_t chunks)
      : total_chunks(chunks) {
    kv = std::make_shared<store::MemKvStore>();
    server = std::make_shared<server::ServerEngine>(kv);
    transport = std::make_shared<net::InProcTransport>(server);
    owner = std::make_unique<client::OwnerClient>(transport);

    net::StreamConfig config;
    config.name = "mhealth-month";
    config.t0 = 0;
    config.delta_ms = kDelta;
    config.schema.with_sum = config.schema.with_count = true;
    config.cipher = cipher;
    config.fanout = 64;
    uuid = *owner->CreateStream(config);

    // Digest-only ingest of one month: 467 records/chunk => 121M records.
    auto* keys = *owner->KeysFor(uuid);
    auto heac = cipher == net::CipherKind::kHeac
                    ? index::MakeHeacCipher(2, keys->shared_tree())
                    : index::MakePlainCipher(2);
    WallTimer t;
    for (uint64_t c = 0; c < total_chunks; ++c) {
      std::vector<uint64_t> fields = {467 * 600, 467};
      Bytes blob = *heac->Encrypt(fields, c);
      net::InsertChunkBatchRequest req{uuid, {{c, std::move(blob), {}}}};
      if (!transport->Call(net::MessageType::kInsertChunkBatch, req.Encode())
               .ok()) {
        std::abort();
      }
    }
    std::printf("  [setup] %llu chunks (%.0fM records equivalent) ingested "
                "in %.1fs\n",
                static_cast<unsigned long long>(total_chunks),
                total_chunks * 467 / 1e6, t.Seconds());
  }

  /// The Fig 8 query: the whole month at `granularity` windows, decrypted
  /// client-side window by window. Returns latency in ms.
  double ViewLatencyMs(uint64_t granularity_chunks) {
    WallTimer t;
    auto series = owner->GetStatSeries(
        uuid, {0, static_cast<Timestamp>(total_chunks) * kDelta},
        granularity_chunks);
    if (!series.ok()) std::abort();
    // Touch the decoded results (the plot data).
    uint64_t count = 0;
    for (const auto& window : *series) count += *window.stats.Count();
    if (count != 467 * total_chunks) std::abort();
    return t.Seconds() * 1000.0;
  }
};

void Run(uint64_t total_chunks) {
  struct Row {
    const char* label;
    uint64_t granularity;
  };
  const Row rows[] = {
      {"minute", kChunksPerMinute},
      {"hour", kChunksPerMinute * 60},
      {"day", kChunksPerMinute * 60 * 24},
      {"week", kChunksPerMinute * 60 * 24 * 7},
      {"month", kMonthChunks},
  };

  std::printf("building plaintext fixture...\n");
  MonthFixture plain(net::CipherKind::kPlain, total_chunks);
  std::printf("building TimeCrypt fixture...\n");
  MonthFixture heac(net::CipherKind::kHeac, total_chunks);

  std::printf("\n%-8s %12s %12s %9s %10s\n", "granny", "plaintext",
              "timecrypt", "overhead", "windows");
  for (const Row& row : rows) {
    if (row.granularity > total_chunks) continue;
    // Two repetitions, keep the second (warm cache) — as the paper's
    // steady-state measurement.
    (void)plain.ViewLatencyMs(row.granularity);
    double p = plain.ViewLatencyMs(row.granularity);
    (void)heac.ViewLatencyMs(row.granularity);
    double h = heac.ViewLatencyMs(row.granularity);
    std::printf("%-8s %10.2fms %10.2fms %8.2fx %10llu\n", row.label, p, h,
                h / p,
                static_cast<unsigned long long>(
                    (total_chunks + row.granularity - 1) / row.granularity));
  }
  std::printf(
      "\npaper (Fig 8): minute-granularity overhead 1.51x (40320 "
      "decryptions),\nfalling to 1.01x at month granularity.\n");
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  uint64_t chunks =
      quick ? tc::bench::kChunksPerMinute * 60 * 24 : tc::bench::kMonthChunks;
  std::printf("=== Fig 8: one-month views at varying granularity%s ===\n",
              quick ? " (quick: one day)" : "");
  tc::bench::Run(chunks);
  tc::bench::PrintStageBreakdown();
  return 0;
}
