// §6.3 DevOps reproduction: data-center CPU monitoring — TSBS-style
// workload (10 metrics x 100 hosts, 10 s samples, Δ = 1 min -> 6 records
// per chunk), clients querying average CPU utilization and the fraction of
// machines above 50% over windows up to 16 h.
//
// Paper (separate server/Cassandra machines): plaintext 60.6k rec/s ingest,
// 40.4k query ops/s; TimeCrypt within 0.75%. Single-core here: absolute
// numbers shrink, the plaintext-vs-TimeCrypt gap is the reproduced claim.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "client/owner.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"
#include "workload/devops.hpp"

namespace tc::bench {
namespace {

constexpr DurationMs kDelta = kMinute;  // 6 records per chunk

struct DevOpsStack {
  std::shared_ptr<store::MemKvStore> kv;
  std::shared_ptr<server::ServerEngine> server;
  std::shared_ptr<net::Transport> transport;
  std::unique_ptr<client::OwnerClient> owner;
  std::vector<uint64_t> uuids;
  workload::DevOpsGenerator gen;

  DevOpsStack(net::CipherKind cipher, uint32_t hosts)
      : gen({.num_hosts = hosts, .num_metrics = 1}) {
    kv = std::make_shared<store::MemKvStore>();
    server = std::make_shared<server::ServerEngine>(kv);
    transport = std::make_shared<net::InProcTransport>(server);
    owner = std::make_unique<client::OwnerClient>(transport);
    for (uint32_t h = 0; h < hosts; ++h) {
      net::StreamConfig config;
      config.name = gen.StreamName(h, 0);
      config.t0 = 0;
      config.delta_ms = kDelta;
      config.schema = workload::DevOpsGenerator::CpuSchema();
      config.cipher = cipher;
      uuids.push_back(*owner->CreateStream(config));
    }
  }
};

void BM_DevOpsIngest(benchmark::State& state, net::CipherKind cipher) {
  constexpr uint32_t kHosts = 20;
  DevOpsStack stack(cipher, kHosts);
  int64_t records = 0;
  uint32_t host = 0;
  for (auto _ : state) {
    auto st = stack.owner->InsertRecord(stack.uuids[host],
                                        stack.gen.Next(host, 0));
    if (!st.ok()) std::abort();
    ++records;
    host = (host + 1) % kHosts;
  }
  state.SetItemsProcessed(records);
}

void BM_DevOpsQuery(benchmark::State& state, net::CipherKind cipher) {
  constexpr uint32_t kHosts = 20;
  constexpr uint64_t kChunks = 960;  // 16 h of 1-min chunks
  DevOpsStack stack(cipher, kHosts);
  for (uint64_t c = 0; c < kChunks; ++c) {
    for (uint32_t h = 0; h < kHosts; ++h) {
      for (int s = 0; s < 6; ++s) {
        auto st = stack.owner->InsertRecord(stack.uuids[h],
                                            stack.gen.Next(h, 0));
        if (!st.ok()) std::abort();
      }
    }
  }
  for (uint32_t h = 0; h < kHosts; ++h) {
    if (!stack.owner->Flush(stack.uuids[h]).ok()) std::abort();
  }

  // Query mix: avg CPU + fraction above 50% over random <=16h windows.
  crypto::DeterministicRng rng(13);
  int64_t ops = 0;
  for (auto _ : state) {
    uint32_t h = static_cast<uint32_t>(rng.NextBelow(kHosts));
    uint64_t a = rng.NextBelow(kChunks - 2);
    uint64_t len = 1 + rng.NextBelow(std::min<uint64_t>(kChunks - a - 1, 960));
    auto r = stack.owner->GetStatRange(
        stack.uuids[h], {static_cast<Timestamp>(a) * kDelta,
                         static_cast<Timestamp>(a + len) * kDelta});
    if (!r.ok()) std::abort();
    // avg utilization + hot-machine fraction from histogram bins 5..9
    double mean = *r->stats.Mean();
    uint64_t hot = 0;
    for (uint32_t b = 5; b < 10; ++b) hot += *r->stats.Freq(b);
    benchmark::DoNotOptimize(mean);
    benchmark::DoNotOptimize(hot);
    ++ops;
  }
  state.SetItemsProcessed(ops);
}

void RegisterAll() {
  struct Scheme {
    const char* name;
    net::CipherKind kind;
  };
  for (auto s : {Scheme{"Plaintext", net::CipherKind::kPlain},
                 Scheme{"TimeCrypt", net::CipherKind::kHeac}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_DevOpsIngest/") + s.name).c_str(),
        [s](benchmark::State& st) { BM_DevOpsIngest(st, s.kind); })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_DevOpsQuery/") + s.name).c_str(),
        [s](benchmark::State& st) { BM_DevOpsQuery(st, s.kind); })
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  std::printf(
      "=== §6.3 DevOps: CPU monitoring, plaintext vs TimeCrypt ===\n"
      "paper: 60.6k rec/s ingest / 40.4k ops/s query, TimeCrypt -0.75%%\n\n");
  tc::bench::RegisterAll();
  return tc::bench::RunBenchmarks(argc, argv);
}
