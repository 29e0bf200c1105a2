// Shared helpers for the benchmark binaries: index fixtures per cipher
// backend, scaled-down size defaults for single-core runs, the plain-stream
// ingest fixture the cluster and replication rungs share, and the main()
// that runs the registered rows and enforces their timing gates. Every
// binary regenerates one table/figure of the paper or one rung of the layer
// ladder; README.md's benchmark matrix lists which.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "crypto/rand.hpp"
#include "index/agg_tree.hpp"
#include "index/digest_cipher.hpp"
#include "net/messages.hpp"
#include "store/mem_kv.hpp"

namespace tc::bench {

inline std::string FmtBytes(uint64_t bytes) {
  char buf[64];
  if (bytes < (1u << 10)) {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  } else if (bytes < (1u << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", bytes / 1024.0);
  } else if (bytes < (1u << 30)) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", bytes / 1048576.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fGB", bytes / 1073741824.0);
  }
  return buf;
}

/// An index fixture over one cipher backend: a fresh tree in a fresh store,
/// with helpers to append n chunks (reusing one encrypted digest blob for
/// the strawman ciphers — homomorphically valid and avoids paying thousands
/// of public-key encryptions just to build a fixture).
struct IndexFixture {
  std::shared_ptr<store::MemKvStore> kv;
  std::shared_ptr<const index::DigestCipher> cipher;
  std::unique_ptr<index::AggTree> tree;

  IndexFixture(std::shared_ptr<const index::DigestCipher> c, uint32_t fanout,
               size_t cache_bytes = 512u << 20)
      : kv(std::make_shared<store::MemKvStore>()),
        cipher(std::move(c)),
        tree(std::make_unique<index::AggTree>(
            kv, "bench", cipher,
            index::AggTreeOptions{fanout, cache_bytes})) {}

  /// Append `n` chunks; `fresh_encrypt` re-encrypts each digest (honest
  /// client cost) vs reusing one blob (index-cost-only).
  void Fill(uint64_t n, bool fresh_encrypt) {
    std::vector<uint64_t> fields(cipher->num_fields(), 1);
    Bytes blob = *cipher->Encrypt(fields, 0);
    for (uint64_t i = 0; i < n; ++i) {
      if (fresh_encrypt) blob = *cipher->Encrypt(fields, i);
      if (!tree->Append(i, blob).ok()) std::abort();
    }
  }
};

/// Environment flag: TC_BENCH_LARGE=1 unlocks the paper-scale sizes (takes
/// much longer; defaults are sized for a single-core CI box).
inline bool LargeRuns() {
  const char* env = std::getenv("TC_BENCH_LARGE");
  return env != nullptr && env[0] == '1';
}

// ------------------------------------------- plain-stream ingest fixture

/// Chunk interval of the plain streams below.
inline constexpr DurationMs kPlainDelta = 10 * kSecond;

/// A sum+count plaintext stream: the server does the same index work as
/// for HEAC without any client-side key derivation.
inline net::StreamConfig PlainConfig(const std::string& name) {
  net::StreamConfig c;
  c.name = name;
  c.t0 = 0;
  c.delta_ms = kPlainDelta;
  c.schema.with_sum = c.schema.with_count = true;
  c.cipher = net::CipherKind::kPlain;
  c.fanout = 64;
  return c;
}

/// A digest-only one-chunk InsertChunkBatch body: chunk `c` of plain
/// stream `uuid`, with sum c + 1 and count 1.
inline Bytes PlainChunkBody(uint64_t uuid, uint64_t c) {
  static const auto cipher = index::MakePlainCipher(2);
  std::vector<uint64_t> fields{c + 1, 1};
  const Bytes digest = *cipher->Encrypt(fields, c);
  return net::InsertChunkBatchRequest{uuid, {{c, digest, {}}}}.Encode();
}

/// Pre-encoded PlainChunkBody requests for `streams` plain streams of
/// `chunks` chunks each (encoding is client work; the rows that use this
/// time the server).
struct IngestLoad {
  std::vector<uint64_t> uuids;
  std::vector<std::vector<Bytes>> bodies;  // [stream][chunk]

  IngestLoad(size_t streams, uint64_t chunks) {
    for (size_t s = 0; s < streams; ++s) {
      uuids.push_back(0x1000 + s);
      bodies.emplace_back();
      bodies.back().reserve(chunks);
      for (uint64_t c = 0; c < chunks; ++c) {
        bodies.back().push_back(PlainChunkBody(uuids[s], c));
      }
    }
  }

  /// Create every stream through `handler`.
  void CreateStreams(net::RequestHandler& handler) const {
    for (uint64_t uuid : uuids) {
      net::CreateStreamRequest req{uuid,
                                   PlainConfig("b" + std::to_string(uuid))};
      if (!handler.Handle(net::MessageType::kCreateStream, req.Encode())
               .ok()) {
        std::abort();
      }
    }
  }

  /// Create the streams, then send every body, stream by stream.
  void Ingest(net::RequestHandler& handler) const {
    CreateStreams(handler);
    for (const auto& stream : bodies) {
      for (const auto& body : stream) {
        if (!handler.Handle(net::MessageType::kInsertChunkBatch, body).ok()) {
          std::abort();
        }
      }
    }
  }

  /// The next query of a deterministic walk: advances the LCG state `x` and
  /// returns a GetStatRange body over a random stream and a random range
  /// of its `chunks` chunks.
  Bytes NextStatRange(uint64_t& x, uint64_t chunks) const {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t uuid = uuids[(x >> 33) % uuids.size()];
    uint64_t first = (x >> 17) % (chunks - 1);
    uint64_t max_span = chunks - first - 1;
    uint64_t last = first + 1 + (max_span == 0 ? 0 : x % max_span);
    return net::StatRangeRequest{
        uuid,
        {static_cast<Timestamp>(first * kPlainDelta),
         static_cast<Timestamp>(last * kPlainDelta)}}
        .Encode();
  }
};

// ------------------------------------------------------ main and gates

// Timing gates hold only where they are meaningful: optimized code, no
// sanitizer instrumentation inflating every atomic op.
#if defined(NDEBUG) && defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define TC_BENCH_GATES_APPLY 1
#endif
#elif defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#define TC_BENCH_GATES_APPLY 1
#endif
#if defined(TC_BENCH_GATES_APPLY)
inline constexpr bool kTimingGatesApply = true;
#else
inline constexpr bool kTimingGatesApply = false;
#endif

/// A bound on one row's wall time per iteration.
struct TimingGate {
  std::string row;  // the row's family name, e.g. "BM_SpanRecord"
  double max_ns;
};

/// Display reporter that passes every run to the default one (so
/// --benchmark_format still applies) and checks the gated rows' runs.
class GateReporter : public benchmark::BenchmarkReporter {
 public:
  explicit GateReporter(std::vector<TimingGate> gates)
      : display_(benchmark::CreateDefaultDisplayReporter()),
        gates_(std::move(gates)),
        ran_(gates_.size(), false) {}

  bool ReportContext(const Context& context) override {
    running_ = true;
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    display_->ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.iterations == 0) continue;
      for (size_t g = 0; g < gates_.size(); ++g) {
        if (run.run_name.function_name != gates_[g].row) continue;
        ran_[g] = true;
        double ns = run.real_accumulated_time * 1e9 /
                    static_cast<double>(run.iterations);
        if (kTimingGatesApply && ns > gates_[g].max_ns) {
          std::fprintf(stderr,
                       "%s: %.1f ns per iteration exceeds its %.0f ns bound\n",
                       run.benchmark_name().c_str(), ns, gates_[g].max_ns);
          failed_ = true;
        }
      }
    }
  }
  void Finalize() override { display_->Finalize(); }

  /// True when a gate was exceeded, or when rows ran but a gated row named
  /// in `filter` did not (the row was renamed and the filter was not).
  bool Failed(const std::string& filter) const {
    bool failed = failed_;
    for (size_t g = 0; g < gates_.size(); ++g) {
      if (running_ && !ran_[g] &&
          filter.find(gates_[g].row) != std::string::npos) {
        std::fprintf(stderr,
                     "gated row %s is named by the filter but did not run\n",
                     gates_[g].row.c_str());
        failed = true;
      }
    }
    return failed;
  }

 private:
  benchmark::BenchmarkReporter* display_;  // owned by the library
  std::vector<TimingGate> gates_;
  std::vector<bool> ran_;
  bool running_ = false;  // false when only listing rows
  bool failed_ = false;
};

/// The main() of every bench binary: runs the rows the flags select, and
/// returns nonzero when the filter matched no row or a gate failed.
inline int RunBenchmarks(int argc, char** argv,
                         std::vector<TimingGate> gates = {}) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  GateReporter reporter(std::move(gates));
  const size_t matched = benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::string filter = benchmark::GetBenchmarkFilter();
  benchmark::Shutdown();
  return matched == 0 || reporter.Failed(filter) ? 1 : 0;
}

}  // namespace tc::bench
