// Shared helpers for the benchmark binaries: index fixtures per cipher
// backend, scaled-down size defaults for single-core runs, and table
// printing utilities. Every binary regenerates one table/figure of the
// paper; README.md's benchmark matrix lists which.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "crypto/rand.hpp"
#include "index/agg_tree.hpp"
#include "store/mem_kv.hpp"

namespace tc::bench {

/// Wall-clock timer returning seconds.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Micros() const { return Seconds() * 1e6; }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Time `op()` n times, return average microseconds.
inline double AvgMicros(size_t n, const std::function<void()>& op) {
  WallTimer t;
  for (size_t i = 0; i < n; ++i) op();
  return t.Micros() / static_cast<double>(n);
}

/// Pretty duration: picks ns/µs/ms/s.
inline std::string FmtMicros(double us) {
  char buf[64];
  if (us < 0.001) {
    std::snprintf(buf, sizeof(buf), "%.1fns", us * 1000.0);
  } else if (us < 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2fus", us);
  } else if (us < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", us / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", us / 1e6);
  }
  return buf;
}

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

/// Server-side view of where the benchmark's requests spent their time:
/// renders the tc_server_request_seconds (per message type) and
/// tc_server_stage_seconds (per pipeline stage) histograms the engines
/// recorded while the bench drove them. Prints nothing when no instrumented
/// path ran.
inline void PrintStageBreakdown() {
  auto samples = metrics::MetricsRegistry::Instance().Collect();
  bool header = false;
  for (const auto& sample : samples) {
    if (sample.kind != metrics::MetricSample::Kind::kHistogram) continue;
    if (sample.name != "tc_server_request_seconds" &&
        sample.name != "tc_server_stage_seconds") {
      continue;
    }
    if (sample.hist.count == 0) continue;
    if (!header) {
      std::printf(
          "== server-side breakdown (from the metrics registry) ==\n"
          "%-44s %10s %10s %10s %10s %10s\n",
          "histogram", "count", "p50", "p95", "p99", "max");
      header = true;
    }
    std::string row = sample.name + "{" + sample.labels + "}";
    std::printf("%-44s %10llu %10s %10s %10s %10s\n", row.c_str(),
                static_cast<unsigned long long>(sample.hist.count),
                FmtMicros(static_cast<double>(sample.hist.p50)).c_str(),
                FmtMicros(static_cast<double>(sample.hist.p95)).c_str(),
                FmtMicros(static_cast<double>(sample.hist.p99)).c_str(),
                FmtMicros(static_cast<double>(sample.hist.max)).c_str());
  }
  if (header) std::printf("\n");
}

}  // namespace tc::bench
