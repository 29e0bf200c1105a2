// Chunk digests (§4.1, §4.5): per-chunk statistical summaries whose
// aggregation answers TimeCrypt's statistical queries.
//
// A digest is a flat vector of uint64 fields described by a DigestSchema:
//   SUM    — sum of values (int64 carried in the uint64 ring, so negatives
//            work through two's complement; mod-2^64 arithmetic matches the
//            HEAC plaintext space exactly)
//   COUNT  — number of points
//   SUMSQ  — sum of squared values (for VAR/STDEV)
//   HIST   — fixed-width bin counts (for MIN/MAX/FREQ, §4.5: "We compute
//            MIN/MAX values via the HISTOGRAM function")
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "net/codec.hpp"

namespace tc::index {

/// One raw measurement. Values are int64; applications scale floats to a
/// fixed precision (e.g. milli-units) as the paper's integer encoding does.
struct DataPoint {
  int64_t timestamp_ms = 0;
  int64_t value = 0;

  friend bool operator==(const DataPoint&, const DataPoint&) = default;
};

/// Which statistics a stream's digest carries (pre-configured per stream,
/// §4.1: "The content of a digest is pre-configured based on the statistical
/// queries to be supported per stream").
struct DigestSchema {
  bool with_sum = true;
  bool with_count = true;
  bool with_sumsq = false;
  // Trend extension (§4.5: the digest vector "can be extended with further
  // aggregation-based functions, e.g. ... private training of linear
  // machine learning models"): three extra moments — Σt, Σt², Σt·v — enable
  // least-squares value-vs-time fits over any encrypted range. Time enters
  // as (timestamp − t0) / trend_unit_ms, so pick the unit coarse enough
  // that Σt² stays within the 2^64 ring over the ranges you query.
  bool with_trend = false;
  int64_t trend_t0 = 0;
  int64_t trend_unit_ms = 60'000;  // default: minutes
  // Histogram: `hist_bins` fixed-width bins starting at hist_min; values
  // outside clamp into the edge bins. 0 bins = no histogram.
  uint32_t hist_bins = 0;
  int64_t hist_min = 0;
  int64_t hist_width = 1;

  size_t num_fields() const {
    return (with_sum ? 1 : 0) + (with_count ? 1 : 0) + (with_sumsq ? 1 : 0) +
           (with_trend ? 3 : 0) + hist_bins;
  }

  /// Field offsets within the digest vector (kNone when absent).
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t sum_field() const { return with_sum ? 0 : kNone; }
  size_t count_field() const {
    return with_count ? (with_sum ? 1 : 0) : kNone;
  }
  size_t sumsq_field() const {
    if (!with_sumsq) return kNone;
    return (with_sum ? 1 : 0) + (with_count ? 1 : 0);
  }
  /// Trend moments: component 0 = Σt, 1 = Σt², 2 = Σt·v.
  size_t trend_field(uint32_t component) const {
    if (!with_trend) return kNone;
    return (with_sum ? 1 : 0) + (with_count ? 1 : 0) + (with_sumsq ? 1 : 0) +
           component;
  }
  size_t hist_field(uint32_t bin) const {
    return (with_sum ? 1 : 0) + (with_count ? 1 : 0) + (with_sumsq ? 1 : 0) +
           (with_trend ? 3 : 0) + bin;
  }

  /// A point's time coordinate in trend units.
  int64_t TrendTime(int64_t timestamp_ms) const {
    return (timestamp_ms - trend_t0) / (trend_unit_ms > 0 ? trend_unit_ms : 1);
  }

  /// Bin index a value falls into (clamped).
  uint32_t BinOf(int64_t value) const;

  /// Compute the digest fields of a batch of points.
  std::vector<uint64_t> Compute(std::span<const DataPoint> points) const;
  /// The same into `fields`, num_fields() long, reusing its storage.
  void ComputeInto(std::span<const DataPoint> points,
                   std::span<uint64_t> fields) const;

  /// The stored and wire layout, carried inside a stream config as
  /// net::SchemaBlob.
  static void Visit(auto& m, auto& v) {
    v(net::Flag(m.with_sum), net::Flag(m.with_count), net::Flag(m.with_sumsq),
      net::Flag(m.with_trend), m.trend_t0, m.trend_unit_ms, m.hist_bins,
      m.hist_min, m.hist_width);
  }

  friend bool operator==(const DigestSchema&, const DigestSchema&) = default;
};

/// Decoded view over aggregated plaintext digest fields: turns raw field
/// vectors into the paper's query results (SUM, COUNT, MEAN, VAR, STDEV,
/// HISTOGRAM, MIN/MAX, FREQ).
class DigestStats {
 public:
  DigestStats(const DigestSchema& schema, std::vector<uint64_t> fields)
      : schema_(schema), fields_(std::move(fields)) {}

  Result<int64_t> Sum() const;
  Result<uint64_t> Count() const;
  Result<double> Mean() const;
  /// Population variance via sumsq - mean^2.
  Result<double> Variance() const;
  Result<double> StdDev() const;
  /// Least-squares fit value ≈ slope·t + intercept over the aggregate (t in
  /// trend units). Requires with_trend, with_sum, and with_count.
  Result<double> TrendSlope() const;
  Result<double> TrendIntercept() const;
  /// Count in histogram bin.
  Result<uint64_t> Freq(uint32_t bin) const;
  /// Lower bound of the lowest/highest non-empty bin (paper's MIN/MAX: bin
  /// resolution, plus the frequency within that bin for free).
  Result<int64_t> MinBinLow() const;
  Result<int64_t> MaxBinHigh() const;
  /// Quantile estimate at bin resolution: the lower bound of the bin
  /// containing the q-th fraction of points (q in [0, 1]); e.g. q = 0.95
  /// answers "P95 latency" style queries from the same encrypted histogram
  /// that serves MIN/MAX — no extra digest fields needed.
  Result<int64_t> QuantileBinLow(double q) const;

  const std::vector<uint64_t>& fields() const { return fields_; }

 private:
  DigestSchema schema_;
  std::vector<uint64_t> fields_;
};

/// Add digest `b` into `a` field-wise (plaintext aggregation).
void AddDigests(std::span<uint64_t> a, std::span<const uint64_t> b);

}  // namespace tc::index
