#include "index/digest.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tc::index {

uint32_t DigestSchema::BinOf(int64_t value) const {
  if (hist_bins == 0) return 0;
  if (value < hist_min) return 0;
  int64_t offset = value - hist_min;
  uint64_t bin = static_cast<uint64_t>(offset) /
                 static_cast<uint64_t>(hist_width > 0 ? hist_width : 1);
  if (bin >= hist_bins) return hist_bins - 1;
  return static_cast<uint32_t>(bin);
}

std::vector<uint64_t> DigestSchema::Compute(
    std::span<const DataPoint> points) const {
  std::vector<uint64_t> fields(num_fields());
  ComputeInto(points, fields);
  return fields;
}

void DigestSchema::ComputeInto(std::span<const DataPoint> points,
                               std::span<uint64_t> fields) const {
  assert(fields.size() == num_fields());
  std::fill(fields.begin(), fields.end(), 0);
  for (const DataPoint& p : points) {
    if (with_sum) {
      fields[sum_field()] += static_cast<uint64_t>(p.value);
    }
    if (with_count) {
      fields[count_field()] += 1;
    }
    if (with_sumsq) {
      // Square in the uint64 ring; overflow wraps mod 2^64 just like the
      // HEAC plaintext space.
      uint64_t v = static_cast<uint64_t>(p.value);
      fields[sumsq_field()] += v * v;
    }
    if (with_trend) {
      uint64_t t = static_cast<uint64_t>(TrendTime(p.timestamp_ms));
      uint64_t v = static_cast<uint64_t>(p.value);
      fields[trend_field(0)] += t;
      fields[trend_field(1)] += t * t;
      fields[trend_field(2)] += t * v;
    }
    if (hist_bins > 0) {
      fields[hist_field(BinOf(p.value))] += 1;
    }
  }
}

Result<int64_t> DigestStats::Sum() const {
  if (schema_.sum_field() == DigestSchema::kNone) {
    return FailedPrecondition("schema has no SUM field");
  }
  return static_cast<int64_t>(fields_[schema_.sum_field()]);
}

Result<uint64_t> DigestStats::Count() const {
  if (schema_.count_field() == DigestSchema::kNone) {
    return FailedPrecondition("schema has no COUNT field");
  }
  return fields_[schema_.count_field()];
}

Result<double> DigestStats::Mean() const {
  TC_ASSIGN_OR_RETURN(int64_t sum, Sum());
  TC_ASSIGN_OR_RETURN(uint64_t count, Count());
  if (count == 0) return FailedPrecondition("empty aggregate has no mean");
  return static_cast<double>(sum) / static_cast<double>(count);
}

Result<double> DigestStats::Variance() const {
  if (schema_.sumsq_field() == DigestSchema::kNone) {
    return FailedPrecondition("schema has no SUMSQ field");
  }
  TC_ASSIGN_OR_RETURN(double mean, Mean());
  TC_ASSIGN_OR_RETURN(uint64_t count, Count());
  double sumsq = static_cast<double>(fields_[schema_.sumsq_field()]);
  double var = sumsq / static_cast<double>(count) - mean * mean;
  return var < 0 ? 0 : var;  // numeric guard
}

Result<double> DigestStats::StdDev() const {
  TC_ASSIGN_OR_RETURN(double var, Variance());
  return std::sqrt(var);
}

Result<double> DigestStats::TrendSlope() const {
  if (!schema_.with_trend) {
    return FailedPrecondition("schema has no TREND fields");
  }
  TC_ASSIGN_OR_RETURN(int64_t sum_v, Sum());
  TC_ASSIGN_OR_RETURN(uint64_t count, Count());
  if (count < 2) return FailedPrecondition("trend needs at least two points");
  // Normal equations over the decrypted moments. All sums carry exact
  // two's-complement values as long as the caller sized trend_unit_ms to
  // keep Σt² inside the ring.
  double n = static_cast<double>(count);
  double st = static_cast<double>(
      static_cast<int64_t>(fields_[schema_.trend_field(0)]));
  double stt = static_cast<double>(
      static_cast<int64_t>(fields_[schema_.trend_field(1)]));
  double stv = static_cast<double>(
      static_cast<int64_t>(fields_[schema_.trend_field(2)]));
  double sv = static_cast<double>(sum_v);
  double denom = n * stt - st * st;
  if (denom == 0) {
    return FailedPrecondition("all points share one time coordinate");
  }
  return (n * stv - st * sv) / denom;
}

Result<double> DigestStats::TrendIntercept() const {
  TC_ASSIGN_OR_RETURN(double slope, TrendSlope());
  TC_ASSIGN_OR_RETURN(int64_t sum_v, Sum());
  TC_ASSIGN_OR_RETURN(uint64_t count, Count());
  double n = static_cast<double>(count);
  double st = static_cast<double>(
      static_cast<int64_t>(fields_[schema_.trend_field(0)]));
  return (static_cast<double>(sum_v) - slope * st) / n;
}

Result<uint64_t> DigestStats::Freq(uint32_t bin) const {
  if (bin >= schema_.hist_bins) return OutOfRange("histogram bin out of range");
  return fields_[schema_.hist_field(bin)];
}

Result<int64_t> DigestStats::MinBinLow() const {
  if (schema_.hist_bins == 0) {
    return FailedPrecondition("schema has no histogram");
  }
  for (uint32_t b = 0; b < schema_.hist_bins; ++b) {
    if (fields_[schema_.hist_field(b)] != 0) {
      return schema_.hist_min + static_cast<int64_t>(b) * schema_.hist_width;
    }
  }
  return FailedPrecondition("empty aggregate has no min");
}

Result<int64_t> DigestStats::MaxBinHigh() const {
  if (schema_.hist_bins == 0) {
    return FailedPrecondition("schema has no histogram");
  }
  for (uint32_t b = schema_.hist_bins; b-- > 0;) {
    if (fields_[schema_.hist_field(b)] != 0) {
      return schema_.hist_min + (static_cast<int64_t>(b) + 1) * schema_.hist_width;
    }
  }
  return FailedPrecondition("empty aggregate has no max");
}

Result<int64_t> DigestStats::QuantileBinLow(double q) const {
  if (schema_.hist_bins == 0) {
    return FailedPrecondition("schema has no histogram");
  }
  if (q < 0.0 || q > 1.0) return InvalidArgument("quantile must be in [0,1]");
  uint64_t total = 0;
  for (uint32_t b = 0; b < schema_.hist_bins; ++b) {
    total += fields_[schema_.hist_field(b)];
  }
  if (total == 0) return FailedPrecondition("empty aggregate has no quantile");
  // Rank of the target point (1-based, ceil): the smallest bin whose
  // cumulative count reaches it.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  uint64_t cumulative = 0;
  for (uint32_t b = 0; b < schema_.hist_bins; ++b) {
    cumulative += fields_[schema_.hist_field(b)];
    if (cumulative >= rank) {
      return schema_.hist_min + static_cast<int64_t>(b) * schema_.hist_width;
    }
  }
  return Internal("histogram accounting mismatch");
}

void AddDigests(std::span<uint64_t> a, std::span<const uint64_t> b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) a[i] += b[i];
}

}  // namespace tc::index
