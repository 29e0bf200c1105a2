// Digest schema tests: field layout, computation from points, decoded
// statistics (sum/count/mean/var/min/max/freq), serialization.
#include <gtest/gtest.h>

#include <cmath>

#include "common/bytes.hpp"
#include "index/digest.hpp"
#include "net/codec.hpp"

namespace tc::index {
namespace {

DigestSchema FullSchema() {
  DigestSchema s;
  s.with_sum = s.with_count = s.with_sumsq = true;
  s.hist_bins = 4;
  s.hist_min = 0;
  s.hist_width = 25;  // bins [0,25) [25,50) [50,75) [75,inf clamped)
  return s;
}

std::vector<DataPoint> SamplePoints() {
  return {{0, 10}, {1, 30}, {2, 55}, {3, 80}, {4, 20}};
}

TEST(DigestSchema, FieldLayout) {
  DigestSchema s = FullSchema();
  EXPECT_EQ(s.num_fields(), 3u + 4u);
  EXPECT_EQ(s.sum_field(), 0u);
  EXPECT_EQ(s.count_field(), 1u);
  EXPECT_EQ(s.sumsq_field(), 2u);
  EXPECT_EQ(s.hist_field(0), 3u);
  EXPECT_EQ(s.hist_field(3), 6u);
}

TEST(DigestSchema, LayoutWithoutOptionalFields) {
  DigestSchema s;
  s.with_sum = true;
  s.with_count = false;
  s.with_sumsq = false;
  EXPECT_EQ(s.num_fields(), 1u);
  EXPECT_EQ(s.count_field(), DigestSchema::kNone);
}

TEST(DigestSchema, BinClamping) {
  DigestSchema s = FullSchema();
  EXPECT_EQ(s.BinOf(-5), 0u);    // below range clamps low
  EXPECT_EQ(s.BinOf(0), 0u);
  EXPECT_EQ(s.BinOf(24), 0u);
  EXPECT_EQ(s.BinOf(25), 1u);
  EXPECT_EQ(s.BinOf(99), 3u);
  EXPECT_EQ(s.BinOf(1000), 3u);  // above range clamps high
}

TEST(DigestSchema, ComputeAggregatesPoints) {
  DigestSchema s = FullSchema();
  auto fields = s.Compute(SamplePoints());
  DigestStats stats(s, fields);
  EXPECT_EQ(stats.Sum().value(), 10 + 30 + 55 + 80 + 20);
  EXPECT_EQ(stats.Count().value(), 5u);
  EXPECT_EQ(stats.Freq(0).value(), 2u);  // 10, 20
  EXPECT_EQ(stats.Freq(1).value(), 1u);  // 30
  EXPECT_EQ(stats.Freq(2).value(), 1u);  // 55
  EXPECT_EQ(stats.Freq(3).value(), 1u);  // 80
}

TEST(DigestStats, MeanAndVariance) {
  DigestSchema s = FullSchema();
  std::vector<DataPoint> pts = {{0, 2}, {1, 4}, {2, 6}};
  DigestStats stats(s, s.Compute(pts));
  EXPECT_DOUBLE_EQ(stats.Mean().value(), 4.0);
  // Population variance of {2,4,6} = 8/3.
  EXPECT_NEAR(stats.Variance().value(), 8.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.StdDev().value(), std::sqrt(8.0 / 3.0), 1e-9);
}

TEST(DigestStats, MinMaxViaHistogram) {
  DigestSchema s = FullSchema();
  DigestStats stats(s, s.Compute(SamplePoints()));
  // Min is in bin 0 -> lower bound 0; max in bin 3 -> upper bound 100.
  EXPECT_EQ(stats.MinBinLow().value(), 0);
  EXPECT_EQ(stats.MaxBinHigh().value(), 100);
}

TEST(DigestStats, NegativeValuesSumCorrectly) {
  DigestSchema s;
  s.with_sum = s.with_count = true;
  std::vector<DataPoint> pts = {{0, -10}, {1, 4}};
  DigestStats stats(s, s.Compute(pts));
  EXPECT_EQ(stats.Sum().value(), -6);
}

TEST(DigestStats, EmptyAggregateHasNoMean) {
  DigestSchema s = FullSchema();
  DigestStats stats(s, s.Compute({}));
  EXPECT_EQ(stats.Count().value(), 0u);
  EXPECT_FALSE(stats.Mean().ok());
  EXPECT_FALSE(stats.MinBinLow().ok());
}

TEST(DigestStats, MissingFieldsAreErrors) {
  DigestSchema s;
  s.with_sum = true;
  s.with_count = false;
  std::vector<DataPoint> one = {{0, 1}};
  DigestStats stats(s, s.Compute(one));
  EXPECT_FALSE(stats.Count().ok());
  EXPECT_FALSE(stats.Variance().ok());
  EXPECT_FALSE(stats.Freq(0).ok());
}

TEST(DigestSchema, AddDigestsIsFieldWise) {
  DigestSchema s = FullSchema();
  std::vector<DataPoint> pa = {{0, 10}}, pb = {{1, 20}};
  auto a = s.Compute(pa);
  auto b = s.Compute(pb);
  AddDigests(a, b);
  DigestStats stats(s, a);
  EXPECT_EQ(stats.Sum().value(), 30);
  EXPECT_EQ(stats.Count().value(), 2u);
}

TEST(DigestStats, QuantileBinsFromHistogram) {
  // 100 points spread 25/25/25/25 across the four bins: the quartile
  // boundaries land exactly on the bin edges.
  DigestSchema s = FullSchema();
  std::vector<DataPoint> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back({i, (i % 4) * 25 + 5});  // 5, 30, 55, 80 round-robin
  }
  DigestStats stats(s, s.Compute(points));
  EXPECT_EQ(stats.QuantileBinLow(0.10).value(), 0);
  EXPECT_EQ(stats.QuantileBinLow(0.25).value(), 0);    // 25th point: bin 0
  EXPECT_EQ(stats.QuantileBinLow(0.26).value(), 25);
  EXPECT_EQ(stats.QuantileBinLow(0.50).value(), 25);
  EXPECT_EQ(stats.QuantileBinLow(0.75).value(), 50);
  EXPECT_EQ(stats.QuantileBinLow(0.95).value(), 75);
  EXPECT_EQ(stats.QuantileBinLow(1.0).value(), 75);
  // q = 0 clamps to the first point.
  EXPECT_EQ(stats.QuantileBinLow(0.0).value(), 0);
}

TEST(DigestStats, QuantileSkewedDistribution) {
  // P99-style tail query: 99 fast points, 1 slow one in the top bin.
  DigestSchema s = FullSchema();
  std::vector<DataPoint> points;
  for (int i = 0; i < 99; ++i) points.push_back({i, 10});
  points.push_back({99, 90});
  DigestStats stats(s, s.Compute(points));
  EXPECT_EQ(stats.QuantileBinLow(0.50).value(), 0);
  EXPECT_EQ(stats.QuantileBinLow(0.99).value(), 0);   // 99th point: bin 0
  EXPECT_EQ(stats.QuantileBinLow(0.995).value(), 75); // the tail
}

TEST(DigestStats, QuantileErrors) {
  DigestSchema s = FullSchema();
  DigestStats empty(s, std::vector<uint64_t>(s.num_fields(), 0));
  EXPECT_FALSE(empty.QuantileBinLow(0.5).ok());  // no points
  std::vector<DataPoint> one = {{0, 10}};
  DigestStats stats(s, s.Compute(one));
  EXPECT_FALSE(stats.QuantileBinLow(-0.1).ok());
  EXPECT_FALSE(stats.QuantileBinLow(1.1).ok());
  DigestSchema no_hist;
  DigestStats none(no_hist, no_hist.Compute(one));
  EXPECT_FALSE(none.QuantileBinLow(0.5).ok());
}

TEST(DigestSchema, EncodeRoundTrip) {
  DigestSchema s = FullSchema();
  auto back = net::codec::Decode<DigestSchema>(net::codec::Encode(s));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
}

TEST(DigestSchema, DecodeTruncatedFails) {
  Bytes buf = net::codec::Encode(FullSchema());
  buf.resize(buf.size() - 1);
  EXPECT_FALSE(net::codec::Decode<DigestSchema>(buf).ok());
}

TEST(DigestSchema, FlagBytesOtherThanZeroOrOneAreRejected) {
  Bytes buf = net::codec::Encode(FullSchema());
  buf[0] = 2;  // with_sum
  EXPECT_EQ(net::codec::Decode<DigestSchema>(buf).status().code(),
            StatusCode::kInvalidArgument);
}

/// A record carrying one schema the way a stream config does.
struct SchemaRecord {
  DigestSchema schema;

  static void Visit(auto& m, auto& v) { v(net::SchemaBlob(m.schema)); }
};

TEST(DigestSchema, BytesArePinned) {
  // A varint blob length, then four 0/1 operator flags, trend t0 and unit
  // (i64), histogram bins (u32), minimum and width (i64), little endian.
  DigestSchema s;
  s.with_sum = true;
  s.with_count = false;
  s.with_sumsq = true;
  s.with_trend = true;
  s.trend_t0 = 1000;
  s.trend_unit_ms = 60'000;
  s.hist_bins = 4;
  s.hist_min = -50;
  s.hist_width = 25;
  const std::string blob =
      "01000101" "e803000000000000" "60ea000000000000" "04000000"
      "ceffffffffffffff" "1900000000000000";
  EXPECT_EQ(ToHex(net::codec::Encode(SchemaRecord{s})), "28" + blob);
  auto back = net::codec::Decode<SchemaRecord>(FromHex("28" + blob).value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->schema, s);

  for (const std::string& bad : {
           "28" + blob.substr(0, blob.size() - 2),  // truncated record
           "27" + blob.substr(0, blob.size() - 2),  // truncated schema
           "ffffffff0f" + blob,                     // length beyond input
       }) {
    EXPECT_EQ(net::codec::Decode<SchemaRecord>(FromHex(bad).value())
                  .status()
                  .code(),
              StatusCode::kDataLoss)
        << bad;
  }
}

}  // namespace
}  // namespace tc::index
