// Trend-digest extension tests: the Σt / Σt² / Σt·v moments must aggregate
// across chunks like any digest field (HEAC-encrypted, telescoping keys)
// and the client-side least-squares fit must recover known slopes — the
// "private training of linear models" hook of §4.5.
#include <gtest/gtest.h>

#include <cmath>

#include "client/owner.hpp"
#include "index/digest.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"

namespace tc {
namespace {

using client::OwnerClient;

constexpr DurationMs kDelta = 10 * kSecond;

index::DigestSchema TrendSchema() {
  index::DigestSchema s;
  s.with_sum = true;
  s.with_count = true;
  s.with_trend = true;
  s.trend_t0 = 0;
  s.trend_unit_ms = kSecond;  // seconds keep the test's Σt² tiny
  return s;
}

TEST(TrendSchema, FieldLayoutAndCount) {
  auto s = TrendSchema();
  EXPECT_EQ(s.num_fields(), 5u);  // sum, count, Σt, Σt², Σt·v
  EXPECT_EQ(s.sum_field(), 0u);
  EXPECT_EQ(s.count_field(), 1u);
  EXPECT_EQ(s.trend_field(0), 2u);
  EXPECT_EQ(s.trend_field(2), 4u);
  s.hist_bins = 3;
  EXPECT_EQ(s.num_fields(), 8u);
  EXPECT_EQ(s.hist_field(0), 5u);  // histogram sits after the trend block
}

TEST(TrendSchema, EncodeRoundTripsTrendFields) {
  auto s = TrendSchema();
  s.trend_t0 = 12345;
  s.trend_unit_ms = 30'000;
  auto back = net::codec::Decode<index::DigestSchema>(net::codec::Encode(s));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
}

TEST(TrendStats, RecoversExactLinearSeries) {
  // v = 3t + 7 sampled at t = 0..9 s: slope 3, intercept 7, exactly.
  auto schema = TrendSchema();
  std::vector<index::DataPoint> points;
  for (int64_t t = 0; t < 10; ++t) {
    points.push_back({t * kSecond, 3 * t + 7});
  }
  index::DigestStats stats(schema, schema.Compute(points));
  EXPECT_NEAR(stats.TrendSlope().value(), 3.0, 1e-9);
  EXPECT_NEAR(stats.TrendIntercept().value(), 7.0, 1e-9);
}

TEST(TrendStats, NegativeSlopeAndNegativeValues) {
  auto schema = TrendSchema();
  std::vector<index::DataPoint> points;
  for (int64_t t = 0; t < 20; ++t) {
    points.push_back({t * kSecond, 100 - 5 * t});  // dips below zero at t>20
  }
  index::DigestStats stats(schema, schema.Compute(points));
  EXPECT_NEAR(stats.TrendSlope().value(), -5.0, 1e-9);
  EXPECT_NEAR(stats.TrendIntercept().value(), 100.0, 1e-9);
}

TEST(TrendStats, NoisySeriesGivesLeastSquaresFit) {
  // Alternating ±1 noise around v = 2t + 10; the fit must land near the
  // true line (exact for symmetric noise over an even count).
  auto schema = TrendSchema();
  std::vector<index::DataPoint> points;
  for (int64_t t = 0; t < 40; ++t) {
    int64_t noise = (t % 2 == 0) ? 1 : -1;
    points.push_back({t * kSecond, 2 * t + 10 + noise});
  }
  index::DigestStats stats(schema, schema.Compute(points));
  EXPECT_NEAR(stats.TrendSlope().value(), 2.0, 0.01);
  EXPECT_NEAR(stats.TrendIntercept().value(), 10.0, 0.2);
}

TEST(TrendStats, DegenerateCasesFailCleanly) {
  auto schema = TrendSchema();
  // One point: no slope.
  index::DigestStats one(schema,
                         schema.Compute({{{0, 5}}}));
  EXPECT_FALSE(one.TrendSlope().ok());
  // Two points at the same time coordinate: singular system.
  std::vector<index::DataPoint> same_t = {{100, 5}, {200, 9}};  // both 0 s
  auto coarse = schema;
  coarse.trend_unit_ms = kMinute;  // both map to t=0
  index::DigestStats singular(coarse, coarse.Compute(same_t));
  EXPECT_FALSE(singular.TrendSlope().ok());
  // Schema without trend fields.
  index::DigestSchema plain;
  index::DigestStats none(plain, plain.Compute(same_t));
  EXPECT_FALSE(none.TrendSlope().ok());
}

TEST(TrendE2e, EncryptedTrendQueryAcrossChunks) {
  // The moments ride in the encrypted digest through ingest, server-side
  // aggregation, and outer-key decryption — end to end, v = 4t + 50 over
  // 12 chunks must come back as slope 4 (per second).
  auto kv = std::make_shared<store::MemKvStore>();
  auto server = std::make_shared<server::ServerEngine>(kv);
  auto transport = std::make_shared<net::InProcTransport>(server);
  OwnerClient owner(transport);

  net::StreamConfig config;
  config.name = "trend/stream";
  config.t0 = 0;
  config.delta_ms = kDelta;
  config.schema = TrendSchema();
  config.cipher = net::CipherKind::kHeac;
  config.fanout = 4;
  auto uuid = owner.CreateStream(config);
  ASSERT_TRUE(uuid.ok());

  for (uint64_t c = 0; c < 12; ++c) {
    for (int i = 0; i < 10; ++i) {
      Timestamp ts = static_cast<Timestamp>(c * kDelta + i * 1000);
      int64_t t_sec = ts / kSecond;
      ASSERT_TRUE(owner.InsertRecord(*uuid, {ts, 4 * t_sec + 50}).ok());
    }
  }
  ASSERT_TRUE(owner.Flush(*uuid).ok());

  auto result = owner.GetStatRange(*uuid, {0, 12 * kDelta});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->stats.TrendSlope().value(), 4.0, 1e-9);
  EXPECT_NEAR(result->stats.TrendIntercept().value(), 50.0, 1e-6);

  // A mid-stream window fits the same global line (t is absolute).
  auto window = owner.GetStatRange(*uuid, {4 * kDelta, 8 * kDelta});
  ASSERT_TRUE(window.ok());
  EXPECT_NEAR(window->stats.TrendSlope().value(), 4.0, 1e-9);
  EXPECT_NEAR(window->stats.TrendIntercept().value(), 50.0, 1e-6);
}

}  // namespace
}  // namespace tc
