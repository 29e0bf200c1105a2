// Chunk pipeline tests: delta+varint+zlib compression round trips (int64
// extremes included), the raw-body floor under kMinDeflateBody, deflate
// output against compress2 (one thread and four at once), the inflate size
// limit, the pinned bytes of CompressPoints, builder window enforcement,
// seal/open with chunk binding, the pinned chunk AAD bytes, and a payload
// sealed by an earlier build.
#include <gtest/gtest.h>
#include <zlib.h>

#include <limits>
#include <thread>

#include "chunk/chunk.hpp"
#include "crypto/rand.hpp"
#include "crypto/sha256.hpp"
#include "tests/key_testing.hpp"

namespace tc::chunk {
namespace {

using index::DataPoint;

std::vector<DataPoint> RegularSeries(size_t n, int64_t t0 = 0,
                                     int64_t dt = 20) {
  std::vector<DataPoint> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({t0 + static_cast<int64_t>(i) * dt,
                   static_cast<int64_t>(600 + (i % 7))});
  }
  return pts;
}

class CompressionTest : public ::testing::TestWithParam<Compression> {};

TEST_P(CompressionTest, RoundTrip) {
  auto pts = RegularSeries(500);
  auto compressed = CompressPoints(pts, GetParam());
  ASSERT_TRUE(compressed.ok());
  auto back = DecompressPoints(*compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pts);
}

TEST_P(CompressionTest, EmptyBatch) {
  auto compressed = CompressPoints({}, GetParam());
  ASSERT_TRUE(compressed.ok());
  auto back = DecompressPoints(*compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST_P(CompressionTest, NegativeValuesAndTimestamps) {
  std::vector<DataPoint> pts = {{-100, -5}, {-50, 3}, {0, -1000000}, {7, 0}};
  auto compressed = CompressPoints(pts, GetParam());
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(*DecompressPoints(*compressed), pts);
}

TEST_P(CompressionTest, AlternatingInt64ExtremesRoundTrip) {
  // Every delta in both columns wraps around 2^64. 40 points make a body
  // long enough for kZlib to try deflate.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<DataPoint> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back(i % 2 == 0 ? DataPoint{kMin, kMax} : DataPoint{kMax, kMin});
  }
  auto compressed = CompressPoints(pts, GetParam());
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(*DecompressPoints(*compressed), pts);
}

INSTANTIATE_TEST_SUITE_P(Codecs, CompressionTest,
                         ::testing::Values(Compression::kNone,
                                           Compression::kZlib),
                         [](const auto& info) {
                           switch (info.param) {
                             case Compression::kNone:
                               return "None";
                             case Compression::kZlib:
                               return "Zlib";
                           }
                           return "Unknown";
                         });

TEST(Compression, UnknownCodecIsRejectedBothWays) {
  // Byte 2 was a gorilla codec that no writer ever selected.
  const auto unknown = static_cast<Compression>(2);
  EXPECT_EQ(CompressPoints(RegularSeries(10), unknown).status().code(),
            StatusCode::kInvalidArgument);
  auto payload = CompressPoints(RegularSeries(10), Compression::kNone);
  ASSERT_TRUE(payload.ok());
  (*payload)[1] = 2;
  auto decoded = DecompressPoints(*payload);
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded.status().message(), "unknown chunk compression codec");
}

TEST(Compression, RegularSeriesCompressesWell) {
  // 500 regular samples: delta encoding should collapse each point to a few
  // bytes, far below the 16-byte raw representation.
  auto pts = RegularSeries(500);
  auto compressed = CompressPoints(pts, Compression::kZlib);
  ASSERT_TRUE(compressed.ok());
  EXPECT_LT(compressed->size(), pts.size() * 16 / 4);
}

TEST(Compression, RandomDataFallsBackToUncompressed) {
  // High-entropy values: zlib cannot help; codec must keep the smaller
  // representation and still round-trip.
  crypto::DeterministicRng rng(3);
  std::vector<DataPoint> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({static_cast<int64_t>(rng.NextU64() % 1000000),
                   static_cast<int64_t>(rng.NextU64())});
  }
  std::sort(pts.begin(), pts.end(),
            [](auto& a, auto& b) { return a.timestamp_ms < b.timestamp_ms; });
  auto compressed = CompressPoints(pts, Compression::kZlib);
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(*DecompressPoints(*compressed), pts);
}

TEST(Compression, CorruptPayloadRejected) {
  auto compressed = CompressPoints(RegularSeries(10), Compression::kZlib);
  (*compressed)[0] = 0xee;  // bad version byte
  EXPECT_FALSE(DecompressPoints(*compressed).ok());
  EXPECT_FALSE(DecompressPoints(Bytes{}).ok());
}

TEST(ZlibRaw, RoundTrip) {
  Bytes data = ToBytes(std::string(10000, 'a'));
  auto deflated = ZlibDeflate(data);
  ASSERT_TRUE(deflated.ok());
  EXPECT_LT(deflated->size(), data.size() / 10);
  auto inflated = ZlibInflate(*deflated);
  ASSERT_TRUE(inflated.ok());
  EXPECT_EQ(*inflated, data);
}

Bytes Compress2(BytesView data) {
  uLongf len = compressBound(static_cast<uLong>(data.size()));
  Bytes out(len);
  EXPECT_EQ(compress2(out.data(), &len, data.data(),
                      static_cast<uLong>(data.size()), Z_DEFAULT_COMPRESSION),
            Z_OK);
  out.resize(len);
  return out;
}

// Deflate inputs: empty, tiny, chunk-body sized, and large enough for
// several deflate blocks, plus random bytes that do not compress.
std::vector<Bytes> DeflateInputs() {
  std::vector<Bytes> inputs;
  for (size_t size : {0, 1, 30, 1000, 70'000}) {
    Bytes b(size);
    for (size_t i = 0; i < size; ++i) {
      b[i] = static_cast<uint8_t>((i * 31) % 97 + (i / 500) % 5);
    }
    inputs.push_back(std::move(b));
  }
  crypto::DeterministicRng rng(7);
  for (size_t size : {64, 4096, 70'000}) {
    Bytes b(size);
    rng.Fill(b);
    inputs.push_back(std::move(b));
  }
  return inputs;
}

TEST(ZlibRaw, DeflateMatchesCompress2AndRoundTrips) {
  const std::vector<Bytes> inputs = DeflateInputs();
  // Twice over on one thread: the reused deflate state must reset fully
  // between calls, including after a large input.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Bytes& in : inputs) {
      auto deflated = ZlibDeflate(in);
      ASSERT_TRUE(deflated.ok());
      EXPECT_EQ(*deflated, Compress2(in)) << "size " << in.size();
      auto inflated = ZlibInflate(*deflated);
      ASSERT_TRUE(inflated.ok()) << inflated.status().ToString();
      EXPECT_EQ(*inflated, in);
    }
  }
}

TEST(ZlibRaw, DeflateFromConcurrentThreads) {
  const std::vector<Bytes> inputs = DeflateInputs();
  std::vector<Bytes> expected;
  for (const Bytes& in : inputs) expected.push_back(Compress2(in));
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (size_t i = 0; i < inputs.size(); ++i) {
          // Each thread starts at a different input.
          size_t k = (i + t) % inputs.size();
          auto deflated = ZlibDeflate(inputs[k]);
          bool ok = deflated.ok() && *deflated == expected[k];
          if (ok) {
            auto inflated = ZlibInflate(*deflated);
            ok = inflated.ok() && *inflated == inputs[k];
          }
          if (!ok) ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < mismatches.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(ZlibRaw, InflateAcceptsExactlyMaxOutput) {
  // 300 zero bytes deflate to a few bytes, so the output buffer must grow
  // to reach the limit exactly.
  for (size_t limit : {0, 1, 255, 256, 300, 1002, 5000}) {
    auto at_limit = ZlibDeflate(Bytes(limit, 0));
    ASSERT_TRUE(at_limit.ok());
    auto inflated = ZlibInflate(*at_limit, limit);
    ASSERT_TRUE(inflated.ok()) << "limit " << limit << ": "
                               << inflated.status().ToString();
    EXPECT_EQ(*inflated, Bytes(limit, 0));

    auto over = ZlibDeflate(Bytes(limit + 1, 0));
    ASSERT_TRUE(over.ok());
    EXPECT_EQ(ZlibInflate(*over, limit).status().code(), StatusCode::kDataLoss)
        << "limit " << limit;
  }
}

TEST(ZlibRaw, InflateRejectsTruncatedAndCorruptStreams) {
  Bytes data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  auto deflated = ZlibDeflate(data);
  ASSERT_TRUE(deflated.ok());
  for (size_t cut : {size_t{0}, size_t{1}, deflated->size() / 2,
                     deflated->size() - 1}) {
    EXPECT_EQ(ZlibInflate(BytesView(deflated->data(), cut)).status().code(),
              StatusCode::kDataLoss)
        << "cut at " << cut;
  }
  Bytes corrupt = *deflated;
  corrupt[corrupt.size() - 1] ^= 0x01;  // Adler-32 trailer
  EXPECT_EQ(ZlibInflate(corrupt).status().code(), StatusCode::kDataLoss);
}

// The delta+varint body CompressPoints stores for kNone.
Bytes RawBody(std::span<const DataPoint> pts) {
  auto raw = CompressPoints(pts, Compression::kNone);
  EXPECT_TRUE(raw.ok());
  return Bytes(raw->begin() + 2, raw->end());
}

// One value at a 20 ms cadence: two body bytes per point after the first.
std::vector<DataPoint> ConstantSeries(size_t n, int64_t t0) {
  std::vector<DataPoint> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({t0 + static_cast<int64_t>(i) * 20, 600});
  }
  return pts;
}

TEST(Compression, ShortBodyIsStoredRawEvenWhenZlibWouldShrinkIt) {
  // A 1 Hz sensor stuck on one value: zlib would save 14 of the body's
  // 32 bytes, but a body under kMinDeflateBody is stored raw by design.
  std::vector<DataPoint> pts;
  for (int64_t i = 0; i < 10; ++i) pts.push_back({1'000'000 + i * 1000, 42});
  const Bytes body = RawBody(pts);
  ASSERT_EQ(body.size(), 32u);
  EXPECT_LT(Compress2(body).size(), body.size());

  auto compressed = CompressPoints(pts, Compression::kZlib);
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ((*compressed)[1], static_cast<uint8_t>(Compression::kNone));
  EXPECT_EQ(Bytes(compressed->begin() + 2, compressed->end()), body);
  EXPECT_EQ(*DecompressPoints(*compressed), pts);
}

TEST(Compression, DeflateStartsAtExactlyMinDeflateBody) {
  // 31 points from t0 = 0 make a 64-byte body; 30 points from t0 = 100,
  // whose first timestamp takes a second varint byte, make a 63-byte one.
  // zlib shrinks both.
  const auto at = ConstantSeries(31, 0);
  const Bytes at_body = RawBody(at);
  ASSERT_EQ(at_body.size(), kMinDeflateBody);
  auto deflated = CompressPoints(at, Compression::kZlib);
  ASSERT_TRUE(deflated.ok());
  EXPECT_EQ((*deflated)[1], static_cast<uint8_t>(Compression::kZlib));
  EXPECT_EQ(Bytes(deflated->begin() + 2, deflated->end()), Compress2(at_body));
  EXPECT_EQ(*DecompressPoints(*deflated), at);

  const auto under = ConstantSeries(30, 100);
  const Bytes under_body = RawBody(under);
  ASSERT_EQ(under_body.size(), kMinDeflateBody - 1);
  EXPECT_LT(Compress2(under_body).size(), under_body.size());
  auto raw = CompressPoints(under, Compression::kZlib);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)[1], static_cast<uint8_t>(Compression::kNone));
  EXPECT_EQ(Bytes(raw->begin() + 2, raw->end()), under_body);
  EXPECT_EQ(*DecompressPoints(*raw), under);
}

TEST(Compression, BytesArePinned) {
  // Every stored payload opens to these bytes: format byte, codec byte,
  // then the delta+varint body, raw or deflated. Short bodies are pinned
  // as hex, long ones by SHA-256.
  auto hex = [](std::span<const DataPoint> pts, Compression codec) {
    auto out = CompressPoints(pts, codec);
    EXPECT_TRUE(out.ok());
    return out.ok() ? ToHex(*out) : std::string();
  };
  auto sha = [](std::span<const DataPoint> pts, Compression codec) {
    auto out = CompressPoints(pts, codec);
    EXPECT_TRUE(out.ok());
    return out.ok() ? ToHex(crypto::Sha256(*out)) : std::string();
  };
  EXPECT_EQ(hex({}, Compression::kNone), "010000");
  EXPECT_EQ(hex({}, Compression::kZlib), "010000");
  const std::vector<DataPoint> one = {{1'700'000'000'000, -42}};
  EXPECT_EQ(hex(one, Compression::kZlib), "01000180a0abfef96253");
  const std::string ten =
      "01000a904eb009d00f02d00f02d00f02d00f02d00f02d00f02d00f0bd00f02d00f02";
  EXPECT_EQ(hex(RegularSeries(10, 5'000, 1000), Compression::kNone), ten);
  EXPECT_EQ(hex(RegularSeries(10, 5'000, 1000), Compression::kZlib), ten);
  // Bodies of kMinDeflateBody - 1 and kMinDeflateBody bytes.
  EXPECT_EQ(hex(ConstantSeries(30, 100), Compression::kZlib),
            "01001ec801b009280028002800280028002800280028002800280028"
            "002800280028002800280028002800280028002800280028002800280028"
            "00280028002800");
  EXPECT_EQ(hex(ConstantSeries(31, 0), Compression::kZlib),
            "0101789c9367d8c0a9c1403e0400c6150589");
  EXPECT_EQ(sha(RegularSeries(500), Compression::kZlib),
            "eb17a1141221011d91d3623d52a67f1496025835ad43420eb8b5a83ca1667508");
  EXPECT_EQ(sha(RegularSeries(500), Compression::kNone),
            "641102a2d1c84d4922d72801f491eaf8aacc9468717c44df28511926b6085e04");
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<DataPoint> extremes = {
      {kMin, kMax}, {kMax, kMin}, {kMax, kMax}, {0, kMin}, {kMin, 0}};
  EXPECT_EQ(hex(extremes, Compression::kZlib),
            "010005ffffffffffffffffff01feffffffffffffffff0101020001fdffffffff"
            "ffffffff0102ffffffffffffffffff01ffffffffffffffffff01");
  std::vector<DataPoint> alternating;
  for (int i = 0; i < 40; ++i) {
    alternating.push_back(i % 2 == 0 ? DataPoint{kMin, kMax}
                                     : DataPoint{kMax, kMin});
  }
  EXPECT_EQ(sha(alternating, Compression::kZlib),
            "56ba5fbd23efeb334280e6c30e9feac7db064ec1170ac9025c159354d2139b55");
}

TEST(ChunkBuilder, EnforcesWindow) {
  ChunkBuilder b(0, {0, 10'000}, Compression::kZlib);
  EXPECT_TRUE(b.Add({0, 1}).ok());
  EXPECT_TRUE(b.Add({9'999, 2}).ok());
  EXPECT_FALSE(b.Add({10'000, 3}).ok());  // next window
  EXPECT_FALSE(b.Add({-1, 4}).ok());
  EXPECT_EQ(b.num_points(), 2u);
}

TEST(ChunkBuilder, EnforcesTimeOrder) {
  ChunkBuilder b(0, {0, 10'000}, Compression::kZlib);
  EXPECT_TRUE(b.Add({100, 1}).ok());
  EXPECT_FALSE(b.Add({50, 2}).ok());
  EXPECT_TRUE(b.Add({100, 3}).ok());  // equal timestamps allowed
}

TEST(ChunkBuilder, SealOpenRoundTrip) {
  ChunkBuilder b(7, {70'000, 80'000}, Compression::kZlib);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(b.Add({70'000 + i * 100, 500 + i}).ok());
  }
  crypto::Key128 key = crypto::RandomKey128();
  auto sealed = b.SealPayload(key);
  ASSERT_TRUE(sealed.ok());
  auto points = OpenPayload(key, 7, *sealed);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 100u);
  EXPECT_EQ((*points)[0].value, 500);
}

TEST(ChunkBuilder, ChunkBindingPreventsTransplant) {
  ChunkBuilder b(7, {70'000, 80'000}, Compression::kZlib);
  ASSERT_TRUE(b.Add({70'001, 42}).ok());
  crypto::Key128 key = crypto::RandomKey128();
  auto sealed = b.SealPayload(key);
  // Replaying chunk 7's payload as chunk 8 must fail authentication.
  EXPECT_FALSE(OpenPayload(key, 8, *sealed).ok());
}

TEST(ChunkAad, BytesArePinned) {
  // Every stored payload is authenticated under these bytes: varint 8,
  // "tc-chunk", then the chunk index as u64 little-endian.
  EXPECT_EQ(ToHex(ChunkAad(0)), "0874632d6368756e6b0000000000000000");
  EXPECT_EQ(ToHex(ChunkAad(0x0102030405060708ULL)),
            "0874632d6368756e6b0807060504030201");
}

TEST(ChunkBuilder, OpensPinnedStoredPayload) {
  // A stored payload pinned as bytes (chunk 5, ten points, kZlib, sealed
  // under OpenSSL's GCM when the portable side still ran it): every payload
  // already stored must keep opening.
  crypto::Key128 key;
  for (size_t i = 0; i < sizeof(key); ++i) {
    key.secret_bytes()[i] = static_cast<uint8_t>(0x10 + i);
  }
  const Bytes sealed =
      FromHex(
          "11b6e45f5884a7c2bfed0188db83e9c5d224662dd7deeebc267c613c8b1e7487"
          "b4b1e45878ae2bdbd6f3d0c8a4b8f373044bff4a8c885e98e3ad3aa6dedb32")
          .value();
  auto points = OpenPayload(key, 5, sealed);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  std::vector<DataPoint> expected;
  for (int64_t i = 0; i < 10; ++i) {
    expected.push_back({50'000 + i * 1000, 600 + (i % 3)});
  }
  EXPECT_EQ(*points, expected);
}

TEST(ChunkBuilder, ResetStartsFreshWindow) {
  ChunkBuilder b(0, {0, 10}, Compression::kNone);
  ASSERT_TRUE(b.Add({5, 1}).ok());
  b.Reset(1, {10, 20});
  EXPECT_EQ(b.num_points(), 0u);
  EXPECT_EQ(b.index(), 1u);
  EXPECT_TRUE(b.Add({15, 2}).ok());
  EXPECT_FALSE(b.Add({5, 3}).ok());
}

TEST(ChunkBuilder, DigestMatchesSchema) {
  ChunkBuilder b(0, {0, 1000}, Compression::kNone);
  ASSERT_TRUE(b.Add({1, 10}).ok());
  ASSERT_TRUE(b.Add({2, 20}).ok());
  index::DigestSchema schema;
  schema.with_sum = schema.with_count = true;
  auto fields = schema.Compute(b.points());
  EXPECT_EQ(fields[0], 30u);
  EXPECT_EQ(fields[1], 2u);
}

}  // namespace
}  // namespace tc::chunk
