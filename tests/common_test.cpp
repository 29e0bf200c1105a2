// Tests for the common runtime: status/result, bytes/hex, varint, binary io,
// time range <-> chunk index mapping, trace sampling.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/io.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "common/varint.hpp"

namespace tc {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = NotFound("stream 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: stream 42");
}

TEST(Result, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MovesValueOut) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Status FailingHelper() { return Internal("boom"); }

Status PropagationDemo() {
  TC_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(Result, ReturnIfErrorMacro) {
  EXPECT_EQ(PropagationDemo().code(), StatusCode::kInternal);
}

Result<int> GiveInt() { return 5; }

Result<int> AssignDemo() {
  TC_ASSIGN_OR_RETURN(int v, GiveInt());
  return v + 1;
}

TEST(Result, AssignOrReturnMacro) {
  auto r = AssignDemo();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 6);
}

TEST(Bytes, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  std::string hex = ToHex(b);
  EXPECT_EQ(hex, "0001abff");
  auto back = FromHex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, b);
}

TEST(Bytes, FromHexRejectsOddLength) {
  EXPECT_FALSE(FromHex("abc").ok());
}

TEST(Bytes, FromHexRejectsNonHex) {
  EXPECT_FALSE(FromHex("zz").ok());
}

TEST(Bytes, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, BytesView(a).subspan(0, 2)));
}

TEST(Bytes, SecureZeroClears) {
  Bytes secret = {9, 9, 9, 9};
  SecureZero(secret);
  EXPECT_EQ(secret, (Bytes{0, 0, 0, 0}));
}

TEST(Varint, RoundTripSmallAndLarge) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{300}, uint64_t{1} << 32,
                     ~uint64_t{0}}) {
    Bytes buf;
    PutVarint(buf, v);
    size_t pos = 0;
    auto got = GetVarint(buf, pos);
    ASSERT_TRUE(got.has_value()) << v;
    EXPECT_EQ(*got, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, SingleByteForSmall) {
  Bytes buf;
  PutVarint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Varint, DetectsTruncation) {
  Bytes buf;
  PutVarint(buf, uint64_t{1} << 40);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_FALSE(GetVarint(buf, pos).has_value());
}

TEST(Varint, ZigzagRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-123456},
                    int64_t{1} << 40, -(int64_t{1} << 40)}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(Varint, ZigzagKeepsSmallMagnitudesSmall) {
  EXPECT_LE(ZigzagEncode(-5), 10u);
}

TEST(BinaryIo, FixedWidthRoundTrip) {
  BinaryWriter w;
  w.PutU8(7);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutDouble(3.5);

  BinaryReader r(w.data());
  EXPECT_EQ(r.GetU8().value(), 7);
  EXPECT_EQ(r.GetU16().value(), 0xbeef);
  EXPECT_EQ(r.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI64().value(), -42);
  EXPECT_EQ(r.GetDouble().value(), 3.5);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIo, BytesAndStrings) {
  BinaryWriter w;
  w.PutBytes(Bytes{1, 2, 3});
  w.PutString("hello");
  BinaryReader r(w.data());
  EXPECT_EQ(r.GetBytes().value(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.GetString().value(), "hello");
}

TEST(BinaryIo, TruncationIsError) {
  BinaryWriter w;
  w.PutU64(1);
  BytesView view(w.data());
  BinaryReader r(view.subspan(0, 4));
  EXPECT_FALSE(r.GetU64().ok());
}

TEST(BinaryIo, GetRawViews) {
  BinaryWriter w;
  w.PutRaw(Bytes{9, 8, 7});
  BinaryReader r(w.data());
  auto raw = r.GetRaw(3);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)[0], 9);
  EXPECT_FALSE(r.GetRaw(1).ok());
}

TEST(TimeRange, BasicPredicates) {
  TimeRange r{100, 200};
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.length(), 100);
  EXPECT_TRUE(r.Contains(100));
  EXPECT_FALSE(r.Contains(200));
  EXPECT_TRUE(r.Overlaps({150, 250}));
  EXPECT_FALSE(r.Overlaps({200, 300}));
  EXPECT_TRUE(r.Contains(TimeRange{120, 180}));
}

TEST(ChunkClock, IndexMapping) {
  ChunkClock clock(/*t0=*/1000, /*delta=*/10 * kSecond);
  EXPECT_EQ(clock.IndexOf(1000).value(), 0u);
  EXPECT_EQ(clock.IndexOf(10999).value(), 0u);
  EXPECT_EQ(clock.IndexOf(11000).value(), 1u);
  EXPECT_FALSE(clock.IndexOf(999).ok());
  EXPECT_EQ(clock.RangeOfChunk(2), (TimeRange{21000, 31000}));
}

TEST(ChunkClock, IndexRangeCoversOverlappingChunks) {
  ChunkClock clock(0, 10);
  auto r = clock.IndexRange({5, 25});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first, 0u);
  EXPECT_EQ(r->second, 3u);  // chunks 0,1,2 overlap [5,25)

  auto aligned = clock.IndexRange({10, 30});
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(aligned->first, 1u);
  EXPECT_EQ(aligned->second, 3u);
}

TEST(ChunkClock, AlignmentCheck) {
  ChunkClock clock(0, 10);
  EXPECT_TRUE(clock.IsAligned({10, 30}));
  EXPECT_FALSE(clock.IsAligned({11, 30}));
}

TEST(ChunkClock, RejectsRangeBeforeStart) {
  ChunkClock clock(1000, 10);
  EXPECT_FALSE(clock.IndexRange({0, 500}).ok());
}

// Head-based sampling hashes the trace id, so every process keeps or drops
// the same traces; the rate follows the percentage.
TEST(TraceSampling, KeepsTheConfiguredShareOfIdsTheSameWayEveryTime) {
  struct RestoreFullSampling {
    ~RestoreFullSampling() { trace::SetSamplePercent(100); }
  } restore;
  constexpr uint64_t kIds = 10'000;

  trace::SetSamplePercent(0);
  for (uint64_t id = 1; id <= kIds; ++id) {
    ASSERT_FALSE(trace::Sampled(id)) << "id " << id;
  }

  trace::SetSamplePercent(100);
  for (uint64_t id = 1; id <= kIds; ++id) {
    ASSERT_TRUE(trace::Sampled(id)) << "id " << id;
  }

  trace::SetSamplePercent(37);
  uint64_t kept = 0;
  for (uint64_t id = 1; id <= kIds; ++id) {
    bool sampled = trace::Sampled(id);
    ASSERT_EQ(trace::Sampled(id), sampled) << "id " << id;
    if (sampled) ++kept;
  }
  // Sequential ids must not cluster on one side of the cut.
  EXPECT_GE(kept, kIds * 30 / 100);
  EXPECT_LE(kept, kIds * 44 / 100);
}

}  // namespace
}  // namespace tc
