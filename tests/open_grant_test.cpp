// Open-ended subscription tests (Table 1 rows 9-10): GrantOpenAccess
// extends epoch by epoch as ingest progresses; RevokeAccess stops the
// extension with forward secrecy — the revoked principal keeps its old
// epochs (already-shared keys, §3.3) but never receives new ones.
#include <gtest/gtest.h>

#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "tests/support/helpers.hpp"

namespace tc {
namespace {

using client::ConsumerClient;
using client::OwnerClient;
using client::Principal;

using testing::kDelta;
constexpr uint64_t kEpoch = 4;  // chunks per epoch (small for the tests)

net::StreamConfig Config() {
  return testing::HeacConfig("subscription/stream");
}

class OpenGrantTest : public ::testing::Test {
 protected:
  OpenGrantTest()
      : transport_(testing::ServeInProc()),
        owner_(transport_, [] {
          client::OwnerOptions o;
          o.open_grant_epoch_chunks = kEpoch;
          return o;
        }()) {}

  /// Chunks [first, first + count), one point each.
  Status IngestChunks(uint64_t uuid, uint64_t first, uint64_t count) {
    return testing::IngestChunks(owner_, uuid, first, count, /*points=*/1);
  }

  std::shared_ptr<net::Transport> transport_;
  OwnerClient owner_;
};

TEST_F(OpenGrantTest, EpochsIssueAsIngestProgresses) {
  auto uuid = owner_.CreateStream(Config());
  ASSERT_TRUE(uuid.ok());
  Principal svc{"svc", crypto::GenerateBoxKeyPair()};
  ASSERT_TRUE(owner_
                  .GrantOpenAccess(*uuid, svc.id, svc.keys.public_key,
                                   /*start=*/0, /*resolution_chunks=*/1)
                  .ok());

  // Not enough data: no epoch issued yet.
  ASSERT_TRUE(IngestChunks(*uuid, 0, kEpoch - 1).ok());
  auto issued = owner_.ExtendOpenGrants();
  ASSERT_TRUE(issued.ok());
  EXPECT_EQ(*issued, 0);

  // Crossing the epoch boundary issues exactly one grant.
  ASSERT_TRUE(IngestChunks(*uuid, kEpoch - 1, 1).ok());
  issued = owner_.ExtendOpenGrants();
  ASSERT_TRUE(issued.ok());
  EXPECT_EQ(*issued, 1);

  // Three more epochs at once: three grants.
  ASSERT_TRUE(IngestChunks(*uuid, kEpoch, 3 * kEpoch).ok());
  issued = owner_.ExtendOpenGrants();
  ASSERT_TRUE(issued.ok());
  EXPECT_EQ(*issued, 3);

  // The subscriber decrypts across every issued epoch.
  ConsumerClient consumer(transport_, svc);
  ASSERT_TRUE(consumer.FetchGrants().ok());
  EXPECT_EQ(consumer.grants().size(), 4u);
  auto stats = consumer.GetStatRange(*uuid, {0, 4 * kEpoch * kDelta});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->stats.Count().value(), 4 * kEpoch);
}

TEST_F(OpenGrantTest, RevocationIsForwardSecure) {
  auto uuid = owner_.CreateStream(Config());
  ASSERT_TRUE(uuid.ok());
  Principal svc{"svc", crypto::GenerateBoxKeyPair()};
  ASSERT_TRUE(owner_
                  .GrantOpenAccess(*uuid, svc.id, svc.keys.public_key, 0, 1)
                  .ok());

  ASSERT_TRUE(IngestChunks(*uuid, 0, 2 * kEpoch).ok());
  ASSERT_TRUE(owner_.ExtendOpenGrants().ok());

  // Revoke from the current position; grants already issued survive
  // (forward secrecy, not retroactive revocation).
  ASSERT_TRUE(
      owner_.RevokeAccess(*uuid, svc.id, 2 * kEpoch * kDelta).ok());

  // More data arrives; the subscription must NOT extend.
  ASSERT_TRUE(IngestChunks(*uuid, 2 * kEpoch, 2 * kEpoch).ok());
  auto issued = owner_.ExtendOpenGrants();
  ASSERT_TRUE(issued.ok());
  EXPECT_EQ(*issued, 0);

  ConsumerClient consumer(transport_, svc);
  ASSERT_TRUE(consumer.FetchGrants().ok());
  // Old epochs still decrypt...
  auto old_window = consumer.GetStatRange(*uuid, {0, 2 * kEpoch * kDelta});
  ASSERT_TRUE(old_window.ok()) << old_window.status().ToString();
  EXPECT_EQ(old_window->stats.Count().value(), 2 * kEpoch);
  // ...new data is cryptographically out of reach.
  auto new_window = consumer.GetStatRange(
      *uuid, {2 * kEpoch * kDelta, 4 * kEpoch * kDelta});
  EXPECT_EQ(new_window.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(OpenGrantTest, ResolutionRestrictedSubscription) {
  auto uuid = owner_.CreateStream(Config());
  ASSERT_TRUE(uuid.ok());
  Principal coarse{"dashboard", crypto::GenerateBoxKeyPair()};
  // Epoch-extended subscription at 2-chunk resolution.
  ASSERT_TRUE(owner_
                  .GrantOpenAccess(*uuid, coarse.id, coarse.keys.public_key,
                                   0, /*resolution_chunks=*/2)
                  .ok());
  ASSERT_TRUE(IngestChunks(*uuid, 0, 2 * kEpoch).ok());
  ASSERT_TRUE(owner_.ExtendOpenGrants().ok());

  ConsumerClient consumer(transport_, coarse);
  ASSERT_TRUE(consumer.FetchGrants().ok());
  auto aligned = consumer.GetStatRange(*uuid, {0, 2 * kEpoch * kDelta});
  ASSERT_TRUE(aligned.ok()) << aligned.status().ToString();
  EXPECT_EQ(aligned->stats.Count().value(), 2 * kEpoch);
  auto fine = consumer.GetStatRange(*uuid, {0, kDelta});
  EXPECT_EQ(fine.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(OpenGrantTest, MultipleSubscribersIndependentEpochs) {
  auto uuid = owner_.CreateStream(Config());
  ASSERT_TRUE(uuid.ok());
  Principal a{"svc-a", crypto::GenerateBoxKeyPair()};
  Principal b{"svc-b", crypto::GenerateBoxKeyPair()};
  ASSERT_TRUE(
      owner_.GrantOpenAccess(*uuid, a.id, a.keys.public_key, 0, 1).ok());

  ASSERT_TRUE(IngestChunks(*uuid, 0, kEpoch).ok());
  auto issued = owner_.ExtendOpenGrants();
  ASSERT_TRUE(issued.ok());
  EXPECT_EQ(*issued, 1);  // a's first epoch

  // b subscribes from the CURRENT position onward only.
  ASSERT_TRUE(owner_
                  .GrantOpenAccess(*uuid, b.id, b.keys.public_key,
                                   kEpoch * kDelta, 1)
                  .ok());
  ASSERT_TRUE(IngestChunks(*uuid, kEpoch, kEpoch).ok());
  issued = owner_.ExtendOpenGrants();
  ASSERT_TRUE(issued.ok());
  EXPECT_EQ(*issued, 2);  // one epoch each

  ConsumerClient cb(transport_, b);
  ASSERT_TRUE(cb.FetchGrants().ok());
  // b sees its epoch...
  auto own = cb.GetStatRange(*uuid, {kEpoch * kDelta, 2 * kEpoch * kDelta});
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  // ...but not data from before its subscription started.
  auto before = cb.GetStatRange(*uuid, {0, kEpoch * kDelta});
  EXPECT_EQ(before.status().code(), StatusCode::kPermissionDenied);
}

}  // namespace
}  // namespace tc
