// Secret-hygiene primitives: ZeroizingAllocator scrubs freed blocks,
// SecretBuffer scrubs on destruction/adoption/clear and redacts itself when
// streamed, and the crypto types that hold keys in Scrubbed storage really
// do zeroize their key material when destroyed (the GGM iterator's path and
// kept siblings, and a token set's held path, included).
//
// Freed-memory inspection is done legally: the allocator tests run over an
// arena Upstream whose storage outlives deallocate(), and the destructor
// tests placement-construct into a local char buffer and scan it after the
// explicit destructor call.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/secret.hpp"
#include "crypto/ggm_tree.hpp"
#include "crypto/key_regression.hpp"
#include "crypto/soft_aes.hpp"
#include "tests/key_testing.hpp"

namespace tc {
namespace {

// ---------------------------------------------------------------------------
// Arena upstream: blocks deliberately survive deallocate() so a test can
// inspect what the zeroizing wrapper left behind.
// ---------------------------------------------------------------------------

struct ArenaState {
  alignas(std::max_align_t) std::array<unsigned char, 4096> storage{};
  size_t used = 0;
};

template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(ArenaState* arena) : arena_(arena) {}
  template <typename U>
  explicit ArenaAllocator(const ArenaAllocator<U>& other)
      : arena_(other.arena()) {}

  T* allocate(size_t n) {
    size_t offset = (arena_->used + alignof(T) - 1) & ~(alignof(T) - 1);
    size_t bytes = n * sizeof(T);
    if (offset + bytes > arena_->storage.size()) throw std::bad_alloc();
    arena_->used = offset + bytes;
    return reinterpret_cast<T*>(arena_->storage.data() + offset);
  }
  void deallocate(T*, size_t) {}  // keep the block for inspection

  ArenaState* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }

 private:
  ArenaState* arena_;
};

using ArenaZeroizing = ZeroizingAllocator<uint8_t, ArenaAllocator<uint8_t>>;
using ArenaVec = std::vector<uint8_t, ArenaZeroizing>;

ArenaZeroizing MakeAlloc(ArenaState* arena) {
  return ArenaZeroizing(ArenaAllocator<uint8_t>(arena));
}

// Occurrences of `marker` anywhere in the arena's storage.
size_t CountMarker(const ArenaState& arena,
                   const std::vector<uint8_t>& marker) {
  size_t hits = 0;
  auto it = arena.storage.begin();
  while (true) {
    it = std::search(it, arena.storage.end(), marker.begin(), marker.end());
    if (it == arena.storage.end()) return hits;
    ++hits;
    ++it;
  }
}

// Longest run of `value` in a raw object buffer reaches `count`?
bool HasByteRun(const unsigned char* data, size_t size, uint8_t value,
                size_t count) {
  size_t run = 0;
  for (size_t i = 0; i < size; ++i) {
    run = (data[i] == value) ? run + 1 : 0;
    if (run >= count) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// ZeroizingAllocator
// ---------------------------------------------------------------------------

TEST(ZeroizingAllocatorTest, ScrubsBlockWhenContainerDies) {
  ArenaState arena;
  const std::vector<uint8_t> marker = {0x5A, 0xC3, 0x96, 0x3D};
  {
    ArenaVec v(MakeAlloc(&arena));
    v.assign(marker.begin(), marker.end());
    ASSERT_EQ(CountMarker(arena, marker), 1u);
  }
  EXPECT_EQ(CountMarker(arena, marker), 0u)
      << "vector destruction must scrub the freed block";
}

TEST(ZeroizingAllocatorTest, ScrubsOldBlockOnReallocation) {
  ArenaState arena;
  const std::vector<uint8_t> marker = {0xA1, 0x7E, 0x39, 0xD4};
  ArenaVec v(MakeAlloc(&arena));
  v.assign(marker.begin(), marker.end());
  v.reserve(v.capacity() + 64);  // force a grow: old block goes through
                                 // ZeroizingAllocator::deallocate
  EXPECT_EQ(CountMarker(arena, marker), 1u)
      << "exactly the live copy may remain after reallocation";
}

TEST(ZeroizingAllocatorTest, ScrubsReplacedBlockOnMoveAssign) {
  ArenaState arena;
  const std::vector<uint8_t> kept = {0x11, 0xB2, 0x47, 0xF8};
  const std::vector<uint8_t> replaced = {0xE5, 0x0C, 0x9B, 0x62};
  ArenaVec a(MakeAlloc(&arena));
  ArenaVec b(MakeAlloc(&arena));
  a.assign(kept.begin(), kept.end());
  b.assign(replaced.begin(), replaced.end());
  b = std::move(a);  // b's previous block is released through the allocator
  EXPECT_EQ(CountMarker(arena, replaced), 0u)
      << "move-assignment must scrub the overwritten value";
  EXPECT_EQ(CountMarker(arena, kept), 1u);
}

// ---------------------------------------------------------------------------
// SecretBuffer
// ---------------------------------------------------------------------------

TEST(SecretBufferTest, AdoptingBytesScrubsTheSource) {
  Bytes plain = {0x21, 0x46, 0x87, 0xCA, 0x13};
  const uint8_t* source = plain.data();
  const size_t n = plain.size();

  SecretBuffer secret(std::move(plain));
  ASSERT_EQ(secret.size(), n);
  EXPECT_EQ(secret.secret_bytes()[3], 0xCA);
  // Adopt() scrubbed the source in place before clear(); clear() keeps the
  // capacity, so the block is still owned and this read is defined.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(source[i], 0) << "source byte " << i << " survived adoption";
  }
}

TEST(SecretBufferTest, ClearScrubsInPlace) {
  SecretBuffer secret(size_t{8});
  for (auto& b : secret.secret_bytes()) b = 0xA5;
  const uint8_t* block = secret.secret_bytes().data();
  secret.Clear();
  EXPECT_TRUE(secret.empty());
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(block[i], 0);
}

TEST(SecretBufferTest, StreamingRedactsContents) {
  SecretBuffer secret(BytesView(
      reinterpret_cast<const uint8_t*>("KEY"), 3));
  std::ostringstream os;
  os << secret;
  EXPECT_EQ(os.str(), "<secret 3 bytes>");
}

TEST(SecretBufferTest, EqualityIsValueBasedAndLengthAware) {
  const uint8_t raw[4] = {1, 2, 3, 4};
  SecretBuffer a{BytesView(raw, 4)};
  SecretBuffer b{BytesView(raw, 4)};
  SecretBuffer shorter{BytesView(raw, 3)};
  uint8_t flipped[4] = {1, 2, 3, 5};
  SecretBuffer c{BytesView(flipped, 4)};

  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a != b);
  EXPECT_TRUE(a != c);
  EXPECT_TRUE(a != shorter);
  EXPECT_TRUE(SecretBuffer() == SecretBuffer());
}

TEST(SecretBufferTest, MoveAssignLeavesNoCopyBehindInArenaVector) {
  // SecretBytes itself rides on ZeroizingAllocator<uint8_t>; the arena
  // variant above already proves the scrub-on-free path it uses.
  SecretBuffer a(size_t{4});
  a.secret_bytes()[0] = 0x42;
  SecretBuffer b = std::move(a);
  EXPECT_EQ(b.secret_bytes()[0], 0x42);
}

// ---------------------------------------------------------------------------
// Destructor zeroization of the crypto types that hold keys. Placement-new into
// a local buffer, destroy, then scan the buffer: the distinctive key
// pattern must be gone.
// ---------------------------------------------------------------------------

TEST(SecretZeroizeTest, AccessTokenDestructorScrubsNodeKey) {
  crypto::Key128 key;
  std::ranges::fill(key.secret_bytes(), 0xB7);
  alignas(crypto::AccessToken) unsigned char raw[sizeof(crypto::AccessToken)];
  auto* token = new (raw) crypto::AccessToken(5, 9, key);
  ASSERT_TRUE(HasByteRun(raw, sizeof(raw), 0xB7, sizeof(key)));
  token->~AccessToken();
  EXPECT_FALSE(HasByteRun(raw, sizeof(raw), 0xB7, sizeof(key)))
      << "AccessToken::~AccessToken left node_key bytes behind";
}

TEST(SecretZeroizeTest, KeyRegressionStateDestructorScrubsState) {
  crypto::Key128 key;
  std::ranges::fill(key.secret_bytes(), 0xC9);
  alignas(crypto::KeyRegressionState) unsigned char
      raw[sizeof(crypto::KeyRegressionState)];
  auto* state = new (raw) crypto::KeyRegressionState(key, 17);
  ASSERT_TRUE(HasByteRun(raw, sizeof(raw), 0xC9, sizeof(key)));
  state->~KeyRegressionState();
  EXPECT_FALSE(HasByteRun(raw, sizeof(raw), 0xC9, sizeof(key)))
      << "KeyRegressionState::~KeyRegressionState left the seed behind";
}

TEST(SecretZeroizeTest, SoftAesDestructorScrubsRoundKeys) {
  crypto::Key128 key;
  std::ranges::fill(key.secret_bytes(), 0x6E);
  alignas(crypto::SoftAes128) unsigned char raw[sizeof(crypto::SoftAes128)];
  auto* cipher = new (raw) crypto::SoftAes128(key);
  // Round key 0 of the AES key schedule is the key itself, held as eight
  // 64-bit bit planes: bits 1, 2 and 3 of 0x6E are set in every byte of
  // every lane, so planes 1 to 3 are 24 bytes of ones.
  constexpr size_t kPlanes1To3 = 24;
  ASSERT_TRUE(HasByteRun(raw, sizeof(raw), 0xFF, kPlanes1To3));
  cipher->~SoftAes128();
  EXPECT_FALSE(HasByteRun(raw, sizeof(raw), 0xFF, kPlanes1To3))
      << "SoftAes128::~SoftAes128 left the round-key schedule behind";
}

/// True if the 16 bytes of `key` appear anywhere in data[0, size).
bool HasKey(const unsigned char* data, size_t size, const crypto::Key128& key) {
  return std::search(data, data + size, key.secret_bytes().begin(),
                     key.secret_bytes().end()) != data + size;
}

TEST(SecretZeroizeTest, SequentialLeafIteratorScrubsPathAndKeptSiblings) {
  // A height-8 walk from leaf 0 turns left at every depth and keeps each
  // right sibling; one step to leaf 1 moves the last sibling onto the path.
  // The destructor must scrub the path slots and the siblings still kept.
  using crypto::SequentialLeafIterator;
  crypto::Key128 root;
  std::ranges::fill(root.secret_bytes(), 0xA5);
  constexpr uint32_t kHeight = 8;
  const crypto::GgmTree tree(root, kHeight);
  std::vector<crypto::Key128> path, siblings;
  for (uint32_t d = 0; d < kHeight; ++d) path.push_back(*tree.DeriveNode(d, 0));
  path.push_back(*tree.DeriveNode(kHeight, 1));  // the leaf after Next()
  for (uint32_t d = 1; d < kHeight; ++d) {
    siblings.push_back(*tree.DeriveNode(d, 1));
  }

  alignas(SequentialLeafIterator) unsigned char
      raw[sizeof(SequentialLeafIterator)] = {};
  auto* it = new (raw) SequentialLeafIterator(root, 0, 0, kHeight, 0);
  ASSERT_TRUE(it->Next());
  for (const auto& key : path) ASSERT_TRUE(HasKey(raw, sizeof(raw), key));
  for (const auto& key : siblings) ASSERT_TRUE(HasKey(raw, sizeof(raw), key));
  it->~SequentialLeafIterator();
  for (size_t d = 0; d < path.size(); ++d) {
    EXPECT_FALSE(HasKey(raw, sizeof(raw), path[d]))
        << "~SequentialLeafIterator left the path node at depth " << d;
  }
  for (size_t d = 0; d < siblings.size(); ++d) {
    EXPECT_FALSE(HasKey(raw, sizeof(raw), siblings[d]))
        << "~SequentialLeafIterator left the kept right sibling at depth "
        << d + 1;
  }
}

TEST(SecretZeroizeTest, TokenSetScrubsItsPathOnRerootAndDestruction) {
  // A cover of leaves [0, 191] of a height-8 tree is two tokens: (1, 0)
  // over [0, 127] and (2, 2) over [128, 191]. Leaf 5 roots the held path at
  // the first; leaf 130 re-roots it at the second, which must scrub the
  // first path (token copy, path nodes and kept siblings). The destructor
  // must scrub the second.
  crypto::Key128 root;
  std::ranges::fill(root.secret_bytes(), 0x3C);
  constexpr uint32_t kHeight = 8;
  const crypto::GgmTree tree(root, kHeight);
  auto cover = *tree.CoverRange(0, 191);
  ASSERT_EQ(cover.size(), 2u);
  // The path from a token at `depth` to `leaf`, and the right siblings
  // kept where it turns left.
  auto held = [&](uint64_t leaf, uint32_t depth) {
    std::vector<crypto::Key128> keys;
    for (uint32_t d = depth; d <= kHeight; ++d) {
      const uint64_t node = leaf >> (kHeight - d);
      keys.push_back(*tree.DeriveNode(d, node));
      if (d < kHeight && ((leaf >> (kHeight - d - 1)) & 1) == 0) {
        keys.push_back(*tree.DeriveNode(d + 1, 2 * node + 1));
      }
    }
    return keys;
  };
  const auto first = held(5, 1);
  const auto second = held(130, 2);

  alignas(crypto::TokenSet) unsigned char raw[sizeof(crypto::TokenSet)] = {};
  auto* tokens = new (raw) crypto::TokenSet(cover, kHeight);
  ASSERT_EQ(*tokens->DeriveLeaf(5), *tree.DeriveLeaf(5));
  for (const auto& key : first) ASSERT_TRUE(HasKey(raw, sizeof(raw), key));
  ASSERT_EQ(*tokens->DeriveLeaf(130), *tree.DeriveLeaf(130));
  for (const auto& key : second) ASSERT_TRUE(HasKey(raw, sizeof(raw), key));
  for (size_t k = 0; k < first.size(); ++k) {
    EXPECT_FALSE(HasKey(raw, sizeof(raw), first[k]))
        << "re-rooting TokenSet left key " << k << " of the old path";
  }
  tokens->~TokenSet();
  for (size_t k = 0; k < second.size(); ++k) {
    EXPECT_FALSE(HasKey(raw, sizeof(raw), second[k]))
        << "~TokenSet left key " << k << " of the held path";
  }
}

// ---------------------------------------------------------------------------
// AccessToken comparison stays routed through ConstantTimeEqual (tc_lint R5
// checks the source; this checks the semantics survive).
// ---------------------------------------------------------------------------

TEST(SecretZeroizeTest, AccessTokenEqualityComparesAllFields) {
  crypto::Key128 key;
  std::ranges::fill(key.secret_bytes(), 0x42);
  crypto::AccessToken a(3, 7, key);
  EXPECT_TRUE(a == crypto::AccessToken(3, 7, key));

  crypto::Key128 flipped = key;
  flipped.secret_bytes()[15] ^= 1;
  EXPECT_FALSE(a == crypto::AccessToken(3, 7, flipped));
  EXPECT_FALSE(a == crypto::AccessToken(2, 7, key));
  EXPECT_FALSE(a == crypto::AccessToken(3, 8, key));
}

}  // namespace
}  // namespace tc
