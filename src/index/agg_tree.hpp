// k-ary time-partitioned aggregation tree (§4.5, Fig 4).
//
// The server builds this index bottom-up over encrypted chunk digests:
// a node at level L, index N stores up to k digest entries, where entry j
// aggregates chunks [(N*k + j) * k^L, (N*k + j + 1) * k^L). Level 0 entries
// are the raw chunk digests; when the k entries of a node are complete their
// aggregate is appended to the parent. Time series ingest is in-order
// append-only (§4.5), which makes the update path a single rightmost spine.
//
// Digests arrive in runs (one chunk, or a whole upload batch). Each level-0
// node's share of a run is one store write: a Put when the run starts the
// node, else one Append of the slice. A node the run completes cascades its
// aggregate upward before the next node is written, so the store passes
// through the same node-boundary states as one-chunk-at-a-time ingest.
//
// The tree keeps the running aggregate of each open spine node in memory:
// one blob per level, folded left in entry order as a query's fold would.
// A node that completes hands its aggregate to the parent from that blob,
// so ingest reads no node back. Recover() is the one way from the store to
// the tree's position, spine and ahead levels: at open, on a replica's
// refresh, and after a failed write. Writes land level by level, so the
// store can hold a level-0 node whose cascade was lost (a failed write, a
// crash, a replica's prefix). The first level above 0 whose open node is
// non-empty then holds one entry fewer than the level-0 count implies: the
// position is one chunk back, and the levels below hold the entry past
// it, which the next write rewrites. Normally each level holds its count.
//
// Range queries drill down both ends of the range and use whole higher-level
// entries in the middle: O(2(k-1) log_k n) digest additions worst case.
//
// Nodes live in a KvStore under computed identifiers (stream, level, index)
// — no stored references (§4.6) — with an LRU cache in front (§5). The
// cache holds only nodes that queries (and LeafDigest) read: ingest adds
// nothing to it, and keeps a node a query cached current in place.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "index/digest_cipher.hpp"
#include "store/kv_store.hpp"
#include "store/lru_cache.hpp"

namespace tc::index {

struct AggTreeOptions {
  uint32_t fanout = 64;        // the paper's default k (§6 setup)
  /// Budget of the node cache, which only reads fill (ingest adds nothing).
  size_t cache_bytes = 256 << 20;
};

/// Query-side statistics for benchmarks (cache behaviour, adds performed).
struct QueryStats {
  uint64_t nodes_fetched = 0;
  uint64_t cache_hits = 0;
  uint64_t digest_adds = 0;
};

class AggTree {
 public:
  /// `prefix` namespaces this tree's keys in the shared store (stream id).
  AggTree(std::shared_ptr<store::KvStore> kv, std::string prefix,
          std::shared_ptr<const DigestCipher> cipher, AggTreeOptions options);

  /// Append the encrypted digests of chunks [first, first + count), given
  /// as `count` blobs back to back. Runs must arrive in order starting at
  /// chunk 0 (in-order append-only workload, §4.5). On a store error the
  /// tree recovers from what the store holds, and num_chunks() tells how
  /// far the run got. If that recovery fails too, the store may hold
  /// chunks past num_chunks(): the caller must Recover before the next run.
  Status AppendRun(uint64_t first, size_t count, BytesView digests);

  /// AppendRun of one chunk's digest.
  Status Append(uint64_t index, BytesView digest_blob);

  /// Derive the position, the open nodes' aggregates and the ahead levels
  /// from the store by the rule above, dropping the node cache: O(log n)
  /// Contains probes, one read per open level and one per ahead level
  /// above 0. Any other shape, or fewer chunks than `at_least` (a writer's
  /// own count; a replica's store can move back), is DataLoss, and leaves
  /// the position as is.
  Status Recover(uint64_t at_least = 0);

  /// Aggregate over chunk range [first, last). Returns the encrypted
  /// aggregate blob; the caller decrypts with the outer keys.
  Result<Bytes> Query(uint64_t first, uint64_t last) const;

  /// Query variant that also reports fetch/add counts.
  Result<Bytes> Query(uint64_t first, uint64_t last, QueryStats& stats) const;

  /// The stored level-0 digest blob of one chunk (witnessed reads need the
  /// exact ciphertext bytes the producer uploaded).
  Result<Bytes> LeafDigest(uint64_t index) const;

  /// Delete every node of the tree from the store, including any that a
  /// failed run wrote past the position. The tree is empty afterwards.
  Status Drop();

  uint64_t num_chunks() const { return next_index_; }
  uint32_t fanout() const { return options_.fanout; }

  /// Approximate in-memory index size if fully resident: total digest bytes
  /// across all tree entries (Table 2 "Index - Size" column).
  uint64_t IndexBytes() const;

  /// Cache statistics (Fig 7 small-cache experiment). Only reads fill it.
  const store::LruCache& cache() const { return cache_; }

 private:
  std::string NodeKey(uint32_t level, uint64_t node_index) const;
  Result<Bytes> LoadNode(uint32_t level, uint64_t node_index,
                         QueryStats* stats) const;
  /// Put a whole node; a cached copy is dropped, never added.
  Status StoreNode(const std::string& key, BytesView node);
  /// Write `blobs` as entries [entry, entry + n) of a node that holds
  /// entries [0, entry): one record, a Put when `entry` is 0 or the node
  /// may hold entries past the position (a rewrite), else an Append, which
  /// a cached copy follows in place.
  Status WriteEntries(uint32_t level, uint64_t node_index, size_t entry,
                      BytesView blobs);
  /// Write `entries`, which start at level-0 position `position` and end
  /// in its node, then cascade each node they complete upward with its
  /// aggregate, folded into the spine as it goes (Recover re-derives it).
  Status WriteNode(uint64_t position, BytesView entries);

  /// Aggregate entries [from, to) of a loaded node into `acc` (or move the
  /// first entry into acc when empty).
  Status FoldEntries(BytesView node, size_t from, size_t to, Bytes& acc,
                     QueryStats* stats) const;

  std::shared_ptr<store::KvStore> kv_;
  std::string prefix_;
  std::shared_ptr<const DigestCipher> cipher_;
  AggTreeOptions options_;
  mutable store::LruCache cache_;
  uint64_t next_index_ = 0;
  // spine_[L] folds entries [0, e) of the open level-L node, where e =
  // (next_index_ / k^L) % k. When e is 0 it is unread: the next write to
  // the level starts a node.
  std::vector<Bytes> spine_;
  // Levels [0, ahead_levels_) hold an entry past next_index_: Recover
  // found a lost cascade, and the next write rewrites their nodes.
  uint32_t ahead_levels_ = 0;
};

}  // namespace tc::index
