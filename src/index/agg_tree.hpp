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
// so ingest reads no node back; only a retry after a failed run reads the
// node it rewrites. Recover() rebuilds the blobs with one read per open
// level.
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
  /// chunk 0 (in-order append-only workload, §4.5). On a store error, the
  /// chunks whose node write and cascade completed stay appended:
  /// num_chunks() tells how far the run got.
  Status AppendRun(uint64_t first, size_t count, BytesView digests);

  /// AppendRun of one chunk's digest.
  Status Append(uint64_t index, BytesView digest_blob);

  /// Rediscover the append position from the backing store (server restart
  /// over a durable KV). Probes level-0 node keys — O(log n) Contains calls
  /// plus one node read; no scan API needed — then rebuilds the open spine
  /// nodes' aggregates with one read per open level. Reads bypass the
  /// cache. On error the tree is left as it was.
  Status Recover();

  /// Re-sync with a store that advanced underneath this handle (a replica
  /// store receiving shipped mutations): drop every cached node — appends
  /// grow rightmost-spine nodes in place, so any of them may be stale —
  /// and re-run Recover for the new append position and spine.
  Status Refresh();

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
  /// aggregate from the spine. `landed` counts the levels written, also
  /// when a later write fails. The spine changes only when all landed.
  Status WriteNode(uint64_t position, BytesView entries, uint32_t& landed);

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
  // WriteNode's scratch aggregates, alternating by level; kept to reuse
  // their buffers.
  Bytes fold_[2];
  // Levels [0, ahead_levels_) of the spine may hold entries past
  // next_index_: a failed run wrote them but not the rest of its cascade.
  uint32_t ahead_levels_ = 0;
};

}  // namespace tc::index
