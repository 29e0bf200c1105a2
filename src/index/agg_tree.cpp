#include "index/agg_tree.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tc::index {

AggTree::AggTree(std::shared_ptr<store::KvStore> kv, std::string prefix,
                 std::shared_ptr<const DigestCipher> cipher,
                 AggTreeOptions options)
    : kv_(std::move(kv)),
      prefix_(std::move(prefix)),
      cipher_(std::move(cipher)),
      options_(options),
      cache_(options.cache_bytes) {
  assert(options_.fanout >= 2);
}

std::string AggTree::NodeKey(uint32_t level, uint64_t node_index) const {
  // Identifier computed on the fly from the node's coordinates (§4.6).
  std::string key = prefix_;
  key += "/L";
  key += std::to_string(level);
  key += "/";
  key += std::to_string(node_index);
  return key;
}

Result<Bytes> AggTree::LoadNode(uint32_t level, uint64_t node_index,
                                QueryStats* stats) const {
  std::string key = NodeKey(level, node_index);
  if (auto cached = cache_.Get(key)) {
    if (stats != nullptr) {
      ++stats->nodes_fetched;
      ++stats->cache_hits;
    }
    return std::move(*cached);
  }
  if (stats != nullptr) ++stats->nodes_fetched;
  TC_ASSIGN_OR_RETURN(Bytes node, kv_->Get(key));
  cache_.Put(key, node);
  return node;
}

Status AggTree::StoreNode(const std::string& key, BytesView node) {
  // A failed put wrote nothing, so any cached copy still matches the store.
  TC_RETURN_IF_ERROR(kv_->Put(key, node));
  cache_.Erase(key);
  return Status::Ok();
}

Status AggTree::WriteEntries(uint32_t level, uint64_t node_index,
                             size_t entry, BytesView blobs) {
  std::string key = NodeKey(level, node_index);
  if (entry == 0) return StoreNode(key, blobs);
  const size_t expected = entry * cipher_->blob_size();
  if (level < ahead_levels_) {
    // A lost cascade left an entry past the position in this node: rewrite
    // it whole rather than append behind it. This retry is the only write
    // that reads a node back.
    TC_ASSIGN_OR_RETURN(Bytes node, kv_->Get(key));
    if (node.size() < expected) {
      return Internal("index node has unexpected entry count");
    }
    node.resize(expected);
    tc::Append(node, blobs);
    return StoreNode(key, node);
  }
  auto appended = kv_->Append(key, expected, blobs);
  if (!appended.ok()) {
    // The store wrote nothing; a cached copy may be what went stale.
    cache_.Erase(key);
    if (appended.status().code() == StatusCode::kFailedPrecondition) {
      return Internal("index node has unexpected entry count: " +
                      appended.status().message());
    }
    return appended.status();
  }
  // Keeps a node a query cached current; an uncached node stays out.
  cache_.Append(key, expected, blobs);
  return Status::Ok();
}

Status AggTree::Append(uint64_t index, BytesView digest_blob) {
  return AppendRun(index, 1, digest_blob);
}

Status AggTree::AppendRun(uint64_t first, size_t count, BytesView digests) {
  if (first != next_index_) {
    return FailedPrecondition(
        "append-only index: expected chunk " + std::to_string(next_index_) +
        ", got " + std::to_string(first));
  }
  const uint32_t k = options_.fanout;
  const size_t bs = cipher_->blob_size();
  if (count == 0 || digests.size() != count * bs) {
    return InvalidArgument("digest blob size mismatch");
  }
  // One level-0 node at a time, the position advancing past each node
  // whose write and cascade both landed (rewriting every ahead level).
  while (!digests.empty()) {
    const size_t take =
        std::min<size_t>(k - next_index_ % k, digests.size() / bs);
    if (Status s = WriteNode(next_index_, digests.first(take * bs));
        !s.ok()) {
      // The store holds a prefix of the node's writes and says where the
      // tree stands; a failed Recover is the caller's to repeat.
      (void)Recover(next_index_);
      return s;
    }
    ahead_levels_ = 0;
    next_index_ += take;
    digests = digests.subspan(take * bs);
  }
  return Status::Ok();
}

Status AggTree::WriteNode(uint64_t position, BytesView entries) {
  const uint32_t k = options_.fanout;
  const size_t bs = cipher_->blob_size();
  for (uint32_t level = 0;; ++level) {
    const uint64_t node_index = position / k;
    const size_t entry = position % k;
    // Growing the spine moves its blobs, whose buffers (and the view
    // `entries` holds of one) stay put.
    if (spine_.size() <= level) spine_.resize(level + 1);
    Bytes& acc = spine_[level];
    if (entry != 0 && acc.empty()) {
      return Internal("index spine has no aggregate for an open node");
    }
    TC_RETURN_IF_ERROR(WriteEntries(level, node_index, entry, entries));
    if (entry == 0) acc.clear();
    const size_t count = entries.size() / bs;
    TC_RETURN_IF_ERROR(FoldEntries(entries, 0, count, acc, nullptr));
    // Open: done. Complete: its aggregate is the parent's next entry, and
    // its blob goes unread until a write starts the level's next node.
    if (entry + count != k) return Status::Ok();
    entries = acc;
    position = node_index;
  }
}

Status AggTree::FoldEntries(BytesView node, size_t from, size_t to,
                            Bytes& acc, QueryStats* stats) const {
  size_t bs = cipher_->blob_size();
  if (to * bs > node.size()) {
    return Internal("index node shorter than expected");
  }
  for (size_t e = from; e < to; ++e) {
    BytesView entry = node.subspan(e * bs, bs);
    if (acc.empty()) {
      acc.assign(entry.begin(), entry.end());
    } else {
      TC_RETURN_IF_ERROR(cipher_->Add(std::span<uint8_t>(acc), entry));
      if (stats != nullptr) ++stats->digest_adds;
    }
  }
  return Status::Ok();
}

Result<Bytes> AggTree::Query(uint64_t first, uint64_t last) const {
  QueryStats stats;
  return Query(first, last, stats);
}

Result<Bytes> AggTree::Query(uint64_t first, uint64_t last,
                             QueryStats& stats) const {
  if (first >= last) return InvalidArgument("empty query range");
  if (last > next_index_) {
    return OutOfRange("query range exceeds ingested chunks (" +
                      std::to_string(next_index_) + ")");
  }
  const uint32_t k = options_.fanout;

  // Collect covering pieces in left-to-right order per level; because HEAC
  // requires contiguous addition, fold left pieces into `left_acc` (ordered
  // ascending) and right pieces into a stack folded at the end.
  //
  // Standard k-ary segment walk: at each level clip partial nodes at both
  // ends, then ascend. Left pieces are emitted in ascending chunk order;
  // right pieces in descending order (they are collected while ascending,
  // so fold them in reverse at the end).
  Bytes left_acc;
  std::vector<Bytes> right_pieces;

  uint64_t lo = first, hi = last;
  uint32_t level = 0;
  while (lo < hi) {
    uint64_t node_lo = lo / k;
    uint64_t node_hi = (hi - 1) / k;
    if (node_lo == node_hi) {
      // Remaining range fits in one node.
      TC_ASSIGN_OR_RETURN(Bytes node, LoadNode(level, node_lo, &stats));
      TC_RETURN_IF_ERROR(
          FoldEntries(node, lo % k, (hi - 1) % k + 1, left_acc, &stats));
      break;
    }
    if (lo % k != 0) {
      TC_ASSIGN_OR_RETURN(Bytes node, LoadNode(level, node_lo, &stats));
      TC_RETURN_IF_ERROR(FoldEntries(node, lo % k, k, left_acc, &stats));
      lo = (node_lo + 1) * k;
    }
    if (hi % k != 0) {
      TC_ASSIGN_OR_RETURN(Bytes node, LoadNode(level, node_hi, &stats));
      Bytes piece;
      TC_RETURN_IF_ERROR(FoldEntries(node, 0, hi % k, piece, &stats));
      right_pieces.push_back(std::move(piece));
      hi = node_hi * k;
    }
    lo /= k;
    hi /= k;
    ++level;
  }

  // left_acc covers [first, X); right_pieces (reversed) cover [X, last)
  // in ascending order.
  for (auto it = right_pieces.rbegin(); it != right_pieces.rend(); ++it) {
    if (left_acc.empty()) {
      left_acc = std::move(*it);
    } else {
      TC_RETURN_IF_ERROR(cipher_->Add(std::span<uint8_t>(left_acc), *it));
      ++stats.digest_adds;
    }
  }
  if (left_acc.empty()) return Internal("query produced no digest");
  return left_acc;
}

Status AggTree::Recover(uint64_t at_least) {
  // Appends grow cached nodes in place and a failed write may rewrite
  // one: any of them may be stale.
  cache_.Clear();
  const uint32_t k = options_.fanout;
  const size_t bs = cipher_->blob_size();
  // Level-0 nodes hold the first `at_least` chunks. Find the first missing
  // one past them: exponential, then binary search.
  uint64_t have = (at_least + k - 1) / k, missing = have;
  for (uint64_t step = 1; kv_->Contains(NodeKey(0, missing)); step *= 2) {
    have = missing + 1;
    missing += step;
  }
  while (have < missing) {
    const uint64_t mid = have + (missing - have) / 2;
    if (kv_->Contains(NodeKey(0, mid))) {
      have = mid + 1;
    } else {
      missing = mid;
    }
  }
  // A node; an upper one is absent until its level gets a first entry.
  auto read = [&](uint64_t level, uint64_t index) -> Result<Bytes> {
    auto node = kv_->Get(NodeKey(static_cast<uint32_t>(level), index));
    if (level > 0 && node.status().code() == StatusCode::kNotFound) {
      return Bytes{};
    }
    TC_RETURN_IF_ERROR(node.status());
    if (node->empty() || node->size() % bs != 0) {
      return DataLoss("recovered index node has torn size");
    }
    return node;
  };
  Bytes node;
  uint64_t c0 = 0;
  if (have > 0) {
    TC_ASSIGN_OR_RETURN(node, read(0, have - 1));
    c0 = (have - 1) * k + node.size() / bs;
  }

  // The first level above 0 with a non-empty open node at c0 holds its
  // entries, or one fewer when the cascade of the full level-0 node was
  // lost. Then the position is c0 - 1 and the levels below it are ahead.
  uint64_t position = c0;
  uint32_t top = 1, ahead = 0;
  uint64_t entries = c0 / k;
  for (; entries > 0 && entries % k == 0; entries /= k) ++top;
  Bytes parent;
  if (entries > 0) {
    TC_ASSIGN_OR_RETURN(parent, read(top, entries / k));
    if (c0 % k == 0 && parent.size() / bs + 1 == entries % k) {
      position = c0 - 1;
      ahead = top;
    }
  }
  if (position < at_least) return DataLoss("index store lost chunks");

  // Fold each open node's entries: one read per open level, the two above
  // already done, plus one per ahead level above 0.
  std::vector<Bytes> spine;
  for (uint64_t e = position, level = 0; e > 0; e /= k, ++level) {
    const size_t open = e % k;
    spine.emplace_back();
    if (open == 0) continue;
    if (level == top) {
      node = std::move(parent);
    } else if (level > 0) {
      TC_ASSIGN_OR_RETURN(node, read(level, e / k));
    }
    const size_t held = node.size() / bs;
    if (level < ahead ? held < open : held != open) {
      return DataLoss("recovered index node has unexpected entry count");
    }
    TC_RETURN_IF_ERROR(FoldEntries(node, 0, open, spine.back(), nullptr));
  }
  next_index_ = position;
  spine_ = std::move(spine);
  ahead_levels_ = ahead;
  return Status::Ok();
}

Result<Bytes> AggTree::LeafDigest(uint64_t index) const {
  if (index >= next_index_) return OutOfRange("chunk not ingested");
  const uint32_t k = options_.fanout;
  TC_ASSIGN_OR_RETURN(Bytes node, LoadNode(0, index / k, nullptr));
  size_t bs = cipher_->blob_size();
  size_t entry = index % k;
  if ((entry + 1) * bs > node.size()) {
    return Internal("leaf node shorter than expected");
  }
  BytesView view = BytesView(node).subspan(entry * bs, bs);
  return Bytes(view.begin(), view.end());
}

Status AggTree::Drop() {
  // Level L has next_index_ / k^L complete entries, in nodes [0, entries /
  // k]. A failed run wrote at most the node holding the position on each
  // level it reached, and it reached a level only through a full node
  // below, so those nodes are in the same ranges.
  const uint32_t k = options_.fanout;
  for (uint64_t entries = next_index_, level = 0;; entries /= k, ++level) {
    for (uint64_t node = 0; node <= entries / k; ++node) {
      std::string key = NodeKey(static_cast<uint32_t>(level), node);
      cache_.Erase(key);
      Status s = kv_->Delete(key);
      if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
    }
    if (entries == 0) break;
  }
  next_index_ = 0;
  spine_.clear();
  ahead_levels_ = 0;
  return Status::Ok();
}

uint64_t AggTree::IndexBytes() const {
  // Sum over levels of ceil(n / k^level) entries, each blob_size() bytes.
  const uint32_t k = options_.fanout;
  uint64_t total = 0;
  uint64_t entries = next_index_;
  while (entries > 0) {
    total += entries * cipher_->blob_size();
    entries /= k;
  }
  return total;
}

}  // namespace tc::index
