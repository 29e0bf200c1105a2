#include "tests/support/scenario.hpp"

#include <algorithm>
#include <random>

#include "client/stream_reader.hpp"
#include "net/messages.hpp"

namespace tc::testing {

std::string OpName(OpKind kind) {
  static const char* const kNames[] = {
      "stat_range", "stat_series", "raw_range", "multi_stat_range",
      "verified_stat_range", "create", "ingest", "delete_range", "rollup",
      "grant", "revoke", "attest", "delete_stream", "compact", "restart"};
  return kNames[static_cast<size_t>(kind)];
}

// ------------------------------------------------------------------- model

namespace {

using Stream = Model::Stream;

Status Denied() { return PermissionDenied("a key is outside the grants"); }

/// The chunks [first, last) the server resolves `r` to, within the first
/// `limit` chunks.
Result<std::pair<int64_t, int64_t>> Resolve(const Stream& st, TimeRange r,
                                            int64_t limit = INT64_MAX) {
  if (!st.alive) return NotFound("stream deleted");
  if (r.empty()) return InvalidArgument("empty time range");
  if (r.end <= st.t0) return OutOfRange("range before the stream");
  const int64_t n = std::min<int64_t>(limit, st.chunks.size());
  const int64_t first = st.ChunkAt(std::max(r.start, st.t0));
  if (first >= n) return OutOfRange("range past the data");
  return std::pair{first, std::min(st.ChunkAt(r.end + st.delta - 1), n)};
}

bool Derivable(const Stream& st, int reader, int64_t leaf) {
  // A full-resolution grant derives every leaf it covers, ends included; a
  // resolution grant only its window boundaries.
  return reader == kOwner ||
         std::any_of(st.grants.begin(), st.grants.end(), [&](const auto& g) {
           return g.consumer == reader && g.first <= leaf && leaf <= g.last &&
                  leaf % g.resolution == 0;
         });
}

/// Whether `reader` opens the stream's aggregate over [first, last).
bool Opens(const Stream& st, int reader, int64_t first, int64_t last) {
  return st.plain ||
         (Derivable(st, reader, first) && Derivable(st, reader, last));
}

void Aggregate(const Stream& st, int64_t first, int64_t last, Numbers& out) {
  int64_t sum = 0, count = 0;
  for (int64_t c = first; c < last; ++c) {
    sum += st.chunks[c].sum;
    count += st.chunks[c].count;
  }
  out.insert(out.end(), {first, last, sum, count});
}

}  // namespace

void Model::Apply(const Op& op) {
  if (op.kind == OpKind::kCreate) {
    streams.push_back(
        {.plain = op.stream_kind == StreamKind::kPlain, .owner = op.owner});
    return;
  }
  Stream& st = streams[op.stream];
  switch (op.kind) {
    case OpKind::kIngest:
      for (const auto& points : op.chunks) {
        const std::pair at{op.stream, static_cast<int64_t>(st.chunks.size())};
        Chunk& c = st.chunks.emplace_back(
            Chunk{points, at == shifted, static_cast<int64_t>(points.size())});
        for (const auto& p : points) c.sum += p.value;
      }
      break;
    case OpKind::kDeleteRange: {  // the payloads go, the digests stay
      const auto [first, last] = *Resolve(st, op.range);
      for (int64_t c = first; c < last; ++c) st.chunks[c].points.clear();
      break;
    }
    case OpKind::kRollup: {  // whole windows: the segment's ends round down
      auto [first, last] = op.range.end == 0
                               ? std::pair<int64_t, int64_t>(0, st.chunks.size())
                               : *Resolve(st, op.range);
      first -= first % op.step;
      Stream rollup{.plain = st.plain, .owner = st.owner,
                    .t0 = st.Start(first), .delta = st.delta * op.step};
      for (; first + op.step <= last; first += op.step) {
        Numbers window;
        Aggregate(st, first, first + op.step, window);
        rollup.chunks.push_back({{}, window[2], window[3]});
      }
      streams.push_back(std::move(rollup));
      break;
    }
    case OpKind::kGrant:
      st.grants.push_back({op.reader, st.ChunkAt(op.range.start),
                           st.ChunkAt(op.range.end + st.delta - 1), op.step});
      break;
    case OpKind::kRevoke:  // grants reaching past the revocation point go
      std::erase_if(st.grants, [&](const Grant& g) {
        return g.consumer == op.reader && g.last > st.ChunkAt(op.range.end);
      });
      break;
    case OpKind::kAttest: st.attested = st.chunks.size(); break;
    case OpKind::kDeleteStream: st.alive = false; break;
    default: break;
  }
}

Result<Numbers> Model::Read(const Op& op) const {
  const Stream& st = streams[op.stream];
  // A verified read stops at the attested prefix.
  TC_ASSIGN_OR_RETURN(const auto window,
                      Resolve(st, op.range,
                              op.kind == OpKind::kVerifiedStatRange
                                  ? st.attested
                                  : INT64_MAX));
  const auto [first, last] = window;
  Numbers out;
  switch (op.kind) {
    case OpKind::kRawRange:
      for (int64_t c = first; c < last; ++c) {
        // A payload key takes both leaves of its chunk, whatever the cipher.
        const bool keyed =
            Derivable(st, op.reader, c) && Derivable(st, op.reader, c + 1);
        if (!keyed && !st.chunks[c].points.empty()) return Denied();
        for (const auto& p : st.chunks[c].points) {
          if (op.range.Contains(p.timestamp_ms)) {
            out.insert(out.end(), {p.timestamp_ms, p.value});
          }
        }
      }
      return out;
    case OpKind::kStatSeries:
      for (int64_t a = first; a < last; a += op.step) {
        const int64_t b = std::min(a + op.step, last);
        if (!Opens(st, op.reader, a, b)) return Denied();
        Aggregate(st, a, b, out);
      }
      return out;
    case OpKind::kMultiStatRange:
      // The server adds each stream's own window and the consumer opens the
      // sum with the first stream's, so draws keep the windows equal.
      Aggregate(st, first, last, out);
      for (size_t other : op.others) {
        TC_RETURN_IF_ERROR(Resolve(streams[other], op.range).status());
        if (!Opens(streams[other], op.reader, first, last)) return Denied();
        Numbers more;
        Aggregate(streams[other], first, last, more);
        out[2] += more[2];
        out[3] += more[3];
      }
      break;
    default:
      Aggregate(st, first, last, out);
  }
  if (!Opens(st, op.reader, first, last)) return Denied();
  return out;
}

// -------------------------------------------------------------------- draw

namespace {

// The streams Draw creates, in order; its two rollups come next.
enum : size_t { kHeac0, kHeac1, kPlain2, kSigned3, kDoomed4, kBase };

struct Drawer {
  std::mt19937_64 rng;
  Model model;
  Scenario out;

  int64_t Below(int64_t n) { return n <= 0 ? 0 : rng() % n; }
  int64_t Chunks(size_t s) const { return model.streams[s].chunks.size(); }

  void Add(Op op) {
    model.Apply(op);
    out.ops.push_back(std::move(op));
  }

  /// `count` chunks of 1-4 points; about one in five is a gap.
  void Ingest(size_t s, int64_t count) {
    Op op{.kind = OpKind::kIngest, .stream = s};
    for (int64_t i = 0; i < count; ++i) {
      auto& points = op.chunks.emplace_back(
          i + 1 == count || Below(5) ? 1 + Below(4) : 0);
      for (int64_t k = 0; auto& p : points) {
        p = {(Chunks(s) + i) * kDelta + (4 * k++ + Below(4)) * kDelta / 16,
             Below(1000)};
      }
    }
    Add(std::move(op));
  }

  /// A range over chunks [a, b), lo <= a < hi and a < b <= hi, on chunk
  /// boundaries or cut inside its end chunks.
  TimeRange Range(size_t s, int64_t lo, int64_t hi, bool aligned) {
    const Model::Stream& st = model.streams[s];
    const int64_t a = lo + Below(hi - lo);
    TimeRange r{st.Start(a), st.Start(a + 1 + Below(hi - a))};
    if (!aligned) {
      r.start += Below(st.delta);
      r.end = std::max(r.end - Below(st.delta), r.start + 1);
    }
    return r;
  }

  /// Owner reads of every shape; one in (n + 1) starts past the data.
  void OwnerReads(size_t s, int count) {
    for (int i = 0; i < count; ++i) {
      Add({.kind = static_cast<OpKind>(Below(3)), .stream = s,
           .range = Range(s, 0, Chunks(s) + 1, Below(2)), .step = 1 + Below(5)});
    }
  }

  /// Grant `consumer` windows of `r` chunks strictly inside stream `s`, and
  /// read inside the grant and outside it. Returns the inside range.
  TimeRange GrantAndRead(size_t s, int consumer, int64_t r) {
    const int64_t windows = Chunks(s) / r;  // at least 3
    const int64_t w0 = 1 + Below(windows - 2);
    const int64_t w1 = w0 + 1 + Below(windows - 1 - w0);
    const int64_t a = w0 + Below(w1 - w0);
    const TimeRange inside{a * r * kDelta, (a + 1 + Below(w1 - a)) * r * kDelta};
    Add({.kind = OpKind::kGrant, .stream = s, .reader = consumer,
         .range = {w0 * r * kDelta, w1 * r * kDelta}, .step = r});
    // From chunk 0: outside the grant. Off the window boundaries: outside
    // a resolution grant, inside a full-resolution one.
    const std::pair<OpKind, TimeRange> reads[] = {
        {OpKind::kStatRange, inside},
        {OpKind::kStatSeries, inside},
        {OpKind::kRawRange, inside},
        {OpKind::kStatRange, {0, w1 * r * kDelta}},
        {OpKind::kStatRange,
         {inside.start + kDelta * (r > 1) + Below(kDelta), inside.end}}};
    for (const auto& [kind, range] : reads) {
      Add({.kind = kind, .stream = s, .reader = consumer, .range = range,
           .step = r * (1 + Below(2))});
    }
    return inside;
  }
};

}  // namespace

Scenario Draw(uint64_t seed) {
  Drawer d{std::mt19937_64(seed), {}, {seed, {}}};
  const StreamKind kinds[kBase] = {StreamKind::kHeac, StreamKind::kHeac,
                                   StreamKind::kPlain, StreamKind::kIntegrity,
                                   StreamKind::kHeac};
  for (size_t s = 0; s < kBase; ++s) {
    d.Add({.kind = OpKind::kCreate, .stream = s, .stream_kind = kinds[s],
           .owner = static_cast<int>(s % 2)});
  }
  // More than two full batches of 64: the batched owner pipelines them.
  d.Ingest(kHeac1, 130 + d.Below(70));
  const auto rounds = [&] {
    for (int round = 0; round < 3; ++round) {
      for (size_t s = 0; s < kBase; ++s) {
        d.Ingest(s, 2 + d.Below(8));
        d.OwnerReads(s, 2);
      }
    }
  };
  const auto grant_all = [&](size_t s) {
    d.Add({.kind = OpKind::kGrant, .stream = s, .reader = 0,
           .range = {0, d.Chunks(kSigned3) * kDelta}});
  };
  TimeRange multi, granted[2];
  const auto multi_read = [&] {
    d.Add({.kind = OpKind::kMultiStatRange, .stream = kHeac0,
           .others = {kHeac1, kSigned3}, .reader = 0, .range = multi});
  };
  const auto verified_read = [&] {
    d.Add({.kind = OpKind::kVerifiedStatRange, .stream = kSigned3,
           .range = d.Range(kSigned3, 0, d.Chunks(kSigned3), d.Below(2))});
  };
  rounds();
  // DeleteRange keeps the digests: stat ranges still count the points.
  d.Add({.kind = OpKind::kDeleteRange, .stream = kHeac0,
         .range = d.Range(kHeac0, 0, d.Chunks(kHeac0), d.Below(2))});
  d.OwnerReads(kHeac0, 3);
  // Consumer 0 at full resolution, consumer 1 at a coarser one.
  granted[0] = d.GrantAndRead(kHeac0, 0, 1);
  granted[1] = d.GrantAndRead(kHeac1, 1, 2 + d.Below(4));
  // A multi-stream aggregate opens once every stream is granted, and no
  // longer once one grant is revoked. Its range lies in all three streams.
  multi = d.Range(kHeac0, 0,
                  std::min({d.Chunks(kHeac0), d.Chunks(kHeac1),
                            d.Chunks(kSigned3)}),
                  d.Below(2));
  multi_read();
  for (size_t s : {kHeac0, kHeac1, kSigned3}) grant_all(s);
  multi_read();
  d.Add({.kind = OpKind::kRevoke, .stream = kHeac1, .reader = 0});
  multi_read();
  d.Add({.kind = OpKind::kAttest, .stream = kSigned3});
  verified_read();
  verified_read();
  d.Add({.kind = OpKind::kCompact});
  d.Add({.kind = OpKind::kRestart});
  rounds();
  // The old attestation covers a prefix until the re-attached owner attests
  // again; the consumers' grants, fetched again, open what they cover.
  verified_read();
  d.Add({.kind = OpKind::kAttest, .stream = kSigned3});
  verified_read();
  grant_all(kHeac1);
  multi_read();
  for (int c = 0; c < 2; ++c) {
    for (OpKind kind : {OpKind::kStatRange, OpKind::kRawRange}) {
      d.Add({.kind = kind, .stream = c == 0 ? kHeac0 : kHeac1, .reader = c,
             .range = granted[c]});
    }
  }
  // Rollups: all of stream 0 in windows of 4, and a segment of stream 1
  // cut inside chunks in windows of 3.
  d.Add({.kind = OpKind::kRollup, .stream = kHeac0, .step = 4});
  d.OwnerReads(kBase, 3);
  const int64_t n1 = d.Chunks(kHeac1);
  d.Add({.kind = OpKind::kRollup, .stream = kHeac1,
         .range = {d.Range(kHeac1, 0, n1 / 3, false).start,
                   d.Range(kHeac1, n1 - n1 / 3, n1, false).end},
         .step = 3});
  d.OwnerReads(kBase + 1, 3);
  d.Add({.kind = OpKind::kDeleteStream, .stream = kDoomed4});
  return std::move(d.out);
}

// ------------------------------------------------------------------ runner

namespace {

constexpr size_t kNoStream = SIZE_MAX;

void Append(Numbers& out, const client::StatResult& r) {
  out.insert(out.end(), {static_cast<int64_t>(r.first_chunk),
                         static_cast<int64_t>(r.last_chunk),
                         r.stats.Sum().value_or(0),
                         static_cast<int64_t>(r.stats.Count().value_or(0))});
}

void Append(Numbers& out, const std::vector<client::StatResult>& windows) {
  for (const auto& w : windows) Append(out, w);
}

void Append(Numbers& out, const std::vector<index::DataPoint>& points) {
  for (const auto& p : points) out.insert(out.end(), {p.timestamp_ms, p.value});
}

template <typename T>
Result<Numbers> Flatten(const Result<T>& r) {
  if (!r.ok()) return r.status();
  Numbers out;
  Append(out, *r);
  return out;
}

std::string Show(const Result<Numbers>& r) {
  if (!r.ok()) return r.status().ToString();
  std::string out = "[";
  for (int64_t n : *r) out += (out.size() > 1 ? " " : "") + std::to_string(n);
  return out + "]";
}

}  // namespace

Runner::Runner(Stack stack) : stack_(std::move(stack)) {
  for (int i = 0; i < 2; ++i) {
    owner_options_[i].signing = crypto::GenerateSigningKeyPair();
    principals_[i] = {"consumer-" + std::to_string(i),
                      crypto::GenerateBoxKeyPair()};
  }
  owner_options_[1].upload_batch_chunks = 64;
  MakeClients();
}

void Runner::MakeClients() {
  const auto transport = stack_.transport();
  for (int i = 0; i < 2; ++i) {
    owners_[i] =
        std::make_unique<client::OwnerClient>(transport, owner_options_[i]);
    consumers_[i] =
        std::make_unique<client::ConsumerClient>(transport, principals_[i]);
  }
}

client::OwnerClient& Runner::OwnerOf(size_t stream) {
  return *owners_[model_.streams[stream].owner];
}

Status Runner::Fail(size_t stream, const std::string& what) const {
  const std::string where =
      stream < uuids_.size() ? ", stream " + std::to_string(stream) : "";
  return Internal(at_ + where + ": " + what);
}

Status Runner::Run(const Scenario& scenario) {
  const std::string seed = "seed " + std::to_string(scenario.seed);
  for (size_t i = 0; i < scenario.ops.size(); ++i) {
    const Op& op = scenario.ops[i];
    at_ = seed + ", op " + std::to_string(i) + " " + OpName(op.kind);
    if (op.reader != kOwner) at_ += " by consumer " + std::to_string(op.reader);
    TC_RETURN_IF_ERROR(Step(op));
  }
  at_ = seed + ", end";
  return RecheckAll();
}

Result<Numbers> Runner::Read(const Op& op) {
  const uint64_t u = uuids_[op.stream];
  // The reads that owners and consumers both answer.
  const auto read = [&](auto& client) {
    if (op.kind == OpKind::kStatSeries) {
      return Flatten(client.GetStatSeries(u, op.range, op.step));
    }
    if (op.kind == OpKind::kRawRange) {
      return Flatten(client.GetRange(u, op.range));
    }
    return Flatten(client.GetStatRange(u, op.range));
  };
  if (op.kind == OpKind::kMultiStatRange) {
    std::vector<uint64_t> uuids{u};
    for (size_t other : op.others) uuids.push_back(uuids_[other]);
    return Flatten(consumers_[op.reader]->GetMultiStatRange(uuids, op.range));
  }
  if (op.kind == OpKind::kVerifiedStatRange) {
    return Flatten(OwnerOf(op.stream).GetVerifiedStatRange(u, op.range));
  }
  return op.reader == kOwner ? read(OwnerOf(op.stream))
                             : read(*consumers_[op.reader]);
}

Status Runner::Step(const Op& op) {
  const size_t s = op.stream;
  if (op.kind <= OpKind::kVerifiedStatRange) {
    const Result<Numbers> got = Read(op), want = model_.Read(op);
    if (got.ok() ? want.ok() && *got == *want
                 : !want.ok() && got.status().code() == want.status().code()) {
      return Status::Ok();
    }
    return Fail(s, "got " + Show(got) + ", model " + Show(want));
  }
  if (op.kind == OpKind::kRestart) {
    if (stack_.restart) TC_RETURN_IF_ERROR(Restart());
    return RecheckAll();
  }
  const uint64_t u = s < uuids_.size() ? uuids_[s] : 0;
  const client::Principal& consumer = principals_[std::max(op.reader, 0)];
  Result<uint64_t> created = uint64_t{0};
  Status done;
  switch (op.kind) {
    case OpKind::kCreate: {
      const std::string name = "scenario/" + std::to_string(s);
      created = owners_[op.owner]->CreateStream(
          op.stream_kind == StreamKind::kPlain
              ? PlainConfig(name)
              : HeacConfig(name, op.stream_kind == StreamKind::kIntegrity));
      break;
    }
    case OpKind::kIngest:
      for (const auto& chunk : op.chunks) {
        for (const auto& p : chunk) {
          if (done.ok()) done = OwnerOf(s).InsertRecord(u, p);
        }
      }
      if (done.ok()) done = OwnerOf(s).Flush(u);
      break;
    case OpKind::kDeleteRange: done = OwnerOf(s).DeleteRange(u, op.range); break;
    case OpKind::kRollup:
      created = OwnerOf(s).RollupStream(u, op.step, op.range);
      break;
    case OpKind::kGrant:
      done = OwnerOf(s).GrantAccess(u, consumer.id, consumer.keys.public_key,
                                    op.range, op.step);
      break;
    case OpKind::kRevoke:
      done = OwnerOf(s).RevokeAccess(u, consumer.id, op.range.end);
      break;
    case OpKind::kAttest: {
      auto attestation = OwnerOf(s).Attest(u);
      done = attestation.status();
      if (done.ok() && attestation->size != model_.streams[s].chunks.size()) {
        done = DataLoss("attested " + std::to_string(attestation->size));
      }
      break;
    }
    case OpKind::kDeleteStream: done = OwnerOf(s).DeleteStream(u); break;
    default:  // kCompact
      if (stack_.compact) done = stack_.compact();
  }
  if (!created.ok()) done = created.status();
  if (!done.ok()) return Fail(s, done.ToString());
  if (op.kind == OpKind::kCreate) {
    seeds_.push_back(
        owners_[op.owner]->KeysFor(*created).value()->master_seed());
  }
  if (op.kind == OpKind::kCreate || op.kind == OpKind::kRollup) {
    uuids_.push_back(*created);
  }
  model_.Apply(op);
  if (op.kind == OpKind::kGrant || op.kind == OpKind::kRevoke) {
    return CheckGrants(op.reader);
  }
  return Status::Ok();
}

Status Runner::CheckGrants(int consumer) {
  auto held = consumers_[consumer]->FetchGrants();
  int64_t want = 0;
  for (const Model::Stream& st : model_.streams) {
    for (const Model::Grant& g : st.grants) want += g.consumer == consumer;
  }
  if (held.ok() && *held == want) return Status::Ok();
  return Fail(kNoStream, "consumer " + std::to_string(consumer) +
                             " fetched " +
                             (held.ok() ? std::to_string(*held)
                                        : held.status().ToString()) +
                             " grants, model " + std::to_string(want));
}

Status Runner::Restart() {
  for (int i = 0; i < 2; ++i) {
    owners_[i].reset();
    consumers_[i].reset();
  }
  if (Status restarted = stack_.restart(); !restarted.ok()) {
    return Fail(kNoStream, restarted.ToString());
  }
  MakeClients();
  for (size_t s = 0; s < seeds_.size(); ++s) {
    if (!model_.streams[s].alive) continue;
    if (Status attached = OwnerOf(s).AttachStream(uuids_[s], seeds_[s]);
        !attached.ok()) {
      return Fail(s, attached.ToString());
    }
  }
  TC_RETURN_IF_ERROR(CheckGrants(0));
  return CheckGrants(1);
}

Status Runner::RecheckAll() {
  at_ += ", recheck";
  uint64_t live = 0;
  for (size_t s = 0; s < uuids_.size(); ++s) {
    const Model::Stream& st = model_.streams[s];
    live += st.alive;
    // A whole-stream read's last chunk is the server's chunk count.
    for (OpKind kind : {OpKind::kStatRange, OpKind::kStatSeries,
                        OpKind::kRawRange, OpKind::kVerifiedStatRange}) {
      if (kind == OpKind::kVerifiedStatRange && st.attested == 0) continue;
      TC_RETURN_IF_ERROR(
          Step({.kind = kind, .stream = s,
                .range = {st.t0, st.Start(st.chunks.size() + 1)},
                .step = 4}));
    }
  }
  // kClusterInfo counts the streams on every shard; a deleted one is gone.
  auto blob = stack_.transport()->Call(net::MessageType::kClusterInfo, {});
  auto cluster = net::ClusterInfoResponse::Decode(blob.value_or(Bytes{}));
  uint64_t streams = 0, index_bytes = 0;
  for (const auto& shard : cluster.value_or({}).shards) {
    streams += shard.num_streams;
    index_bytes += shard.index_bytes;
  }
  if (streams == live && index_bytes > 0) return Status::Ok();
  return Fail(kNoStream, "the shards hold " + std::to_string(streams) +
                             " streams in " + std::to_string(index_bytes) +
                             " index bytes, model " + std::to_string(live));
}

}  // namespace tc::testing
