// One seeded workload for every serving stack, after FoundationDB's
// simulation testing: Draw(seed) lists about 150 ops over HEAC, plaintext
// and integrity streams, a plaintext Model answers every read in closed
// form, and a Runner runs the ops against a stack's net::Transport,
// checking each answer. A mismatch names the seed, op index, op and stream.
//
// Adding a stack: fill a Stack. `restart` rebuilds it over the same stores
// (the runner first drops its clients, then re-attaches its owners from
// their saved seeds and has its consumers fetch their grants again), and
// `compact` compacts the stores. Draw compacts before the halfway restart
// and rolls up after it, as a rollup has no seed to re-attach from.
// Adding an op: name it in OpKind and OpName, draw it in Draw, record it in
// Model::Apply (a write) or answer it in Model::Read (a read), and run it
// in Runner::Step. An error the model predicts, such as PermissionDenied
// outside a grant, is compared by status code.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/consumer.hpp"
#include "tests/support/helpers.hpp"

namespace tc::testing {

enum class StreamKind : uint8_t { kHeac, kPlain, kIntegrity };

enum class OpKind : uint8_t {
  kStatRange, kStatSeries, kRawRange, kMultiStatRange, kVerifiedStatRange,
  // The reads end here.
  kCreate, kIngest, kDeleteRange, kRollup, kGrant, kRevoke, kAttest,
  kDeleteStream, kCompact, kRestart,
};
std::string OpName(OpKind kind);

inline constexpr int kOwner = -1;  // Op::reader; the consumers are 0 and 1

struct Op {
  OpKind kind = OpKind::kStatRange;
  size_t stream = 0;  // by creation order; a rollup creates the next one
  std::vector<size_t> others;  // kMultiStatRange: the streams after `stream`
  int reader = kOwner;         // reads; the consumer of kGrant and kRevoke
  StreamKind stream_kind = StreamKind::kHeac;  // kCreate
  int owner = 0;  // kCreate: 0 uploads one chunk at a time, 1 batches of 64
  TimeRange range{0, 0};  // reads, kDeleteRange, kGrant, kRevoke, kRollup
  int64_t step = 1;       // series and rollup windows, grant resolution
  /// kIngest: the points of each chunk from the stream's next one on; an
  /// empty chunk is a gap, and the last one holds points.
  std::vector<std::vector<index::DataPoint>> chunks;
};

struct Scenario {
  uint64_t seed = 0;
  std::vector<Op> ops;
};

Scenario Draw(uint64_t seed);

/// A read's answer, flattened: per aggregate its first chunk, last chunk,
/// sum and count; per raw point its timestamp and value.
using Numbers = std::vector<int64_t>;

/// What the stack must answer, from the acked writes alone.
struct Model {
  struct Chunk {
    std::vector<index::DataPoint> points;  // none without a payload
    int64_t sum = 0, count = 0;
  };
  struct Grant {
    int consumer;
    int64_t first, last, resolution;  // chunks [first, last)
  };
  struct Stream {
    bool plain = false;  // its aggregates open without keys
    int owner = 0;
    Timestamp t0 = 0;
    DurationMs delta = kDelta;
    bool alive = true;
    int64_t attested = 0;
    std::vector<Chunk> chunks;
    std::vector<Grant> grants;

    int64_t ChunkAt(Timestamp t) const { return (t - t0) / delta; }
    Timestamp Start(int64_t chunk) const { return t0 + chunk * delta; }
  };

  std::vector<Stream> streams;
  /// The model's self-test: the chunk (stream, index) whose expected sum is
  /// one more than the points it is ingested with.
  std::pair<size_t, int64_t> shifted{SIZE_MAX, 0};

  void Apply(const Op& op);  // an acked write
  Result<Numbers> Read(const Op& op) const;
};

struct Stack {
  std::function<std::shared_ptr<net::Transport>()> transport;
  std::function<Status()> restart;  // null: the stack does not restart
  std::function<Status()> compact;  // null: nothing to compact
};

class Runner {
 public:
  explicit Runner(Stack stack);

  /// Runs every op, checking every answer, then RecheckAll.
  Status Run(const Scenario& scenario);
  /// Reads every stream whole, and checks the server's stream count.
  Status RecheckAll();

  Model& model() { return model_; }
  uint64_t uuid(size_t stream) const { return uuids_[stream]; }

 private:
  Status Step(const Op& op);
  Result<Numbers> Read(const Op& op);
  Status Restart();
  void MakeClients();
  Status CheckGrants(int consumer);
  Status Fail(size_t stream, const std::string& what) const;
  client::OwnerClient& OwnerOf(size_t stream);

  Stack stack_;
  Model model_;
  std::string at_;  // "seed 1, op 12 stat_range", for failures
  std::vector<uint64_t> uuids_;
  std::vector<crypto::Key128> seeds_;  // of the created streams, for restarts
  client::OwnerOptions owner_options_[2];
  client::Principal principals_[2];
  std::unique_ptr<client::OwnerClient> owners_[2];
  std::unique_ptr<client::ConsumerClient> consumers_[2];
};

}  // namespace tc::testing
