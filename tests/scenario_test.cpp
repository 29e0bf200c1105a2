// The seeded scenario (tests/support/scenario.hpp), seeds 1-3, on four
// stacks: an engine over memory (on the Portable kernel arm too), two
// shards on log stores restarted halfway, two quorum-replicated shards
// whose primaries are dropped and followers promoted halfway, and two
// shards behind TCP. Plus the model's self-test.
#include <gtest/gtest.h>

#include "cluster/shard_router.hpp"
#include "net/tcp.hpp"
#include "replica/replica_set.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"
#include "tests/kernel_arms.hpp"
#include "tests/support/scenario.hpp"
#include "tests/temp_logs.hpp"

namespace tc {
namespace {

using cluster::ShardRouter;
using replica::ReplicaSet;
using testing::Runner;
using testing::Draw;

using Logs = std::vector<std::shared_ptr<store::LogKvStore>>;

std::shared_ptr<server::ServerEngine> Engine(
    uint32_t shard, std::shared_ptr<store::KvStore> kv =
                        std::make_shared<store::MemKvStore>()) {
  return std::make_shared<server::ServerEngine>(
      std::move(kv), server::ServerOptions{.shard_id = shard});
}

Status Compact(const Logs& logs) {
  for (const auto& log : logs) TC_RETURN_IF_ERROR(log->Compact().status());
  return Status::Ok();
}

/// `shifted`: the chunk whose expected sum is off by one (the self-test).
Status RunOnEngine(uint64_t seed, std::pair<size_t, int64_t> shifted = {
                                      SIZE_MAX, 0}) {
  std::shared_ptr<net::Transport> transport =
      std::make_shared<net::InProcTransport>(Engine(0));
  Runner runner({[&] { return transport; }});
  runner.model().shifted = shifted;
  return runner.Run(Draw(seed));
}

class ScenarioSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScenarioSeeds, EngineOverMemory) {
  Status run = RunOnEngine(GetParam());
  EXPECT_TRUE(run.ok()) << run.ToString();
}

TEST_P(ScenarioSeeds, LogShardsRestartHalfway) {
  testing::TempLogs logs;
  Logs kvs;
  std::shared_ptr<ShardRouter> router;
  const auto open = [&] {
    router.reset();
    kvs.clear();  // the old stores close before their logs reopen
    for (const char* name : {"s0", "s1"}) kvs.push_back(logs.Open(name));
    router = std::make_shared<ShardRouter>(
        std::vector{ReplicaSet::Single(Engine(0, kvs[0])),
                    ReplicaSet::Single(Engine(1, kvs[1]))});
    return Status::Ok();
  };
  ASSERT_TRUE(open().ok());
  Runner runner({[&] { return std::make_shared<net::InProcTransport>(router); },
                 open, [&] { return Compact(kvs); }});
  Status run = runner.Run(Draw(GetParam()));
  ASSERT_TRUE(run.ok()) << run.ToString();
  // Every stream lives on the shard its uuid hashes to, and only there.
  for (size_t s = 0; s < runner.model().streams.size(); ++s) {
    if (!runner.model().streams[s].alive) continue;
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(router->shard(i)->GetIndexForTesting(runner.uuid(s)).ok(),
                i == router->ShardOf(runner.uuid(s)))
          << "stream " << s << " shard " << i;
    }
  }
}

TEST_P(ScenarioSeeds, QuorumShardsPromoteHalfway) {
  testing::TempLogs logs;
  Logs primaries;
  std::vector<std::shared_ptr<ReplicaSet>> sets;
  replica::ReplicaSetOptions options;
  options.kv.ack = replica::AckMode::kQuorum;
  for (uint32_t i = 0; i < 2; ++i) {
    primaries.push_back(logs.Open("p" + std::to_string(i)));
    auto set = ReplicaSet::Make(primaries[i], {logs.Open(std::to_string(i))},
                                {.shard_id = i}, options);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    sets.push_back(*set);
  }
  std::shared_ptr<net::Transport> transport =
      std::make_shared<net::InProcTransport>(std::make_shared<ShardRouter>(sets));
  const auto promote = [&] {
    for (auto& set : sets) {
      TC_RETURN_IF_ERROR(set->DropPrimary());
      TC_RETURN_IF_ERROR(set->Promote());
    }
    return Status::Ok();
  };
  // The compaction runs before the promotion, on the first primaries.
  Status run = Runner({[&] { return transport; }, promote,
                       [&] { return Compact(primaries); }})
                   .Run(Draw(GetParam()));
  EXPECT_TRUE(run.ok()) << run.ToString();
  for (auto& set : sets) EXPECT_EQ(set->promotions(), 1u);
}

TEST_P(ScenarioSeeds, ShardsBehindTcp) {
  net::TcpServer server(
      std::make_shared<ShardRouter>(std::vector{Engine(0), Engine(1)}), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::shared_ptr<net::Transport> transport = std::move(*client);
  Status run = Runner({[&] { return transport; }}).Run(Draw(GetParam()));
  EXPECT_TRUE(run.ok()) << run.ToString();
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioSeeds, ::testing::Values(1, 2, 3));

// With the CPU feature table masked, HEAC and the GGM tree run on the
// bitsliced AES, payloads on the portable GCM and payload keys on the
// portable SHA-256.
class ScenarioKernels : public test::KernelArmTest {};
INSTANTIATE_TEST_SUITE_P(Kernels, ScenarioKernels,
                         ::testing::Values(test::KernelArm::kPortable),
                         test::KernelArmName);

TEST_P(ScenarioKernels, EngineOverMemory) {
  for (uint64_t seed : {1, 2, 3}) {
    Status run = RunOnEngine(seed);
    EXPECT_TRUE(run.ok()) << run.ToString();
  }
}

// As tcbench's --oracle-selftest: one chunk's expected sum off by one must
// fail the run, naming where.
TEST(ScenarioModel, OneChunkSumOffByOneFailsNamingSeedOpAndStream) {
  Status run = RunOnEngine(1, {0, 0});
  ASSERT_EQ(run.code(), StatusCode::kInternal) << run.ToString();
  for (const char* part : {"seed 1, op ", ", stream ", ": got [", "model ["}) {
    EXPECT_NE(run.message().find(part), std::string::npos) << run.ToString();
  }
}

}  // namespace
}  // namespace tc
