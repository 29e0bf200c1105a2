// Process introspection: the one answer to every Route::kProcess frame
// (kMetricsInfo, kTraceInfo, kEventsInfo). The metrics registry, span ring
// and event journal are process-wide, so the engine, the shard router and
// the follower daemon all answer these frames the same way; only the gauges
// each refreshes before a metrics scrape differ.
#pragma once

#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/messages.hpp"
#include "net/wire.hpp"

namespace tc::net {

/// Answer one Route::kProcess frame from this process's metrics registry,
/// span ring or event journal. `refresh_gauges`, when set, runs before a
/// metrics snapshot so the caller can publish gauges derived from its own
/// state. Any other frame type is InvalidArgument.
Result<Bytes> Introspect(MessageType type, BytesView body,
                         const std::function<void()>& refresh_gauges = {});

/// Publish one kClusterInfo row as shard-labeled gauges (tc_cluster_streams,
/// tc_cluster_index_bytes, tc_store_dead_bytes, tc_store_compactions), so
/// the wire response and the Prometheus exposition share a single source.
/// Returns the label set, `shard="<info.shard>"`, for further gauges.
std::string PublishShardGauges(const ClusterInfoResponse::ShardInfo& info);

}  // namespace tc::net
