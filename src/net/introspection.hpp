// Process introspection: the one answer to every Route::kProcess frame
// (kMetricsInfo, kTraceInfo, kEventsInfo). The metrics registry, span ring
// and event journal are process-wide, so the engine, the shard router and
// the follower daemon all answer these frames the same way; only the gauges
// each refreshes before a metrics scrape differ.
#pragma once

#include <functional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/wire.hpp"

namespace tc::net {

/// Answer one Route::kProcess frame from this process's metrics registry,
/// span ring or event journal. `refresh_gauges`, when set, runs before a
/// metrics snapshot so the caller can publish gauges derived from its own
/// state. Any other frame type is InvalidArgument.
Result<Bytes> Introspect(MessageType type, BytesView body,
                         const std::function<void()>& refresh_gauges = {});

}  // namespace tc::net
