#include "net/introspection.hpp"

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "net/messages.hpp"

namespace tc::net {

namespace {

/// Every metric the registry holds.
MetricsInfoResponse FromRegistry() {
  MetricsInfoResponse resp;
  for (const metrics::MetricSample& s :
       metrics::MetricsRegistry::Instance().Collect()) {
    MetricsInfoResponse::Entry e;
    e.kind = static_cast<uint8_t>(s.kind);
    e.name = s.name;
    e.labels = s.labels;
    e.value = s.value;
    e.count = s.hist.count;
    e.sum = s.hist.sum;
    e.max = s.hist.max;
    e.p50 = s.hist.p50;
    e.p95 = s.hist.p95;
    e.p99 = s.hist.p99;
    resp.entries.push_back(std::move(e));
  }
  return resp;
}

/// The process span ring, filtered by the request.
TraceInfoResponse FromRing(const TraceInfoRequest& req) {
  TraceInfoResponse resp;
  resp.dropped = trace::Ring().dropped();
  for (const trace::SpanRecord& r : trace::Ring().Snapshot()) {
    if (req.trace_id != 0 && r.trace_id != req.trace_id) continue;
    if (req.slow_only != 0 && !r.slow) continue;
    TraceInfoResponse::Span s;
    s.trace_id = r.trace_id;
    s.span_id = r.span_id;
    s.parent_span_id = r.parent_span_id;
    s.op = r.op;
    s.msg_type = r.msg_type;
    s.shard = r.shard;
    s.start_us = r.start_us;
    s.duration_us = r.duration_us;
    s.slow = r.slow ? 1 : 0;
    resp.spans.push_back(std::move(s));
  }
  return resp;
}

/// The process event journal from req.min_seq.
EventsInfoResponse FromJournal(const EventsInfoRequest& req) {
  EventsInfoResponse resp;
  resp.dropped = trace::EventJournal::Instance().dropped();
  for (trace::Event& e :
       trace::EventJournal::Instance().Snapshot(req.min_seq)) {
    EventsInfoResponse::Event out;
    out.seq = e.seq;
    out.wall_ms = e.wall_ms;
    out.kind = std::move(e.kind);
    out.shard = e.shard;
    out.detail = std::move(e.detail);
    resp.events.push_back(std::move(out));
  }
  return resp;
}

}  // namespace

Result<Bytes> Introspect(MessageType type, BytesView body,
                         const std::function<void()>& refresh_gauges) {
  switch (type) {
    case MessageType::kMetricsInfo:
      if (refresh_gauges) refresh_gauges();
      return FromRegistry().Encode();
    case MessageType::kTraceInfo: {
      TC_ASSIGN_OR_RETURN(auto req, TraceInfoRequest::Decode(body));
      return FromRing(req).Encode();
    }
    case MessageType::kEventsInfo: {
      TC_ASSIGN_OR_RETURN(auto req, EventsInfoRequest::Decode(body));
      return FromJournal(req).Encode();
    }
    default:
      return InvalidArgument(std::string("not an introspection frame: ") +
                             MessageTypeName(type));
  }
}

}  // namespace tc::net
