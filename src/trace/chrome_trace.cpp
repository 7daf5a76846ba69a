#include "trace/chrome_trace.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/flat_map.hpp"

namespace das::trace {

namespace {

// Process ids: servers first, clients in a disjoint range. Perfetto groups
// tracks by pid, so this yields one lane per simulated machine.
std::uint64_t server_pid(ServerId s) { return 1 + static_cast<std::uint64_t>(s); }
std::uint64_t client_pid(ClientId c) {
  return 1'000'000 + static_cast<std::uint64_t>(c);
}
/// Lane for cluster-wide fault instants (loss bursts) that target no server.
constexpr std::uint64_t kClusterPid = 2'000'000;

/// Round-trip double formatting; ts values are already in microseconds, the
/// trace-event native unit.
void num(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

/// Ids are emitted as decimal strings: request/op ids pack the client id in
/// the top bits and can exceed 2^53, where JSON numbers lose precision.
void id_str(std::ostream& os, std::uint64_t v) { os << '"' << v << '"'; }

/// One event object. `extra` (may be empty) is a pre-rendered fragment of
/// additional key/value pairs starting with ", ".
void event(std::ostream& os, bool& first, const char* ph, std::uint64_t pid,
           std::uint64_t tid, SimTime ts, const std::string& extra) {
  os << (first ? "\n" : ",\n") << R"(    {"ph": ")" << ph << R"(", "pid": )"
     << pid << R"(, "tid": )" << tid << R"(, "ts": )";
  first = false;
  num(os, ts);
  os << extra << "}";
}

}  // namespace

void render_chrome_trace(std::ostream& os, const Tracer& tracer) {
  // Participants, in deterministic (sorted) order for the metadata block.
  std::set<ServerId> servers;
  std::set<ClientId> clients;
  // Servers with store-model activity get an extra "storage" lane; tracked
  // separately so synthetic-mode traces stay byte-identical.
  std::set<ServerId> store_servers;
  bool cluster_lane = false;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.server != kInvalidServer) servers.insert(ev.server);
    if (ev.kind == EventKind::kFaultEvent && ev.server == kInvalidServer)
      cluster_lane = true;
    if (ev.kind == EventKind::kStoreEvent ||
        ev.kind == EventKind::kStoreCounterSample) {
      store_servers.insert(ev.server);
    }
    switch (ev.kind) {
      case EventKind::kRequestArrival:
      case EventKind::kOpSend:
      case EventKind::kResponse:
      case EventKind::kRequestComplete:
      case EventKind::kRequestShed:
      case EventKind::kRequestExpired:
        clients.insert(ev.client);
        break;
      default:
        break;
    }
  }

  os << "{\n  \"traceEvents\": [";
  bool first = true;

  const auto meta = [&](const char* what, std::uint64_t pid, std::uint64_t tid,
                        const std::string& name) {
    std::ostringstream extra;
    extra << R"(, "name": ")" << what << R"(", "args": {"name": ")" << name
          << R"("})";
    event(os, first, "M", pid, tid, 0, extra.str());
  };
  for (const ServerId s : servers) {
    meta("process_name", server_pid(s), 0, "server " + std::to_string(s));
    meta("thread_name", server_pid(s), 0, "service");
    meta("thread_name", server_pid(s), 1, "scheduler");
    if (store_servers.count(s) != 0)
      meta("thread_name", server_pid(s), 2, "storage");
  }
  for (const ClientId c : clients) {
    meta("process_name", client_pid(c), 0, "client " + std::to_string(c));
    meta("thread_name", client_pid(c), 0, "requests");
  }
  if (cluster_lane) meta("process_name", kClusterPid, 0, "cluster");

  // Ops currently shown inside an async "deferred" span; lets the writer
  // close spans for ops served straight out of the deferred set (no resume
  // event) and keep begin/end balanced.
  FlatSet<OperationId> deferred_open;  // membership only, never iterated
  const auto close_deferred = [&](const TraceEvent& ev) {
    if (deferred_open.erase(ev.op) == 0) return;
    std::ostringstream extra;
    extra << R"(, "cat": "deferred", "name": "deferred", "id": )";
    id_str(extra, ev.op);
    event(os, first, "e", server_pid(ev.server), 0, ev.t, extra.str());
  };

  for (const TraceEvent& ev : tracer.events()) {
    std::ostringstream extra;
    switch (ev.kind) {
      case EventKind::kRequestArrival:
        extra << R"(, "cat": "request", "name": "request", "id": )";
        id_str(extra, ev.request);
        extra << R"(, "args": {"fanout": )";
        num(extra, ev.a);
        extra << "}";
        event(os, first, "b", client_pid(ev.client), 0, ev.t, extra.str());
        break;
      case EventKind::kOpSend:
        extra << R"(, "cat": "op", "name": "op", "id": )";
        id_str(extra, ev.op);
        extra << R"(, "args": {"request": )";
        id_str(extra, ev.request);
        extra << R"(, "server": )" << ev.server << R"(, "demand_us": )";
        num(extra, ev.a);
        extra << R"(, "resend": )" << (ev.b != 0 ? "true" : "false") << "}";
        event(os, first, "s", client_pid(ev.client), 0, ev.t, extra.str());
        break;
      case EventKind::kServerEnqueue:
        extra << R"(, "cat": "op", "name": "op", "id": )";
        id_str(extra, ev.op);
        extra << R"(, "args": {"request": )";
        id_str(extra, ev.request);
        extra << "}";
        event(os, first, "t", server_pid(ev.server), 0, ev.t, extra.str());
        break;
      case EventKind::kOpDefer:
        if (deferred_open.insert(ev.op)) {
          extra << R"(, "cat": "deferred", "name": "deferred", "id": )";
          id_str(extra, ev.op);
          extra << R"(, "args": {"request": )";
          id_str(extra, ev.request);
          extra << R"(, "est_other_completion": )";
          num(extra, ev.a);
          extra << "}";
          event(os, first, "b", server_pid(ev.server), 0, ev.t, extra.str());
        }
        break;
      case EventKind::kOpResume:
        close_deferred(ev);
        break;
      case EventKind::kOpRerank:
        extra << R"(, "s": "t", "name": "rerank", "args": {"op": )";
        id_str(extra, ev.op);
        extra << R"(, "old_key": )";
        num(extra, ev.a);
        extra << R"(, "new_key": )";
        num(extra, ev.b);
        extra << "}";
        event(os, first, "i", server_pid(ev.server), 1, ev.t, extra.str());
        break;
      case EventKind::kAgingPromotion:
        extra << R"(, "s": "t", "name": "aging_promotion", "args": {"op": )";
        id_str(extra, ev.op);
        extra << R"(, "waited_us": )";
        num(extra, ev.a);
        extra << "}";
        event(os, first, "i", server_pid(ev.server), 1, ev.t, extra.str());
        break;
      case EventKind::kServiceStart:
        close_deferred(ev);
        extra << R"(, "name": "serve", "args": {"op": )";
        id_str(extra, ev.op);
        extra << R"(, "request": )";
        id_str(extra, ev.request);
        extra << R"(, "demand_us": )";
        num(extra, ev.a);
        extra << "}";
        event(os, first, "B", server_pid(ev.server), 0, ev.t, extra.str());
        break;
      case EventKind::kServiceEnd:
        extra << R"(, "name": "serve")";
        event(os, first, "E", server_pid(ev.server), 0, ev.t, extra.str());
        break;
      case EventKind::kResponse:
        extra << R"(, "cat": "op", "name": "op", "bp": "e", "id": )";
        id_str(extra, ev.op);
        event(os, first, "f", client_pid(ev.client), 0, ev.t, extra.str());
        break;
      case EventKind::kRequestComplete:
        extra << R"(, "cat": "request", "name": "request", "id": )";
        id_str(extra, ev.request);
        extra << R"(, "args": {"rct_us": )";
        num(extra, ev.a);
        extra << "}";
        event(os, first, "e", client_pid(ev.client), 0, ev.t, extra.str());
        break;
      case EventKind::kCounterSample: {
        const char* names[] = {"backlog_us", "mu_hat", "runnable", "deferred"};
        const double values[] = {ev.a, ev.b, ev.c, ev.d};
        for (int i = 0; i < 4; ++i) {
          std::ostringstream cx;
          cx << R"(, "name": ")" << names[i] << R"(", "args": {")" << names[i]
             << R"(": )";
          num(cx, values[i]);
          cx << "}";
          event(os, first, "C", server_pid(ev.server), 0, ev.t, cx.str());
        }
        break;
      }
      case EventKind::kFaultEvent: {
        const auto fault = static_cast<FaultTraceKind>(static_cast<int>(ev.a));
        extra << R"(, "s": "p", "cat": "fault", "name": "fault:)"
              << to_string(fault) << R"(", "args": {"factor": )";
        num(extra, ev.b);
        extra << "}";
        const bool on_server = ev.server != kInvalidServer;
        event(os, first, "i", on_server ? server_pid(ev.server) : kClusterPid,
              0, ev.t, extra.str());
        break;
      }
      case EventKind::kStoreEvent: {
        const auto kind = static_cast<StoreTraceKind>(static_cast<int>(ev.a));
        // Compaction and write-stall window edges render as async spans on
        // the storage lane; one id per (category, server) suffices because a
        // model never overlaps two windows of the same kind.
        const auto span = [&](const char* cat, bool begin) {
          extra << R"(, "cat": ")" << cat << R"(", "name": ")" << cat
                << R"(", "id": )";
          id_str(extra, ev.server);
          if (begin) {
            extra << R"(, "args": {"debt_bytes": )";
            num(extra, ev.b);
            extra << "}";
          }
          event(os, first, begin ? "b" : "e", server_pid(ev.server), 2, ev.t,
                extra.str());
        };
        switch (kind) {
          case StoreTraceKind::kCompactionStart: span("compaction", true); break;
          case StoreTraceKind::kCompactionEnd: span("compaction", false); break;
          case StoreTraceKind::kWriteStallStart: span("write_stall", true); break;
          case StoreTraceKind::kWriteStallEnd: span("write_stall", false); break;
          case StoreTraceKind::kFlush:
            extra << R"(, "s": "t", "name": "flush", "args": {"debt_bytes": )";
            num(extra, ev.b);
            extra << "}";
            event(os, first, "i", server_pid(ev.server), 2, ev.t, extra.str());
            break;
        }
        break;
      }
      case EventKind::kStoreCounterSample: {
        const char* names[] = {"memtable_fill_bytes", "compaction_debt_bytes",
                               "l0_runs"};
        const double values[] = {ev.a, ev.b, ev.c};
        for (int i = 0; i < 3; ++i) {
          std::ostringstream cx;
          cx << R"(, "name": ")" << names[i] << R"(", "args": {")" << names[i]
             << R"(": )";
          num(cx, values[i]);
          cx << "}";
          event(os, first, "C", server_pid(ev.server), 0, ev.t, cx.str());
        }
        break;
      }
      case EventKind::kOpShed: {
        // An op shed at dequeue may still be inside a "deferred" span.
        close_deferred(ev);
        const auto reason = static_cast<OpShedReason>(static_cast<int>(ev.a));
        extra << R"(, "s": "t", "cat": "overload", "name": "shed:)"
              << to_string(reason) << R"(", "args": {"op": )";
        id_str(extra, ev.op);
        extra << R"(, "request": )";
        id_str(extra, ev.request);
        extra << "}";
        event(os, first, "i", server_pid(ev.server), 0, ev.t, extra.str());
        break;
      }
      case EventKind::kRequestShed:
        // Shedding closes the request's async span, like completion.
        extra << R"(, "cat": "request", "name": "request", "id": )";
        id_str(extra, ev.request);
        extra << R"(, "args": {"outcome": "shed", "age_us": )";
        num(extra, ev.a);
        extra << R"(, "at_admission": )" << (ev.b != 0 ? "true" : "false")
              << "}";
        event(os, first, "e", client_pid(ev.client), 0, ev.t, extra.str());
        break;
      case EventKind::kRequestExpired:
        extra << R"(, "cat": "request", "name": "request", "id": )";
        id_str(extra, ev.request);
        extra << R"(, "args": {"outcome": "expired", "age_us": )";
        num(extra, ev.a);
        extra << "}";
        event(os, first, "e", client_pid(ev.client), 0, ev.t, extra.str());
        break;
    }
  }

  os << (first ? "]" : "\n  ]") << ",\n  \"displayTimeUnit\": \"ms\",\n"
     << "  \"otherData\": {\"tool\": \"dassim\", \"event_cap\": " << tracer.cap()
     << ", \"dropped_events\": " << tracer.dropped()
     << ", \"counter_stride\": " << tracer.counter_stride() << "}\n}\n";
}

std::string chrome_trace_string(const Tracer& tracer) {
  std::ostringstream os;
  render_chrome_trace(os, tracer);
  return os.str();
}

void write_chrome_trace(const std::string& path, const Tracer& tracer) {
  std::ofstream out{path};
  if (!out.good()) throw std::runtime_error("cannot open trace output file: " + path);
  render_chrome_trace(out, tracer);
  out.flush();
  if (!out.good()) {
    throw std::runtime_error("failed writing trace output file: " + path);
  }
}

}  // namespace das::trace
