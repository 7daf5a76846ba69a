#include "trace/tracer.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "common/check.hpp"

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

// Threads of a server process.
constexpr std::uint64_t kServiceTid = 0;    // service slices, spans, counters
constexpr std::uint64_t kSchedulerTid = 1;  // mechanism instants
constexpr std::uint64_t kStorageTid = 2;    // store-model windows

constexpr std::uint8_t kProcessNamed = 1;
constexpr std::uint8_t kStorageNamed = 2;

/// Round-trip double formatting; ts values are already in microseconds, the
/// trace-event native unit.
struct Num {
  double v;
};
std::ostream& operator<<(std::ostream& os, Num n) {
  if (!std::isfinite(n.v)) return os << "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", n.v);
  return os << buf;
}

/// Ids are written as decimal strings: request/op ids pack the client id in
/// the top bits and can exceed 2^53, where JSON numbers lose precision.
struct Id {
  std::uint64_t v;
};
std::ostream& operator<<(std::ostream& os, Id id) {
  return os << '"' << id.v << '"';
}

const char* flag(bool b) { return b ? "true" : "false"; }

const char* to_string(FaultTraceKind kind) {
  switch (kind) {
    case FaultTraceKind::kCrash: return "crash";
    case FaultTraceKind::kRecover: return "recover";
    case FaultTraceKind::kSlowStart: return "slow_start";
    case FaultTraceKind::kSlowEnd: return "slow_end";
    case FaultTraceKind::kPartition: return "partition";
    case FaultTraceKind::kHeal: return "heal";
    case FaultTraceKind::kLossStart: return "loss_start";
    case FaultTraceKind::kLossEnd: return "loss_end";
  }
  DAS_CHECK_MSG(false, "unknown fault trace kind");
  return "?";
}

const char* to_string(OpShedReason reason) {
  switch (reason) {
    case OpShedReason::kQueueFull: return "queue_full";
    case OpShedReason::kSojourn: return "sojourn";
    case OpShedReason::kExpired: return "expired";
  }
  DAS_CHECK_MSG(false, "unknown op shed reason");
  return "?";
}

}  // namespace

Tracer::Tracer(std::ostream& out, std::size_t cap) : out_(out), cap_(cap) {
  DAS_CHECK(cap_ > 0);
  out_ << "{\n  \"traceEvents\": [";
}

bool Tracer::admit() {
  if (retained_ >= cap_) {
    ++dropped_;
    return false;
  }
  ++retained_;
  return true;
}

std::ostream& Tracer::event(const char* ph, std::uint64_t pid,
                            std::uint64_t tid, SimTime ts) {
  out_ << (first_event_ ? "\n" : ",\n") << R"(    {"ph": ")" << ph
       << R"(", "pid": )" << pid << R"(, "tid": )" << tid << R"(, "ts": )"
       << Num{ts};
  first_event_ = false;
  return out_;
}

void Tracer::name_lane(const char* what, std::uint64_t pid, std::uint64_t tid,
                       const std::string& name) {
  event("M", pid, tid, 0) << R"(, "name": ")" << what
                          << R"(", "args": {"name": ")" << name << R"("}})";
}

std::uint64_t Tracer::server_lane(ServerId server) {
  if (server >= server_named_.size()) server_named_.resize(server + 1, 0);
  const std::uint64_t pid = server_pid(server);
  if ((server_named_[server] & kProcessNamed) == 0) {
    server_named_[server] |= kProcessNamed;
    name_lane("process_name", pid, 0, "server " + std::to_string(server));
    name_lane("thread_name", pid, kServiceTid, "service");
    name_lane("thread_name", pid, kSchedulerTid, "scheduler");
  }
  return pid;
}

std::uint64_t Tracer::storage_lane(ServerId server) {
  const std::uint64_t pid = server_lane(server);
  if ((server_named_[server] & kStorageNamed) == 0) {
    server_named_[server] |= kStorageNamed;
    name_lane("thread_name", pid, kStorageTid, "storage");
  }
  return pid;
}

std::uint64_t Tracer::client_lane(ClientId client) {
  if (client >= client_named_.size()) client_named_.resize(client + 1, false);
  const std::uint64_t pid = client_pid(client);
  if (!client_named_[client]) {
    client_named_[client] = true;
    name_lane("process_name", pid, 0, "client " + std::to_string(client));
    name_lane("thread_name", pid, 0, "requests");
  }
  return pid;
}

std::uint64_t Tracer::cluster_lane() {
  if (!cluster_named_) {
    cluster_named_ = true;
    name_lane("process_name", kClusterPid, 0, "cluster");
  }
  return kClusterPid;
}

void Tracer::counter(SimTime t, ServerId server, const char* name,
                     double value) {
  event("C", server_lane(server), kServiceTid, t)
      << R"(, "name": ")" << name << R"(", "args": {")" << name << R"(": )"
      << Num{value} << "}}";
}

void Tracer::close_deferred(SimTime t, OperationId op, ServerId server) {
  if (deferred_open_.erase(op) == 0) return;
  event("e", server_lane(server), kServiceTid, t)
      << R"(, "cat": "deferred", "name": "deferred", "id": )" << Id{op} << "}";
}

void Tracer::request_arrival(SimTime t, RequestId request, ClientId client,
                             std::size_t fanout) {
  if (!admit()) return;
  event("b", client_lane(client), 0, t)
      << R"(, "cat": "request", "name": "request", "id": )" << Id{request}
      << R"(, "args": {"fanout": )" << Num{static_cast<double>(fanout)}
      << "}}";
}

void Tracer::op_send(SimTime t, OperationId op, RequestId request,
                     ClientId client, ServerId server, double demand_us,
                     bool resend) {
  if (!admit()) return;
  event("s", client_lane(client), 0, t)
      << R"(, "cat": "op", "name": "op", "id": )" << Id{op}
      << R"(, "args": {"request": )" << Id{request} << R"(, "server": )"
      << server << R"(, "demand_us": )" << Num{demand_us}
      << R"(, "resend": )" << flag(resend) << "}}";
}

void Tracer::server_enqueue(SimTime t, OperationId op, RequestId request,
                            ServerId server) {
  if (!admit()) return;
  event("t", server_lane(server), kServiceTid, t)
      << R"(, "cat": "op", "name": "op", "id": )" << Id{op}
      << R"(, "args": {"request": )" << Id{request} << "}}";
}

void Tracer::op_defer(SimTime t, OperationId op, RequestId request,
                      ServerId server, SimTime est_other_completion) {
  if (!admit() || !deferred_open_.insert(op)) return;
  event("b", server_lane(server), kServiceTid, t)
      << R"(, "cat": "deferred", "name": "deferred", "id": )" << Id{op}
      << R"(, "args": {"request": )" << Id{request}
      << R"(, "est_other_completion": )" << Num{est_other_completion} << "}}";
}

void Tracer::op_resume(SimTime t, OperationId op, RequestId /*request*/,
                       ServerId server) {
  if (!admit()) return;
  close_deferred(t, op, server);
}

void Tracer::op_rerank(SimTime t, OperationId op, RequestId /*request*/,
                       ServerId server, double old_key, double new_key) {
  if (!admit()) return;
  event("i", server_lane(server), kSchedulerTid, t)
      << R"(, "s": "t", "name": "rerank", "args": {"op": )" << Id{op}
      << R"(, "old_key": )" << Num{old_key} << R"(, "new_key": )"
      << Num{new_key} << "}}";
}

void Tracer::aging_promotion(SimTime t, OperationId op, RequestId /*request*/,
                             ServerId server, Duration waited_us) {
  if (!admit()) return;
  event("i", server_lane(server), kSchedulerTid, t)
      << R"(, "s": "t", "name": "aging_promotion", "args": {"op": )" << Id{op}
      << R"(, "waited_us": )" << Num{waited_us} << "}}";
}

void Tracer::service_start(SimTime t, OperationId op, RequestId request,
                           ServerId server, double demand_us) {
  if (!admit()) return;
  close_deferred(t, op, server);
  event("B", server_lane(server), kServiceTid, t)
      << R"(, "name": "serve", "args": {"op": )" << Id{op}
      << R"(, "request": )" << Id{request} << R"(, "demand_us": )"
      << Num{demand_us} << "}}";
}

void Tracer::service_end(SimTime t, OperationId /*op*/, RequestId /*request*/,
                         ServerId server) {
  if (!admit()) return;
  event("E", server_lane(server), kServiceTid, t) << R"(, "name": "serve"})";
}

void Tracer::response(SimTime t, OperationId op, RequestId /*request*/,
                      ClientId client, ServerId /*server*/) {
  if (!admit()) return;
  event("f", client_lane(client), 0, t)
      << R"(, "cat": "op", "name": "op", "bp": "e", "id": )" << Id{op} << "}";
}

void Tracer::request_complete(SimTime t, RequestId request, ClientId client,
                              double rct_us) {
  if (!admit()) return;
  event("e", client_lane(client), 0, t)
      << R"(, "cat": "request", "name": "request", "id": )" << Id{request}
      << R"(, "args": {"rct_us": )" << Num{rct_us} << "}}";
}

void Tracer::counter_sample(SimTime t, ServerId server, double backlog_us,
                            double mu_hat, std::size_t runnable,
                            std::size_t deferred) {
  if (!admit()) return;
  counter(t, server, "backlog_us", backlog_us);
  counter(t, server, "mu_hat", mu_hat);
  counter(t, server, "runnable", static_cast<double>(runnable));
  counter(t, server, "deferred", static_cast<double>(deferred));
}

void Tracer::fault_event(SimTime t, FaultTraceKind fault, ServerId server,
                         double factor) {
  if (!admit()) return;
  const std::uint64_t pid =
      server != kInvalidServer ? server_lane(server) : cluster_lane();
  event("i", pid, 0, t) << R"(, "s": "p", "cat": "fault", "name": "fault:)"
                        << to_string(fault) << R"(", "args": {"factor": )"
                        << Num{factor} << "}}";
}

void Tracer::store_transition(SimTime t, StoreTraceKind kind, ServerId server,
                              double debt_bytes) {
  if (!admit()) return;
  const std::uint64_t pid = storage_lane(server);
  // Compaction and write-stall window edges render as async spans on the
  // storage lane; one id per (category, server) suffices because a model
  // never overlaps two windows of the same kind.
  const auto span = [&](const char* cat, bool begin) {
    std::ostream& os = event(begin ? "b" : "e", pid, kStorageTid, t)
                       << R"(, "cat": ")" << cat << R"(", "name": ")" << cat
                       << R"(", "id": )" << Id{server};
    if (begin) os << R"(, "args": {"debt_bytes": )" << Num{debt_bytes} << "}";
    os << "}";
  };
  switch (kind) {
    case StoreTraceKind::kCompactionStart: span("compaction", true); break;
    case StoreTraceKind::kCompactionEnd: span("compaction", false); break;
    case StoreTraceKind::kWriteStallStart: span("write_stall", true); break;
    case StoreTraceKind::kWriteStallEnd: span("write_stall", false); break;
    case StoreTraceKind::kFlush:
      event("i", pid, kStorageTid, t)
          << R"(, "s": "t", "name": "flush", "args": {"debt_bytes": )"
          << Num{debt_bytes} << "}}";
      break;
  }
}

void Tracer::store_counter_sample(SimTime t, ServerId server,
                                  double memtable_fill_bytes,
                                  double compaction_debt_bytes,
                                  std::size_t l0_runs) {
  if (!admit()) return;
  storage_lane(server);
  counter(t, server, "memtable_fill_bytes", memtable_fill_bytes);
  counter(t, server, "compaction_debt_bytes", compaction_debt_bytes);
  counter(t, server, "l0_runs", static_cast<double>(l0_runs));
}

void Tracer::op_shed(SimTime t, OperationId op, RequestId request,
                     ServerId server, OpShedReason reason) {
  if (!admit()) return;
  // An op shed at dequeue may still be inside a "deferred" span.
  close_deferred(t, op, server);
  event("i", server_lane(server), kServiceTid, t)
      << R"(, "s": "t", "cat": "overload", "name": "shed:)" << to_string(reason)
      << R"(", "args": {"op": )" << Id{op} << R"(, "request": )"
      << Id{request} << "}}";
}

void Tracer::request_shed(SimTime t, RequestId request, ClientId client,
                          double age_us, bool at_admission) {
  if (!admit()) return;
  // Shedding closes the request's async span, like completion.
  event("e", client_lane(client), 0, t)
      << R"(, "cat": "request", "name": "request", "id": )" << Id{request}
      << R"(, "args": {"outcome": "shed", "age_us": )" << Num{age_us}
      << R"(, "at_admission": )" << flag(at_admission) << "}}";
}

void Tracer::request_expired(SimTime t, RequestId request, ClientId client,
                             double age_us) {
  if (!admit()) return;
  event("e", client_lane(client), 0, t)
      << R"(, "cat": "request", "name": "request", "id": )" << Id{request}
      << R"(, "args": {"outcome": "expired", "age_us": )" << Num{age_us}
      << "}}";
}

void Tracer::finish() {
  out_ << (first_event_ ? "]" : "\n  ]") << ",\n  \"displayTimeUnit\": \"ms\",\n"
       << "  \"otherData\": {\"tool\": \"dassim\", \"event_cap\": "
       << cap_ << ", \"dropped_events\": " << dropped_
       << ", \"counter_stride\": " << kCounterStride << "}\n}\n";
  out_.flush();
  if (!out_) throw std::runtime_error("failed writing the Chrome trace");
}

}  // namespace das::trace
