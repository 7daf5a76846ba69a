// Chrome trace-event writer for the full operation lifecycle (the output
// loads directly in Perfetto / chrome://tracing).
//
// The tracer answers "where did this request's time go, mechanically" at
// event granularity: request arrival, per-op send, server enqueue, the DAS
// mechanism actions (defer, resume, re-rank, aging promotion), service
// start/end, response and request completion, plus sampled per-server
// counters (backlog, mu_hat, runnable/deferred queue depths).
//
// Layout: one "process" per server (service slices on thread 0, scheduler
// mechanism instants on thread 1, store-model windows on thread 2, counter
// tracks) and one per client (async request-lifetime spans). Flow events
// stitch a request's operations across processes: op send (client) -> server
// enqueue -> response delivery (client), so the fan-out and the critical path
// are visible as arrows.
//
// Design constraints, in order:
//   * Zero overhead when disabled. Every producer holds a nullable
//     `Tracer*`; a null pointer means not a single instruction beyond the
//     branch runs. No simulator events, no RNG draws, no message-size
//     changes ever originate here, so a traced run is bit-identical (all
//     ExperimentResult fields) to an untraced one.
//   * Streamed. Each emitter renders its event object straight to the output
//     stream, one event per line; a lane's name metadata is written just
//     before its first event. Memory stays flat however long the run.
//   * Deterministic. Events are written in dispatch order with simulation
//     timestamps only, doubles with round-trip precision; two traced runs
//     with the same seed produce byte-identical files.
//   * Bounded. A configurable cap stops writing; overflow is counted
//     explicitly (dropped()) and reported in the footer instead of silently
//     truncating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace das::trace {

/// Mirror of fault::FaultKind so the trace layer stays independent of the
/// fault library; the Cluster maps between the two when it executes a plan.
enum class FaultTraceKind : std::uint8_t {
  kCrash,
  kRecover,
  kSlowStart,
  kSlowEnd,
  kPartition,
  kHeal,
  kLossStart,
  kLossEnd,
};

/// Mirror of store::StoreTransitionKind so the trace layer stays independent
/// of the store library; the Server maps between the two when it forwards a
/// model transition.
enum class StoreTraceKind : std::uint8_t {
  kCompactionStart,
  kCompactionEnd,
  kWriteStallStart,
  kWriteStallEnd,
  kFlush,
};

/// Why the overload layer shed an op.
enum class OpShedReason : std::uint8_t {
  kQueueFull,     // bounded queue at cap: arrival rejected BUSY
  kSojourn,       // sojourn-drop policy: waited past the threshold
  kExpired,       // end-to-end deadline passed before dispatch
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCap = 1u << 20;
  /// Servers emit one counter sample every kCounterStride received ops.
  static constexpr std::size_t kCounterStride = 16;

  /// Writes the trace header to `out`, which must outlive the tracer. At
  /// most `cap` events are written; later ones are counted as dropped.
  explicit Tracer(std::ostream& out, std::size_t cap = kDefaultCap);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- typed emitters: each renders one event kind ------------------------
  void request_arrival(SimTime t, RequestId request, ClientId client,
                       std::size_t fanout);
  /// `resend` marks retransmissions and hedge copies.
  void op_send(SimTime t, OperationId op, RequestId request, ClientId client,
               ServerId server, double demand_us, bool resend);
  void server_enqueue(SimTime t, OperationId op, RequestId request,
                      ServerId server);
  /// Opens the op's "deferred" span (a repeat defer of an open span writes
  /// nothing); resume, service start or a shed closes it.
  void op_defer(SimTime t, OperationId op, RequestId request, ServerId server,
                SimTime est_other_completion);
  void op_resume(SimTime t, OperationId op, RequestId request, ServerId server);
  void op_rerank(SimTime t, OperationId op, RequestId request, ServerId server,
                 double old_key, double new_key);
  void aging_promotion(SimTime t, OperationId op, RequestId request,
                       ServerId server, Duration waited_us);
  void service_start(SimTime t, OperationId op, RequestId request,
                     ServerId server, double demand_us);
  void service_end(SimTime t, OperationId op, RequestId request, ServerId server);
  void response(SimTime t, OperationId op, RequestId request, ClientId client,
                ServerId server);
  void request_complete(SimTime t, RequestId request, ClientId client,
                        double rct_us);
  void counter_sample(SimTime t, ServerId server, double backlog_us,
                      double mu_hat, std::size_t runnable, std::size_t deferred);
  /// `server` is kInvalidServer for cluster-wide faults (loss bursts), which
  /// land on a "cluster" lane; `factor` carries the slowdown multiplier or
  /// burst loss probability.
  void fault_event(SimTime t, FaultTraceKind fault, ServerId server,
                   double factor);
  /// Store-model transition (compaction/stall window edge, memtable flush);
  /// `debt_bytes` is the compaction debt outstanding at the transition.
  void store_transition(SimTime t, StoreTraceKind kind, ServerId server,
                        double debt_bytes);
  /// Sampled store-model gauges; piggybacks on the same arrival stride as
  /// counter_sample.
  void store_counter_sample(SimTime t, ServerId server,
                            double memtable_fill_bytes,
                            double compaction_debt_bytes, std::size_t l0_runs);
  /// Overload layer: server shed one op (BUSY rejection, sojourn or expiry
  /// drop — `reason` says which).
  void op_shed(SimTime t, OperationId op, RequestId request, ServerId server,
               OpShedReason reason);
  /// Overload layer: the whole request was shed client-side. `at_admission`
  /// marks refusals before any op was sent.
  void request_shed(SimTime t, RequestId request, ClientId client,
                    double age_us, bool at_admission);
  /// Overload layer: the request's end-to-end deadline passed.
  void request_expired(SimTime t, RequestId request, ClientId client,
                       double age_us);

  /// Closes the event array and writes the `otherData` footer (cap, drop
  /// count, counter stride). Call once, after the run; throws
  /// std::runtime_error if the stream failed at any point.
  void finish();

  /// Events written (each emitter call is one event, whatever it renders).
  std::uint64_t retained() const { return retained_; }
  /// Events rejected by the cap (explicit drop accounting: retained +
  /// dropped = offered).
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t offered() const { return retained_ + dropped_; }
  std::size_t cap() const { return cap_; }

 private:
  /// Counts one offered event; false once the cap is reached.
  bool admit();
  /// Starts one event line: `{"ph": .., "pid": .., "tid": .., "ts": ..`. The
  /// caller appends its fields and the closing brace.
  std::ostream& event(const char* ph, std::uint64_t pid, std::uint64_t tid,
                      SimTime ts);
  /// Lane pids; each names its lane the first time it is asked for.
  std::uint64_t server_lane(ServerId server);
  std::uint64_t storage_lane(ServerId server);
  std::uint64_t client_lane(ClientId client);
  std::uint64_t cluster_lane();
  void name_lane(const char* what, std::uint64_t pid, std::uint64_t tid,
                 const std::string& name);
  void counter(SimTime t, ServerId server, const char* name, double value);
  /// Ends the op's "deferred" span if one is open.
  void close_deferred(SimTime t, OperationId op, ServerId server);

  std::ostream& out_;
  std::size_t cap_;
  std::uint64_t retained_ = 0;
  std::uint64_t dropped_ = 0;
  bool first_event_ = true;
  /// Per server: bit 0 = process named, bit 1 = storage thread named.
  std::vector<std::uint8_t> server_named_;
  std::vector<bool> client_named_;
  bool cluster_named_ = false;
  /// Ops inside an open "deferred" span; lets the writer close spans for ops
  /// served straight out of the deferred set (no resume) and keep begin/end
  /// balanced. Membership only, never iterated.
  FlatSet<OperationId> deferred_open_;
};

}  // namespace das::trace
