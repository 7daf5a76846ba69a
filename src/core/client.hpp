// Simulated front-end client.
//
// Generates multiget requests open-loop, fans each out into per-server
// operations tagged with the scheduling metadata (DAS completion estimates,
// Rein bottleneck sizes, SRPT totals, EDF deadlines), tracks responses, and
// emits sibling-progress updates so servers can re-rank queued operations.
// The client's per-server delay/speed view is learned purely from response
// piggybacks — the "distributed" half of the paper's design.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/message.hpp"
#include "core/metrics.hpp"
#include "core/server.hpp"
#include "sched/op_context.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "store/service_cost.hpp"
#include "trace/rct_breakdown.hpp"
#include "trace/tracer.hpp"
#include "workload/arrival.hpp"
#include "workload/mix.hpp"
#include "workload/multiget.hpp"
#include "workload/replay.hpp"

namespace das::core {

class Client {
 public:
  struct Params {
    ClientId id = 0;
    std::size_t num_servers = 0;
    /// Total clients in the cluster; replay tenants shard trace records
    /// across clients by index stride (client c takes records i ≡ c mod N).
    std::size_t num_clients = 1;
    /// Prices every op's demand tag (the servers' LSM model prices in it too).
    store::ServiceCost cost;
    /// Learn per-server d/mu estimates from piggybacks; false = static view
    /// (zero delay, nominal speed) — the client half of the DAS-NA ablation.
    bool adaptive = true;
    /// Send sibling-progress updates to servers holding pending ops.
    bool progress_updates = true;
    /// Round-trip allowance added to completion estimates at tag time.
    Duration est_rtt_us = 10.0;
    Duration edf_slo_us = 10.0 * kMillisecond;
    /// Read-one replication: candidate replicas per key and how to choose.
    std::size_t replication = 1;
    ReplicaSelection replica_selection = ReplicaSelection::kPrimary;
    /// End-to-end recovery from message loss: an operation unanswered for
    /// this long is retransmitted (same op id; duplicate service is
    /// harmless for reads, duplicate responses are discarded). 0 disables
    /// retransmission. Backs off exponentially (x2 per attempt) with
    /// deterministic ±20% jitter so synchronized losses do not yield
    /// synchronized retry storms.
    Duration retry_timeout_us = 0;
    /// Upper bound on the backed-off timeout (0 = uncapped): without a cap,
    /// an op unlucky through a long outage ends up probing a recovered
    /// server minutes apart.
    Duration retry_backoff_max_us = 0;
    /// Give-up bound: after this many send attempts the op is declared
    /// FAILED (never silently lost — it leaves the request accounted as
    /// failed). 0 retries forever, which is only safe when every outage
    /// eventually heals.
    std::uint32_t retry_max_attempts = 0;
    /// Failure detection: a server with this many consecutive retry
    /// timeouts and no intervening response is SUSPECTED — retries of reads
    /// fail over to live replicas and replica ranking avoids it until it
    /// answers again. 0 disables suspicion.
    std::uint32_t suspicion_rto_threshold = 3;
    /// Hedged reads: an operation unanswered after this delay is duplicated
    /// to a different replica (first response wins, the loser is
    /// discarded). Requires replication >= 2; 0 disables. Fires once.
    Duration hedge_delay_us = 0;
    /// Overload protection (deadlines, admission control, BUSY handling).
    /// All defaults off: the client is bit-identical to pre-layer builds.
    overload::OverloadConfig overload;
  };

  /// One tenant's traffic source as seen by this client. A synthetic tenant
  /// has a generator plus an arrival process; a replay tenant has a trace
  /// (records sharded across clients by index stride) and neither.
  struct TenantStream {
    const workload::MultigetGenerator* generator = nullptr;
    workload::ArrivalPtr arrivals;
    /// Read / update / read-modify-write split of this tenant's requests.
    workload::OpMix mix{};
    /// The tenant's value-size distribution: every write draws its size
    /// from it (needed only when the mix writes).
    RealDistPtr value_size;
    const workload::ReplayTrace* replay = nullptr;
  };

  /// One TenantStream per tenant (a run without tenants is one synthetic
  /// tenant).
  /// `catalogue` is every key's frozen size draw, stamped on each of its ops.
  /// `issued` is the overlay all clients share: a writer publishes the size
  /// it issued there (the writer knows it; other clients' estimates converge
  /// on their next access). Ops and progress updates leave through
  /// `transport`. All three must outlive the client.
  Client(sim::Simulator& sim, Params params, Rng rng,
         std::vector<TenantStream> tenants, const store::Partitioner& partitioner,
         const std::vector<std::uint32_t>& catalogue, FlatMap<KeyId, Bytes>& issued,
         Metrics& metrics, Transport& transport);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Begins generating requests; arrivals strictly before `horizon`.
  void start(SimTime horizon);

  /// A server response arrived (cluster delivers through the network).
  void on_response(const OpResponse& resp);

  // Request outcomes are counted once, in the shared Metrics ledger; the two
  // counters here are sub-counts of its outcomes.
  /// Shed requests refused at admission (no op ever sent).
  std::uint64_t requests_shed_admission() const {
    return requests_shed_admission_;
  }
  std::uint64_t requests_completed_after_failover() const {
    return requests_completed_failover_;
  }
  std::uint64_t ops_generated() const { return ops_generated_; }
  std::uint64_t progress_sent() const { return progress_sent_; }
  std::uint64_t ops_retransmitted() const { return ops_retransmitted_; }
  std::uint64_t duplicate_responses() const { return duplicate_responses_; }
  std::uint64_t ops_hedged() const { return ops_hedged_; }
  std::uint64_t ops_failed_over() const { return ops_failed_over_; }
  std::uint64_t ops_abandoned() const { return ops_abandoned_; }
  std::uint64_t suspicions_raised() const { return suspicions_raised_; }
  std::size_t in_flight() const { return pending_.size(); }
  bool suspects(ServerId s) const { return suspected_[s] != 0; }

  /// Current learned view (tests).
  double delay_estimate(ServerId s) const { return d_est_[s]; }
  double speed_estimate(ServerId s) const { return mu_est_[s]; }
  /// Size of `key` as clients see it: the last issued write in the shared
  /// overlay, else the catalogue's draw.
  Bytes size_of(KeyId key) const;

  /// Attaches a lifecycle tracer (nullptr detaches). Purely observational.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  /// Attaches a replay-trace sink that records every generated operation
  /// (one record per read key, one per write) for later replay; nullptr
  /// detaches. Purely observational.
  void set_op_recorder(workload::ReplayTrace* sink) { recorder_ = sink; }

  /// A progress update is sent only when the critical path or the total
  /// remaining demand moved by at least this fraction of its last sent value
  /// (overhead control).
  static constexpr double kProgressThreshold = 0.05;
  /// EWMA gain of the learned per-server delay and speed estimates.
  static constexpr double kEwmaAlpha = 0.3;

 private:
  struct PendingOp {
    /// Current destination: the planned replica, or a failover target.
    /// First, with `done`, so the per-response scan reads one cache line.
    ServerId server = 0;
    bool done = false;
    /// The op as sent (id, key, demand, write payload and tags), kept for
    /// retransmission and hedging.
    sched::OpContext ctx;
    sim::EventHandle retry_timer;
    sim::EventHandle hedge_timer;
    std::uint32_t attempts = 1;
    bool hedged = false;
    /// When the (first) response was delivered; feeds straggler slack.
    SimTime delivered_at = 0;
    /// The server answered BUSY at least once (overload layer). Re-attributes
    /// a later retry-budget exhaustion to shed instead of failed.
    bool busy_rejected = false;
    /// Server-side timing echo from that response.
    trace::OpServiceTiming timing;
  };
  struct PendingRequest {
    SimTime arrival = 0;
    /// Index of the tenant that generated the request.
    std::uint32_t tenant = 0;
    std::vector<PendingOp> ops;
    std::size_t remaining = 0;
    double last_sent_critical = 0;
    double last_sent_total = 0;
    /// At least one op was redirected to another replica by suspicion.
    bool failed_over = false;
    /// Ops abandoned after exhausting the retry budget; > 0 makes the whole
    /// request count as failed instead of completed.
    std::size_t failed_ops = 0;
    /// Ops terminally shed by the overload layer (BUSY with no retry budget
    /// left, or BUSY with retries disabled); > 0 marks the request SHED,
    /// taking precedence over failed.
    std::size_t shed_ops = 0;
    /// Absolute end-to-end deadline (arrival + budget); kTimeInfinity when
    /// deadlines are off. Carried on every op's wire context.
    SimTime expiry = kTimeInfinity;
    /// Fires expire_request at `expiry`; cancelled on any earlier settle.
    sim::EventHandle deadline_timer;
  };

  void schedule_next_arrival(std::size_t tenant, SimTime horizon);
  void generate_request(std::size_t tenant);
  /// Chain-schedules this client's next assigned replay record (>= `index`,
  /// stepping by num_clients) of tenant `tenant`.
  void schedule_replay(std::size_t tenant, std::size_t index, SimTime horizon);
  void generate_replay_request(std::size_t tenant, std::size_t index);
  /// Plans a write-all PUT of `size` bytes: publishes the size to the shared
  /// overlay, records the op and adds one op per replica, each of `demand`.
  void plan_write(std::vector<PendingOp>& plan, KeyId key, Bytes size,
                  double demand);
  /// Plans one GET of `key`: records the op and adds it at the replica the
  /// selector picks.
  void plan_read(std::vector<PendingOp>& plan, KeyId key);
  /// Tags, accounts and sends a planned request (shared by the synthetic and
  /// replay paths). Each planned op carries its server, key, catalogue size,
  /// demand and write payload; the rest of its context is filled here.
  void dispatch_plan(std::size_t tenant, std::vector<PendingOp> plan);
  /// The RNG stream backing tenant `t`'s workload draws. Tenant 0 IS the
  /// client stream (bit-identity with single-tenant builds); later tenants
  /// fork from a copy at construction.
  Rng& tenant_rng(std::size_t t) {
    return t == 0 ? rng_ : extra_tenant_rngs_[t - 1];
  }
  /// Target replica for `key` per the configured selection strategy.
  ServerId pick_server(KeyId key, double demand);
  /// Snapshot of the learned per-server state for the selector layer.
  select::LearnedView learned_view() const;
  /// Intrinsic service-time estimate of one op (demand over learned speed).
  double service_estimate_us(ServerId server, double demand) const;
  /// Full completion estimate of one op if sent now: rtt + queueing +
  /// `service`, its service_estimate_us, summed in that order.
  SimTime full_estimate(SimTime now, ServerId server, double service) const;

  sim::Simulator& sim_;
  Params params_;
  Rng rng_;
  std::vector<TenantStream> tenants_;
  const store::Partitioner& partitioner_;
  const std::vector<std::uint32_t>& catalogue_;
  FlatMap<KeyId, Bytes>& issued_;
  Metrics& metrics_;
  Transport& transport_;
  trace::Tracer* tracer_ = nullptr;
  workload::ReplayTrace* recorder_ = nullptr;

  std::vector<double> d_est_;
  std::vector<double> mu_est_;
  /// The replica-selection strategy (src/select); shared by fresh picks,
  /// hedges and failovers so their ranking logic cannot diverge again.
  std::unique_ptr<select::ReplicaSelector> selector_;
  /// The one ledger of in-flight work: an op is live iff its request is
  /// here and the op is not done. Lookup-only (never iterated): FlatMap
  /// keeps it deterministic across standard libraries and off the
  /// per-response allocation path.
  FlatMap<RequestId, PendingRequest> pending_;

  /// Jitter stream for retry backoff, forked off a COPY of the client RNG at
  /// construction so the workload draws stay bit-identical to jitter-free
  /// builds; only armed retries consume from it.
  Rng retry_rng_;
  /// Admission coin flips, forked off a COPY of the client RNG likewise;
  /// only drawn when admission control is on (exactly once per request).
  Rng admission_rng_;
  /// Per-tenant AIMD admission throttle; nullptr when admission is off.
  std::unique_ptr<overload::AdmissionController> admission_;
  /// Workload streams for tenants 1..N-1, each forked off a COPY of the
  /// client RNG with a tenant-distinct tag. Tenant 0 uses rng_ directly so a
  /// single-tenant run draws exactly like a pre-tenant build.
  std::vector<Rng> extra_tenant_rngs_;
  /// Consecutive unanswered retry timeouts per server and the derived
  /// suspicion flags (failure detection).
  std::vector<std::uint32_t> rto_strikes_;
  std::vector<char> suspected_;
  /// One server's share of a request's (live) ops.
  struct ServerAgg {
    ServerId server = 0;
    std::uint32_t ops = 0;
    /// Demand summed in op order.
    double demand = 0;
    /// Largest full-completion estimate; 0 stands in for "none" because
    /// TopTwo never lets a non-positive estimate win.
    SimTime max_full_estimate = 0;
  };
  /// dispatch_plan / on_response scratch: one ServerAgg per server the
  /// request touches, in first-touch order, and each server's index in it
  /// (kNoEntry when absent; unindex_server_aggs resets every touched entry
  /// before the caller reads the aggregates). Members so a request or a
  /// response allocates nothing once they have grown to the widest request.
  std::vector<ServerAgg> server_aggs_;
  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;
  std::vector<std::uint32_t> server_entry_;

  std::uint64_t next_request_seq_ = 0;
  std::uint64_t next_op_seq_ = 0;
  std::uint64_t requests_shed_admission_ = 0;
  std::uint64_t requests_completed_failover_ = 0;
  std::uint64_t ops_generated_ = 0;
  std::uint64_t progress_sent_ = 0;
  std::uint64_t ops_retransmitted_ = 0;
  std::uint64_t duplicate_responses_ = 0;
  std::uint64_t ops_hedged_ = 0;
  std::uint64_t ops_failed_over_ = 0;
  std::uint64_t ops_abandoned_ = 0;
  std::uint64_t suspicions_raised_ = 0;

  /// Folds one op into its server's entry of server_aggs_, appending the
  /// entry on the server's first touch.
  void add_to_server_agg(ServerId server, double demand, SimTime full_estimate);
  /// Resets server_entry_ for every entry of server_aggs_.
  void unindex_server_aggs();
  /// Arms (or re-arms) the retransmission timer for an op of `rid`.
  void arm_retry(RequestId rid, PendingOp& op);
  /// Arms the one-shot hedge timer for an op of `rid`.
  void arm_hedge(RequestId rid, PendingOp& op);
  /// The op `op_id` of `req`, indexed by its offset from the first op's id;
  /// an id outside the request is a protocol bug.
  static PendingOp& find_op(PendingRequest& req, OperationId op_id);
  /// Sends `op` to `server` (first send, hedge or retransmission) and
  /// traces it.
  void send(const PendingOp& op, ServerId server, bool resend);
  /// Failure detection: one more consecutive timeout against `server`.
  void note_rto(ServerId server);
  /// Redirects a read retry to the best unsuspected replica, if any.
  void maybe_fail_over(PendingRequest& req, PendingOp& op);
  /// Settles one op without a served response, as shed (the overload layer
  /// turned it away) or failed (its retry budget is spent); finalizes the
  /// request once no op remains in flight.
  void give_up_op(RequestId rid, PendingRequest& req, PendingOp& op, bool shed);
  /// remaining == 0 with shed_ops or failed_ops: settles the request as
  /// SHED (precedence) or FAILED and erases it.
  void finalize_degraded(RequestId rid, PendingRequest& req);
  /// Deadline timer callback: fails the whole request as EXPIRED, tearing
  /// down every in-flight op (late responses discard as duplicates).
  void expire_request(RequestId rid);
};

}  // namespace das::core
