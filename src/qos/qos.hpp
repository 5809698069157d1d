// Overload protection for the PFS service path.
//
// The paper's central finding is that I/O time is dominated by queueing
// structure — bursty small-request storms and metadata contention on open —
// and the canonical failure mode of a 1990s design like PFS is the unbounded
// server queue: a retry storm or an open() stampede feeds a queue that never
// drains and goodput collapses.  `ServerQos` is the bounded front door every
// protected server (I/O-node servers and the metadata server) puts between
// arrivals and its service queue:
//
//   * bounded admission — at most `service_slots` ops are in service and at
//     most `queue_limit` wait per (class, node) queue; an arrival beyond
//     that is *rejected*, not queued, and carries a deterministic
//     retry-after credit so the client can come back when a slot is expected
//     to be free (explicit backpressure instead of silent queue growth);
//   * deadline-aware shedding — an op whose remaining `sim::Timeout` budget
//     cannot cover the estimated queueing + service time is shed at
//     admission rather than wasting disk service on a reply nobody waits
//     for;
//   * deficit-round-robin fair queueing — waiting ops are grouped per
//     (priority class, compute node) and granted by DRR, so an open()
//     stampede from one class/node cannot starve another node's in-flight
//     reads.
//
// Everything is deterministic: classes activate in FIFO order, grants go
// through the engine's event queue, credits come from a virtual slot clock,
// and every decision is emitted as an SDDF `#qos` record through the
// collector.  The per-I/O-node circuit breaker lives in qos/breaker.hpp.

#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>

#include "pablo/collector.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sio::qos {

/// Priority classes of the DRR fair queue.  At the metadata server, control
/// traffic (open/gopen/close stampedes) is kMeta while token/seek grants —
/// which gate *in-flight data operations* — are kData; at an I/O-node server
/// everything data-path is kData.  kScrub is the background class used by the
/// integrity scrubber: DRR gives it its round-robin turn, so it makes
/// progress without starving foreground traffic under load.
enum class OpClass : std::uint8_t {
  kMeta = 0,
  kData = 1,
  kScrub = 2,
};

/// Admission verdicts.
enum class Verdict : std::uint8_t {
  kAdmitted = 0,  ///< proceed; caller must pair with release()
  kRejected,      ///< bounded queue full; retry_after carries the credit
  kShed,          ///< deadline budget cannot cover estimated service
};

/// Result of an admission attempt.  For kRejected/kShed, `retry_after` is
/// the deterministic backpressure credit: how long the client should wait
/// before re-driving the op.
struct Admission {
  Verdict verdict = Verdict::kAdmitted;
  sim::Tick retry_after = 0;
  /// Tick the service slot was granted (kAdmitted only); hand it back to
  /// release() so the queue can learn actual in-service time.
  sim::Tick granted_at = 0;
};

/// Knobs of the overload-protection subsystem.  One config travels through
/// `pfs::PfsConfig` and parameterizes every ServerQos and CircuitBreaker of
/// the instance.  Disabled by default: with `enabled == false` no QoS object
/// is created and the data path is byte-identical with the pre-QoS model.
struct QosConfig {
  bool enabled = false;

  // ---- bounded admission ----
  /// Ops allowed in service concurrently per server (the server's own CPU
  /// queue never grows deeper than this).
  std::size_t service_slots = 4;
  /// Ops allowed to wait per (class, node) admission queue; arrivals beyond
  /// this are rejected with a retry-after credit.  Bounding per *source*
  /// (rather than globally) keeps every client visible to the DRR, so the
  /// parked population is capped at each client's fair share — independent
  /// of how many ops any one client fires.
  std::size_t queue_limit = 4;

  // ---- deadline-aware shedding ----
  bool shed_enabled = true;

  // ---- deficit round robin ----
  /// Estimated-service ticks granted to a (class, node) queue per round.
  sim::Tick drr_quantum = sim::microseconds(500);

  // ---- per-I/O-node circuit breaker ----
  /// Outcome window the failure rate is computed over.
  int breaker_window = 16;
  /// Minimum outcomes in the window before the breaker may trip.
  int breaker_min_samples = 8;
  /// Failure fraction of the window at/above which the breaker opens.  Set
  /// above 1/2 on purpose: a congested-but-healthy node shows an alternating
  /// timeout/recovered-on-retry pattern that hovers at ~50% failures, while
  /// a genuinely unreachable node produces a run of pure failures — tripping
  /// only above 3/4 keeps congestion from opening breakers.
  double breaker_trip_ratio = 0.75;
  /// Consecutive timeouts one op must suffer before its further timeouts
  /// count as breaker evidence.  A single timeout is ambiguous: under
  /// congestion the abandoned attempt keeps working server-side and the
  /// retry coalesces onto it and succeeds within an attempt or two, while
  /// against an unreachable node every attempt stays silent — so only an
  /// op's (threshold+1)-th consecutive timeout feeds on_failure.
  int breaker_attempt_threshold = 2;
  /// How long an open breaker holds before allowing half-open probes.
  sim::Tick breaker_open_for = sim::milliseconds(400);
  /// Probes allowed per half-open episode.
  int breaker_halfopen_probes = 1;

  // ---- degraded reconstruction ----
  /// Client-side parity XOR bandwidth (bytes per tick) charged when a read
  /// is rerouted to RAID-3 degraded reconstruction.
  double xor_bytes_per_tick = 0.5;
};

/// Bounded, fair, shedding admission queue fronting one server.  All methods
/// must be called from simulation context (engine tasks).
class ServerQos {
 public:
  /// `server_id` is the I/O node id, or -1 for the metadata server; it lands
  /// in the `target` field of every emitted `#qos` record.  `collector` may
  /// be null (unit tests without a trace).
  ServerQos(sim::Engine& engine, int server_id, const QosConfig& cfg,
            pablo::Collector* collector)
      : engine_(engine), id_(server_id), cfg_(cfg), collector_(collector) {}

  ServerQos(const ServerQos&) = delete;
  ServerQos& operator=(const ServerQos&) = delete;

  /// One admission attempt for an op from `node` with estimated service time
  /// `cost`.  `deadline_left` is the op's remaining deadline budget (0 = no
  /// deadline, shedding skipped).  `op_id` identifies the client operation in
  /// the emitted `#qos` records (0 = untracked) so the trace inspector can
  /// join them with `#fault`/`#span` records.  On kAdmitted the caller owns a
  /// service slot and must call `release(cost)` when the op finishes; on
  /// kRejected/kShed nothing is held and `retry_after` carries the credit.
  sim::Task<Admission> admit(int node, OpClass cls, sim::Tick cost, sim::Tick deadline_left,
                             std::uint64_t op_id = 0);

  /// Returns the service slot of an admitted op and grants waiting ops per
  /// DRR.  `cost` must be the value passed to the matching admit() and
  /// `granted_at` the tick admit() returned (Admission::granted_at); their
  /// spread feeds the learned service-time ratio.
  void release(sim::Tick cost, sim::Tick granted_at);

  int server_id() const { return id_; }
  const QosConfig& config() const { return cfg_; }

  // ---- statistics / invariants ----
  std::size_t occupancy() const { return occupancy_; }
  std::size_t waiting() const { return waiting_; }
  /// Peak of (in service + waiting) — the bounded-queue-depth invariant is
  /// `max_pending() <= service_slots + queue_limit * active (class, node)
  /// pairs` by construction: a config-determined bound that does not grow
  /// with offered load.
  std::size_t max_pending() const { return max_pending_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t credits_issued() const { return credits_; }
  /// Learned ratio of observed in-service time to the static cost estimate.
  double service_ratio() const { return svc_ratio_; }

 private:
  /// One parked admission, living on the awaiting coroutine's frame.
  struct Waiter {
    sim::WaitHandle h;
    sim::Tick cost = 0;
  };
  /// Per-(class, node) DRR queue.
  struct ClassQueue {
    std::deque<Waiter*> q;
    sim::Tick deficit = 0;
  };
  using ClassKey = std::pair<int, int>;  // (class, node): meta before data, then by node

  sim::Engine& engine_;
  int id_;
  QosConfig cfg_;
  pablo::Collector* collector_;

  std::size_t occupancy_ = 0;
  std::size_t waiting_ = 0;
  std::size_t max_pending_ = 0;
  /// Sum of the estimated service of every op in service or waiting — the
  /// backlog estimate behind shed decisions and credits.
  sim::Tick backlog_est_ = 0;
  /// Virtual slot clock for backpressure credits: each rejected/shed op is
  /// assigned the next future slot, so a storm's re-arrivals come back
  /// staggered instead of stampeding again on the same tick.
  sim::Tick next_credit_ = 0;
  /// EWMA of observed in-service time over estimated cost.  The static
  /// estimate is blind to the server's actual regime — a cache-hit-heavy
  /// stream serves far under estimate while interleaved offsets inflate
  /// every access with seeks — so shed/credit math scales cost by this
  /// learned factor instead of trusting the estimate.
  double svc_ratio_ = 1.0;

  // DRR state.  The map keeps (class, node) queues in a deterministic order;
  // `active_` is the FIFO of nonempty queues the scheduler cycles over.
  std::map<ClassKey, ClassQueue> classes_;
  std::deque<ClassKey> active_;

  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t credits_ = 0;

  void record(pablo::QosKind kind, int node, std::uint64_t info, std::uint64_t op_id);
  void note_pending();
  /// Cost estimate scaled by the learned service-time ratio.
  sim::Tick scaled(sim::Tick cost) const;
  /// Estimated drain time of the current backlog across the service slots.
  sim::Tick drain_estimate(sim::Tick extra_cost) const;
  /// Issues the next staggered retry-after credit for an op of `cost`.
  sim::Tick issue_credit(int node, sim::Tick cost, std::uint64_t op_id);
  void park(Waiter* w, int node, OpClass cls);
  /// Grants parked ops while service slots are free (deficit round robin).
  void pump();

  /// Awaitable that parks the caller in the DRR queue until granted a slot.
  auto enqueue(int node, OpClass cls, sim::Tick cost) {
    struct Awaiter {
      ServerQos& s;
      int node;
      OpClass cls;
      Waiter w;
      bool await_ready() const { return false; }
      void await_suspend(sim::WaitHandle h) {
        w.h = h;
        s.park(&w, node, cls);
      }
      void await_resume() const noexcept {}
    };
    Awaiter a{*this, node, cls, {}};
    a.w.cost = cost;
    return a;
  }
};

}  // namespace sio::qos
