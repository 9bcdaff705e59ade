// OnlineEngine — the incremental analysis kernel.
//
// The paper's point is that RDT has *visible* characterizations: predicates
// a process can evaluate online, from locally observable information, as
// each event arrives. This engine is the analysis-side counterpart: it
// consumes one event at a time (send / deliver / internal / checkpoint) and
// keeps every answer of the batch pipeline live at any prefix of the
// stream —
//   * is_rdt_so_far()  — does the pattern observed so far satisfy RDT?
//   * recovery_line()  — where would every process restart after a failure
//                        right now?
//   * zreach(a, b)     — is there a message chain (Z-path) between two
//                        checkpoints?
//   * stats()          — live junction / checkpoint / event counts.
//
// Prefix semantics. A prefix of a stream is not yet a valid Pattern: some
// sends are still in flight. The engine answers as if the batch pipeline ran
// on the *closed* prefix — the observed events minus the sends of
// undelivered messages, finalized with virtual checkpoints (exactly what
// PatternBuilder::build() would produce). An undelivered send can never
// carry a rollback dependency, so this is the only consistent reading;
// tests/online_equivalence_test.cpp checks bit-identity against the batch
// pipeline at every prefix.
//
// Mechanics (each layer is the incremental half of a batch analysis):
//   * TDV      — one TdvMachine (core/tdv.hpp) advanced per event; message
//                payloads carry TDV + vector-clock snapshots like a real
//                protocol's piggyback. Every n-wide vector the feeder keeps
//                is a fixed-stride row of a flat buffer: the live TDVs and
//                clocks (n x n each), each process's saved-TDV window, and
//                the send-time snapshots, which live in one slab with a
//                free list (slab_) so a message row carries only a slot.
//   * R-graph  — nodes are created lazily: C_{p,0} up front, then the
//                *frontier* node C_{p,durable+1} on the first event of each
//                open interval; nodes and edges go into append-only
//                published logs that chain each node's out-edges. Both
//                heavy queries walk those chains in place.
//   * RDT      — Wang's MM characterization (the minimal one: every
//                two-message chain across a non-causal junction must be
//                doubled), evaluated per junction at the moment both
//                messages are delivered. Verdicts against frozen target
//                checkpoints are permanent (the engine keeps the saved-TDV
//                history, because a junction can be discovered after its
//                target froze); verdicts against the still-open interval
//                stay *pending*, and the engine maintains the count of
//                pending starts the live TDV has not yet covered, so the
//                RDT verdict is two counter reads.
//   * Recovery — one propagate_rollback() sweep (recovery/rollback.hpp)
//                straight off the published logs, memoized per graph epoch.
//   * Z-paths  — zreach(a, b) walks the same chains over (node, layer)
//                states, layer 1 once a message edge has been taken, and
//                stops at the first layer-1 node of b's process at or
//                below b's index (every process edge is logged, so that
//                node reaches b).
//
// Amortized feed cost is O(1) per event in history length: junction work
// is per junction, and all other per-event work is O(n) in the process
// count only. bench/bench_stream.cpp measures this (flat events/sec over
// 10x trace growth). A zreach costs O(states visited), no feed-side work:
// a hit stops early, a miss walks every state reachable from `a` in the
// retained window (the whole history of a keep-all engine).
//
// Thread-safety: ONE feeder thread, any number of reader threads, and the
// readers never block the feeder.
//   * The feeder (on_* / feed) serializes on a private feed mutex and
//     publishes every reader-visible value either as a relaxed atomic
//     mirror or through an append-only PublishedLog, bracketing each
//     event batch with a seqlock version counter (odd = mutation in
//     flight). The mirrors of the processes a batch touched are written
//     once, at its commit.
//   * `const` queries are retry-safe: they snapshot the mirrors under the
//     seqlock (retrying if a mutation raced), so they take no lock the
//     feeder could ever contend on. is_rdt_so_far/stats/live_tdv/
//     live_clock are wait-free apart from that retry;
//     events_consumed/current_interval are single atomic loads.
//   * The heavy queries (recovery_line, zreach) serialize on a separate
//     reader-side mutex guarding the memoized rollback sweep, the walks'
//     stamped scratch and zreach's checkpoint-id table; they snapshot only
//     O(n) counters under the seqlock and then walk immutable log prefixes,
//     so the feeder is again never blocked — a query observes the engine as
//     of its snapshot (both walks skip edges linked in after it).
//   * A query overlapping a feed() batch retries until the batch commits;
//     batches bound the retry window, so prefer moderate batch sizes when
//     readers poll latency-sensitively.
//
// Feeding: implement-by-subscription — the engine IS a PatternListener.
// Attach it to a PatternBuilder (set_listener), to a replay
// (ReplayOptions::online) or a DES run (SimConfig::online), call the on_*
// methods directly, or hand whole batches to feed() — one write-side
// acquisition per batch, bit-identical to the same events fed one at a
// time. Each on_* call is a one-event feed().
//
// Retention (PR 9). With a RetentionPolicy enabled (EngineOptions), the
// engine bounds resident memory to the live frontier: compact() — manual or
// automatic on the policy's cadence — folds everything at or behind the
// current recovery line into one summary node per process and releases the
// storage (saved-TDV rows, R-graph nodes/edges, and every
// message row whose send interval has closed, up to the first that is still
// open: delivered rows are dropped, undelivered ones parked, see msgs_).
// A pass costs O(retained), not O(cadence): the R-graph logs are rebuilt
// only from the oldest retained node on (compact_locked).
// Correctness rests on two facts the paper provides:
//  * The recovery line is monotone. A node's in-edges freeze when its
//    interval closes, and every new edge's head is volatile at creation —
//    so once no volatile node reaches C_{p,x}, none ever will, and a
//    checkpoint at or behind the line stays there forever.
//  * The evicted region is closed. Every retained node lies above the line,
//    so the sweep invalidates it, while every evicted node stays valid.
//    Rollback carries invalidity along every edge, so no retained node has
//    an edge into the evicted region. Hence dropping the evicted prefix
//    changes no retained-to-retained Z-path, no recovery sweep, and no
//    junction verdict — every query about retained state is bit-identical
//    to a keep-all engine, which RDT_AUDITS builds cross-check against a
//    shadow unevicted twin at every compaction.
// Queries about evicted checkpoints are unanswerable by design, so the
// query surface is structured: zreach/recovery_line/stats return a
// QueryResult whose status distinguishes "false" from "evicted — behind
// the retention horizon" (online/options.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "causality/vector_clock.hpp"
#include "ccp/builder.hpp"
#include "core/tdv.hpp"
#include "online/options.hpp"
#include "recovery/recovery_line.hpp"
#include "recovery/rollback.hpp"
#include "util/published_log.hpp"
#include "util/thread_annotations.hpp"

namespace rdt {

// TSan cannot instrument std::atomic_thread_fence (GCC's -Wtsan rejects it
// under -Werror). Every value the engine's seqlock guards is itself a
// std::atomic, so sanitizer builds drop the fences: TSan still proves every
// shared access atomic, while regular builds keep the fences that order the
// relaxed mirror traffic against the version counter.
#if defined(__SANITIZE_THREAD__)
#define RDT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RDT_TSAN_BUILD 1
#endif
#endif
inline void seqlock_fence([[maybe_unused]] std::memory_order order) noexcept {
#if !defined(RDT_TSAN_BUILD)
  std::atomic_thread_fence(order);
#endif
}

// Live counts over the closed prefix (the fields shared with PatternStats,
// which they must equal at every prefix).
struct OnlineStats {
  int processes = 0;
  int messages = 0;       // delivered messages
  int events = 0;         // events of the closed prefix, incl. virtual finals
  int checkpoints = 0;    // incl. initial and virtual finals
  int virtual_finals = 0;
  long long causal_junctions = 0;
  long long noncausal_junctions = 0;

  friend bool operator==(const OnlineStats&, const OnlineStats&) = default;
};

// One stream event for batched ingest. ccp's Event describes a finished
// pattern slot (no process endpoints), so the batch API carries the same
// arguments the PatternListener callbacks take.
struct StreamEvent {
  EventKind kind = EventKind::kInternal;
  ProcessId p = -1;      // acting process (the sender for send/deliver)
  ProcessId q = -1;      // receiver for send/deliver
  MsgId msg = kNoMsg;
  CkptIndex index = -1;  // checkpoint index for kCheckpoint

  static StreamEvent send(MsgId m, ProcessId sender, ProcessId receiver) {
    return {EventKind::kSend, sender, receiver, m, -1};
  }
  static StreamEvent deliver(MsgId m, ProcessId sender, ProcessId receiver) {
    return {EventKind::kDeliver, sender, receiver, m, -1};
  }
  static StreamEvent internal(ProcessId p) {
    return {EventKind::kInternal, p, -1, kNoMsg, -1};
  }
  static StreamEvent checkpoint(ProcessId p, CkptIndex index) {
    return {EventKind::kCheckpoint, p, -1, kNoMsg, index};
  }

  friend bool operator==(const StreamEvent&, const StreamEvent&) = default;
};

// Structured query answers (online/options.hpp has the status semantics).
using ZreachResult = QueryResult<bool>;
using RecoveryResult = QueryResult<RecoveryOutcome>;
using StatsResult = QueryResult<OnlineStats>;

class OnlineEngine final : public PatternListener {
 public:
  // An engine over options.num_processes processes under the retention
  // policy; exactly an empty engine followed by reset(options).
  explicit OnlineEngine(const EngineOptions& options);

  // Rewind to the freshly-constructed state under `options`, recycling
  // every arena the old stream grew: the message table, the snapshot slab,
  // the saved-TDV windows, published logs, the reader's walk scratch, and
  // (when the process count is unchanged) the mirror arrays all keep their
  // allocations, so a serving pool can hand a recycled engine to a new
  // session without paying the stream's warm-up allocations again. The
  // recycled engine is bit-identical to a fresh OnlineEngine(options) on
  // every query (tests/online_equivalence_test.cpp pins this).
  //
  // When the incoming policy is retention-enabled, recycled capacity is
  // capped (max_reset_message_capacity rows for the message table, the
  // parked sends, the snapshot slab and each saved-TDV window; the
  // published logs' unused chunks), so a pathological previous session
  // cannot permanently inflate a pooled engine. A keep-all reset preserves
  // the historical unbounded recycling.
  //
  // Concurrency contract: reset is a *lifecycle* operation, not a feed —
  // the caller must guarantee no concurrent feeder OR reader for its
  // duration (the serving pool quiesces the session's shard first). The
  // seqlock is still bracketed so a stray late reader spins rather than
  // tearing, but log prefixes a reader captured before reset are dead.
  void reset(const EngineOptions& options);

  // The policy the engine was constructed/reset with. Lifecycle-stable:
  // changes only in the constructor and reset(), whose contract excludes
  // concurrent callers.
  const RetentionPolicy& retention() const { return retention_; }

  // --- event intake (PatternListener; each call is a one-event feed()) ------
  void on_send(MsgId m, ProcessId sender, ProcessId receiver) override;
  void on_deliver(MsgId m, ProcessId sender, ProcessId receiver) override;
  void on_internal(ProcessId p) override;
  void on_checkpoint(ProcessId p, CkptIndex index) override;

  // Batched intake: one write-side acquisition for the whole span, with the
  // message table reserved up front. Bit-identical to calling the on_*
  // methods once per event in order (a precondition failure at event k
  // leaves exactly events [0, k) applied, like k failing single calls).
  void feed(std::span<const StreamEvent> events);

  // --- live queries ---------------------------------------------------------
  int num_processes() const {
    return num_processes_.load(std::memory_order_relaxed);
  }
  // Raw events observed (including in-flight sends; not the prefix count).
  long long events_consumed() const;
  // The open interval index I_{p,durable+1} the next event of p lands in.
  CkptIndex current_interval(ProcessId p) const;

  // Snapshots of the live causal planes. Note these cover *all* observed
  // events — a vector clock ticks on in-flight sends too, so live_clock is
  // the stream's causal view, not the closed prefix's.
  Tdv live_tdv(ProcessId p) const;
  VectorClock live_clock(ProcessId p) const;

  // RDT verdict for the closed prefix (== satisfies_rdt of its Pattern).
  // Counter-based, unaffected by eviction — always answerable.
  bool is_rdt_so_far() const;
  // Recovery outcome if a failure happened now: every process restarts at
  // or below its last durable checkpoint (== recover_after_failure).
  // Always kOk: the recovery sweep runs entirely above the horizon.
  RecoveryResult recovery_line() const;
  // Z-path between two checkpoints (== ReachabilityClosure::msg_reach).
  // kOk with the answer when both endpoints are retained (index in
  // [first_retained(p), durable], or durable+1 when that interval has
  // opened); kEvicted when either endpoint is behind the retention horizon;
  // kInvalid when either names a checkpoint the stream never produced
  // (which used to throw).
  ZreachResult zreach(const CkptId& from, const CkptId& to) const;

  // Always kOk: the prefix counters are never evicted.
  StatsResult stats() const;

  // --- retention ------------------------------------------------------------
  // Fold everything at or behind the current recovery line into per-process
  // summary nodes and release the storage. Returns true when anything was
  // evicted. Feeder-side operation (serializes on the feed mutex): call it
  // from the feeding thread, or rely on the policy's automatic cadence.
  bool compact();
  // The smallest checkpoint index of p still answerable: 0 until a
  // compaction first advances the horizon to recovery line + 1 (the at-line
  // checkpoint is evicted too — its Z-paths may run through the evicted
  // region). Lock-free.
  CkptIndex first_retained(ProcessId p) const;
  // Cumulative eviction counters + the resident-bytes snapshot. Lock-free.
  RetentionStats retention_stats() const;

  // In an observability build with a session active, fold the engine's
  // accumulated counters into the session registry (names "online.*").
  // Once per stream — the per-event path touches no registry state.
  void flush_metrics() const;

 private:
  // ----- feeder-private state (guarded by feed_mu_) ------------------------
  struct ProcessState {
    CkptIndex durable = 0;  // highest frozen checkpoint index
    int last_node = -1;     // engine node of C_{p,durable}
    int frontier = -1;      // engine node of C_{p,durable+1}, -1 until opened
    long long deliveries = 0;  // deliveries at p so far (causal junctions)
    int open_retained = 0;  // retained non-ckpt events in the open interval
    // Count of pending[] entries the live TDV has not covered yet — the
    // process's contribution to live_vio_.
    int vio = 0;
    // Set when an event changed this process's mirrored fields (TDV row,
    // clock row, PubProc); feed() publishes and clears it at commit.
    bool dirty = false;
    std::vector<MsgId> interval_sends;  // sends in the open interval
    // pending[k] = highest start index si of an unresolved MM junction from
    // P_k whose target is the open interval (0 = none). Settled at the next
    // checkpoint; its covered/uncovered census lives in `vio`.
    std::vector<CkptIndex> pending;
    // The TDV frozen at each C_{p,x} — needed because a junction targeting
    // C_{p,x} can be discovered arbitrarily late, but only while C_{p,x} is
    // above the recovery line; compact() releases the rows behind it.
    SavedTdvWindow saved;
  };

  struct MessageState {
    ProcessId sender = -1;
    ProcessId receiver = -1;
    CkptIndex send_interval = -1;
    CkptIndex deliver_interval = -1;  // set at delivery
    long long deliveries_at_sender = 0;
    // The piggyback snapshots' slab_ slot while undelivered.
    std::uint32_t slot = 0;
    bool delivered = false;
    // MM starts (k, si) of junctions where this message is the outgoing
    // one, discovered before it was delivered; drained at delivery.
    std::vector<std::pair<ProcessId, CkptIndex>> deferred;
  };

  // Send-time piggyback snapshots, one slot per undelivered message: slot s
  // holds the sender's TDV at tdv[s * stride] and its vector clock at
  // clock[s * stride], stride = n entries each. A send takes a slot (the
  // free list first, else both arrays grow by one row), its delivery
  // returns it, and a parked send keeps its slot until its late delivery or
  // reset(). The arrays grow only to the peak number of undelivered sends,
  // so in steady state the snapshots cost no heap allocation.
  struct SnapshotSlab {
    std::size_t stride = 0;
    std::vector<CkptIndex> tdv;
    std::vector<std::int64_t> clock;
    std::vector<std::uint32_t> free;

    std::uint32_t acquire() {
      if (!free.empty()) {
        const std::uint32_t s = free.back();
        free.pop_back();
        return s;
      }
      const auto s = static_cast<std::uint32_t>(tdv.size() / stride);
      tdv.resize(tdv.size() + stride);
      clock.resize(clock.size() + stride);
      return s;
    }
    void release(std::uint32_t s) { free.push_back(s); }
    std::span<CkptIndex> tdv_row(std::uint32_t s) {
      return {tdv.data() + std::size_t{s} * stride, stride};
    }
    std::span<std::int64_t> clock_row(std::uint32_t s) {
      return {clock.data() + std::size_t{s} * stride, stride};
    }
  };

  // R-graph edge as logged for readers: tail node, (head << 1) | message,
  // and the tail's previous out-edge (edge index + 1, 0 = none).
  struct EdgeRec {
    std::uint32_t from = 0;
    std::uint32_t enc = 0;
    std::uint32_t prev = 0;
  };

  // Per-process atomic mirrors of the feeder fields queries read.
  struct PubProc {
    std::atomic<CkptIndex> durable{0};
    std::atomic<int> open_retained{0};
    // first_retained(p): smallest retained checkpoint index (the retention
    // horizon). 0 until a compaction advances it.
    std::atomic<CkptIndex> horizon{0};
    // ProcessState::frontier, the recovery sweep's seed for p.
    std::atomic<int> frontier{-1};
  };

  // [p]: engine node of C_{p,x} at ids[x - base]; base is the retention
  // horizon (first retained index). The feeder table covers x <= durable;
  // the reader-cache table additionally holds the open frontier node.
  struct NodeIdTable {
    CkptIndex base = 0;
    std::vector<int> ids;
  };

  // Seqlock write bracket (Boehm's fence recipe). Readers observing an odd
  // seq_, or a seq_ change across their reads, retry.
  class WriteTicket {
   public:
    explicit WriteTicket(std::atomic<std::uint64_t>& seq) : seq_(seq) {
      seq_.store(seq_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
      seqlock_fence(std::memory_order_release);
    }
    ~WriteTicket() {
      seqlock_fence(std::memory_order_release);
      seq_.store(seq_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
    }
    WriteTicket(const WriteTicket&) = delete;
    WriteTicket& operator=(const WriteTicket&) = delete;

   private:
    std::atomic<std::uint64_t>& seq_;
  };

  // Runs fn() under the seqlock read protocol until a tear-free execution;
  // fn must only perform relaxed atomic loads of the published mirrors.
  template <typename Fn>
  auto read_stable(Fn&& fn) const -> decltype(fn());

  // The memoized rollback sweep, zreach's checkpoint-id table (caught up
  // from the node log) and the stamped scratch both walks share. Guarded by
  // its own mutex: heavy queries serialize with each other here, never with
  // the feeder.
  struct ReaderCache {
    AnnotatedMutex mu;
    std::vector<NodeIdTable> node_ids RDT_GUARDED_BY(mu);
    std::size_t nodes_consumed RDT_GUARDED_BY(mu) = 0;
    // scratch for snapshots: durable indices and the frontier seeds
    std::vector<CkptIndex> durable_snap RDT_GUARDED_BY(mu);
    std::vector<int> seeds RDT_GUARDED_BY(mu);
    // Visited stamps: per node for the rollback sweep, per (node, layer)
    // state for zreach; the stack doubles as zreach's BFS queue.
    RollbackScratch scratch RDT_GUARDED_BY(mu);
    RecoveryOutcome recovery_memo RDT_GUARDED_BY(mu);
    std::uint64_t recovery_memo_epoch RDT_GUARDED_BY(mu) = 0;
    bool recovery_memo_valid RDT_GUARDED_BY(mu) = false;
    long long recovery_sweeps RDT_GUARDED_BY(mu) = 0;
  };

  // Event bodies; caller holds feed_mu_ inside a WriteTicket.
  void do_event(const StreamEvent& e) RDT_REQUIRES(feed_mu_);
  void do_send(MsgId m, ProcessId sender, ProcessId receiver)
      RDT_REQUIRES(feed_mu_);
  void do_deliver(MsgId m, ProcessId sender, ProcessId receiver)
      RDT_REQUIRES(feed_mu_);
  void do_internal(ProcessId p) RDT_REQUIRES(feed_mu_);
  void do_checkpoint(ProcessId p, CkptIndex index) RDT_REQUIRES(feed_mu_);

  // Post-commit feeder work that must run outside the event's WriteTicket:
  // the policy's automatic compaction and the periodic resident-bytes probe.
  void after_commit() RDT_REQUIRES(feed_mu_);
  // The compaction pass proper; returns true when anything was evicted.
  // Skips the rebuild when fewer than `min_evictable` checkpoints lie at or
  // behind the line (the recovery sweep it ran is memoized either way).
  bool compact_locked(long long min_evictable) RDT_REQUIRES(feed_mu_);
  // RDT_AUDITS + retention builds only: compare every answerable query
  // against the keep-all shadow twin after a compaction.
  void audit_compact_equivalence() RDT_REQUIRES(feed_mu_);
  // Recompute the resident-bytes mirror (takes rc_.mu for the reader side).
  void refresh_resident_bytes() RDT_REQUIRES(feed_mu_);
  std::size_t feeder_resident_bytes() const RDT_REQUIRES(feed_mu_);

  // The only appends to the R-graph logs: push_node returns the new node's
  // id and records its node_marks_ entry, push_edge links the edge in front
  // of its tail's out-edge chain.
  int push_node(const CkptId& c) RDT_REQUIRES(feed_mu_);
  void push_edge(int from, int to, bool message) RDT_REQUIRES(feed_mu_);
  void ensure_frontier(ProcessId p) RDT_REQUIRES(feed_mu_);
  // Row p of clocks_ (P_p's live vector clock).
  std::span<std::int64_t> clock_row(ProcessId p) RDT_REQUIRES(feed_mu_);
  int node_of(const CkptId& c) const RDT_REQUIRES(feed_mu_);  // feeder side
  // Verdict for one MM junction: the two-message chain entering target's
  // process from C_{k,si} must be trackable at `target`.
  void evaluate_mm(const CkptId& target, ProcessId k, CkptIndex si)
      RDT_REQUIRES(feed_mu_);
  // Recount process j's pending-vs-live census after its live TDV grew.
  void refresh_vio(ProcessId j) RDT_REQUIRES(feed_mu_);

  // Republish the TDV row, clock row and PubProc fields of every dirty
  // process and clear the marks; the one place the mirrors are written
  // (caller holds a WriteTicket).
  void publish_dirty() RDT_REQUIRES(feed_mu_);
  // RDT_AUDITS-only: recompute every mirror from the feeder state.
  void audit_published_state() const RDT_REQUIRES(feed_mu_);

  // Reader side; caller holds rc_.mu. Extends rc_.node_ids to the node
  // log's first `nodes` entries.
  void catch_up_reader(std::size_t nodes) const RDT_REQUIRES(rc_.mu);
  // Horizon-aware checkpoint-id resolution against the reader tables.
  struct NodeLookup {
    QueryStatus status = QueryStatus::kInvalid;
    int node = -1;
  };
  NodeLookup reader_lookup(const CkptId& c) const RDT_REQUIRES(rc_.mu);
  // One rollback sweep from `seeds` over the logs' first `nodes` nodes and
  // `edges` edges, with rc_.durable_snap (caller fills it) as the durable
  // indices; bumps rc_.recovery_sweeps.
  RecoveryOutcome recovery_sweep_locked(std::size_t nodes, std::size_t edges,
                                        std::span<const int> seeds) const
      RDT_REQUIRES(rc_.mu);
  // zreach's walk over the logs' first `nodes` nodes and `edges` edges: is
  // there an R-path from node `from` to checkpoint `to` with at least one
  // message edge?
  bool msg_reach_locked(std::size_t nodes, std::size_t edges, int from,
                        const CkptId& to) const RDT_REQUIRES(rc_.mu);

  mutable AnnotatedMutex feed_mu_;  // serializes feeders (on_* / feed)

  // Changes only in reset() (a quiesced lifecycle operation, also the
  // constructor's body); atomic so the lock-free query paths may read it
  // race-free. 0 until the constructor's reset().
  std::atomic<int> num_processes_{0};
  // Lifecycle-stable like num_processes_ (written only by reset(), read by
  // retention()); plain because it is never written while another thread
  // can run.
  RetentionPolicy retention_;

  TdvMachine machine_ RDT_GUARDED_BY(feed_mu_);
  // Live vector clocks, n x n row-major: row p is P_p's clock.
  std::vector<std::int64_t> clocks_ RDT_GUARDED_BY(feed_mu_);
  std::vector<ProcessState> state_ RDT_GUARDED_BY(feed_mu_);
  // The live message window: msgs_[m - msgs_base_] for m >= msgs_base_.
  // compact() walks the window's front up to the first row whose send
  // interval is still open. A delivered row there is dropped: nothing can
  // ever read it again. An undelivered one is parked in stragglers_, so it
  // holds back no later row.
  std::vector<MessageState> msgs_ RDT_GUARDED_BY(feed_mu_);
  MsgId msgs_base_ RDT_GUARDED_BY(feed_mu_) = 0;
  // Parked sends: the undelivered rows below msgs_base_, sorted by id (they
  // leave the window's front in id order). do_deliver finds a late delivery
  // here by binary search and erases the row; an id below the base that is
  // not here was delivered already. The R-graph has an edge only for a
  // delivered message, so a parked send holds no rollback dependency and
  // nothing back but its own row.
  // Abandoned sends: a parked row, and its snapshot slot, is kept until it
  // is delivered or reset() drops the slab. There is no age-out, because
  // dropping a parked row would turn a legal late delivery into an error.
  // Memory is O(lost sends): one row and one slab slot each.
  std::vector<std::pair<MsgId, MessageState>> stragglers_
      RDT_GUARDED_BY(feed_mu_);
  SnapshotSlab slab_ RDT_GUARDED_BY(feed_mu_);
  std::vector<NodeIdTable> node_ids_ RDT_GUARDED_BY(feed_mu_);
  // [u]: edge_log_.size() when node u was pushed. Every edge logged before
  // it has a head older than u, which is what lets compact_locked() rebuild
  // only the logs' retained suffix.
  std::vector<std::uint32_t> node_marks_ RDT_GUARDED_BY(feed_mu_);
  // Events applied since the last compaction attempt / resident probe.
  long long events_since_compact_ RDT_GUARDED_BY(feed_mu_) = 0;
  long long events_since_mem_probe_ RDT_GUARDED_BY(feed_mu_) = 0;
  // RDT_AUDITS + retention builds: a keep-all twin fed the same events,
  // the oracle for audit_compact_equivalence(). Null otherwise.
  std::unique_ptr<OnlineEngine> shadow_ RDT_GUARDED_BY(feed_mu_);

  // ----- published state (written by the feeder, read by anyone) -----------
  std::atomic<std::uint64_t> seq_{0};
  // Bumped whenever the R-graph or the durable frontier changes — the
  // recovery memo's validity key.
  std::atomic<std::uint64_t> recovery_epoch_{0};
  PublishedLog<CkptId> node_log_;   // engine node -> checkpoint, append order
  PublishedLog<EdgeRec> edge_log_;
  // [u]: index + 1 of node u's latest out-edge in edge_log_, 0 = none.
  PublishedHeads heads_;
  std::unique_ptr<std::atomic<CkptIndex>[]> tdv_pub_;      // n*n, row-major
  std::unique_ptr<std::atomic<std::int64_t>[]> clock_pub_; // n*n, row-major
  std::unique_ptr<PubProc[]> proc_pub_;

  std::atomic<long long> permanent_{0};  // MM violations vs frozen targets
  std::atomic<long long> live_vio_{0};   // pending starts the live TDV misses

  // Prefix counters (see stats()).
  std::atomic<int> retained_total_{0};  // prefix events minus virtual finals
  std::atomic<int> delivered_{0};
  std::atomic<long long> causal_junctions_{0};
  std::atomic<long long> noncausal_junctions_{0};

  // Raw intake counters (flush_metrics / events_consumed).
  std::atomic<long long> events_consumed_{0};
  std::atomic<long long> sends_observed_{0};
  std::atomic<long long> internals_observed_{0};
  std::atomic<long long> checkpoints_observed_{0};

  // Retention counters (retention_stats(); cumulative across reset()).
  std::atomic<long long> compactions_{0};
  std::atomic<long long> evicted_ckpts_{0};
  std::atomic<long long> evicted_edges_{0};
  std::atomic<long long> evicted_saved_{0};
  std::atomic<long long> evicted_msgs_{0};
  std::atomic<long long> late_edges_{0};
  // stragglers_.size(), mirrored for retention_stats(); a current count,
  // so reset() zeroes it.
  std::atomic<long long> parked_sends_{0};
  // Capacity-accounted footprint (util/mem_accounting.hpp), refreshed at
  // every reset (construction included), every compaction and every ~256k
  // fed events.
  std::atomic<std::size_t> resident_bytes_{0};

  mutable ReaderCache rc_;
};

}  // namespace rdt
