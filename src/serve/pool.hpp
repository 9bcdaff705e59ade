// ServePool — the multi-tenant serving layer over OnlineEngine.
//
// One pool multiplexes many client *sessions* (independent checkpoint
// streams, each with its own OnlineEngine) over a fixed set of S *shards*.
// A session hashes to one shard for its whole lifetime; each shard owns a
// bounded queue of encoded frames and one worker thread that takes the
// whole queue in one critical section, then decodes the batch and feeds it
// into the session engines via the batched feed(span) fast path, outside
// the lock. Clients submit pre-encoded wire frames (serve/wire.hpp) from
// any thread and run live queries (is_rdt_so_far / recovery_line / stats)
// concurrently — queries ride the engine's lock-free read path, so a query
// never blocks a shard worker and a worker never blocks a query.
//
// Lifecycle per session:
//   open_session(id)   — bind id to an engine (recycled via reset() when a
//                        closed session's engine is free, else fresh);
//   submit(frame)      — enqueue one encoded frame for the owning shard
//                        (FIFO per shard, so per-session event order is the
//                        submission order); blocks when the shard queue is
//                        full (backpressure, never unbounded memory);
//   queries            — valid from open until close_session returns;
//   close_session(id)  — enqueue the close *behind* every already-submitted
//                        frame; once the worker has applied the batch that
//                        holds it, the engine is retired to the shard's
//                        free list for reuse.
// drain() blocks until every shard's queue is empty and its worker idle —
// the pool-wide "all submitted work applied" barrier.
//
// Steady-state serving does not allocate per event: the queue and the
// worker's batch are two fixed arrays of queue_frames slots that trade
// places at each handoff, and a slot's byte buffer keeps its capacity for
// the next frame copied into it; the worker decodes into one reused Frame,
// feed() reuses the engine's internal pools, and a reopened session reuses
// a reset engine's arenas. Memory stays bounded: a shard holds 2 x
// queue_frames frame buffers (one queue plus one batch in flight), each
// as large as the largest frame it has carried, plus the worker's Frame.
//
// Thread-safety contract (TSA-annotated, lint-enforced):
//   * every shard field is guarded by that shard's mu; cross-shard state is
//     immutable after construction;
//   * engines are held by shared_ptr: a query copies the pointer under the
//     shard mu, releases it, then queries lock-free — so a racing close
//     cannot free an engine out from under a query, and an engine is only
//     reset for reuse once no query still holds it (use_count() == 1 under
//     the shard mu, where every new reference is minted);
//   * queued items carry raw engine and codec pointers: the session entry
//     owns both until the worker applies the session's close item, and that
//     item is queued behind every frame of the session;
//   * exactly one thread (the shard worker) ever feeds a given engine, as
//     OnlineEngine's single-feeder contract requires.
//
// A malformed frame *payload* (the envelope was validated at submit) is
// dropped at decode time and counted in ShardStats::rejected — one bad
// client must not take down the pool. The events of a rejected frame that
// preceded the fault are applied, exactly like a failing feed() batch.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "online/engine.hpp"
#include "serve/wire.hpp"
#include "util/thread_annotations.hpp"

namespace rdt::serve {

struct PoolOptions {
  int shards = 1;
  int num_processes = 2;           // process count of every session engine
  std::size_t queue_frames = 256;  // per-shard queue bound (backpressure)
  // Default retention policy of every session engine. A long-lived pool
  // should run bounded (RetentionPolicy::bounded()) so no single session can
  // grow without limit; open_session's two-argument overload opts an
  // individual session out of (or into) the default.
  RetentionPolicy retention{};
};

// Per-shard counters, read via shard_stats() or flushed to the obs registry
// by flush_metrics(). Average events per frame is events / frames, and the
// mean worker batch is frames / batches (closes ride batches too); events per
// second is events over the caller's wall clock (bench/bench_serve.cpp).
// The worker folds its batch's counters in at its next lock, so they trail
// the applied frames by at most one batch until drain() returns.
// The retention fields are point-in-time samples over the shard's *open*
// sessions (engines on the free list are excluded): cumulative compaction /
// eviction counters plus the summed resident-bytes accounting.
struct ShardStats {
  long long frames = 0;            // frames fed into engines
  long long events = 0;            // events those frames carried
  long long rejected = 0;          // frames dropped for a malformed payload
  long long batches = 0;           // worker hand-offs that took >= 1 item
  long long piggyback_frames = 0;  // frames whose piggyback section decoded
  long long piggyback_bits = 0;    // wire bits those sections carried
  long long piggyback_rejected = 0;  // sections dropped (bad ids or bytes)
  long long sessions_opened = 0;
  long long engines_recycled = 0;  // opens served by a reset() engine
  std::size_t max_queue_depth = 0;
  long long compactions = 0;           // across open sessions (cumulative)
  long long evicted_checkpoints = 0;   // across open sessions (cumulative)
  std::size_t resident_bytes = 0;      // summed engine accounting, sampled
};

class ServePool {
 public:
  explicit ServePool(PoolOptions options);
  ~ServePool();
  ServePool(const ServePool&) = delete;
  ServePool& operator=(const ServePool&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_processes() const { return options_.num_processes; }
  // The shard a session's frames are routed to (stable for the pool's
  // lifetime; exposed so tests can build shard-colliding workloads).
  int shard_of(SessionId id) const;

  // --- lifecycle -----------------------------------------------------------
  // Opens under the pool's default retention policy (PoolOptions::retention).
  void open_session(SessionId id);
  // Opens with a per-session policy: a trusted long-running tenant may keep
  // full history (RetentionPolicy::keep_all()) on a pool whose default is
  // bounded, and vice versa. The engine — fresh or recycled — is
  // constructed/reset under exactly this policy.
  void open_session(SessionId id, const RetentionPolicy& retention);
  // One encoded frame, exactly (the span must end where the frame ends).
  // Throws std::invalid_argument for a malformed envelope, an unknown or
  // closing session; blocks while the owning shard's queue is full.
  void submit(std::span<const std::uint8_t> frame);
  void close_session(SessionId id);
  // Blocks until every shard's queue is empty and its worker is idle.
  void drain();

  // --- live queries (valid between open_session and close_session) --------
  // The structured results mirror OnlineEngine's horizon-aware surface
  // (online/options.hpp): recovery_line and session_stats are always kOk,
  // but the shape is shared so callers handle one result type.
  bool is_rdt_so_far(SessionId id) const;
  RecoveryResult recovery_line(SessionId id) const;
  StatsResult session_stats(SessionId id) const;
  // The session engine's cumulative eviction counters + resident bytes.
  RetentionStats session_retention(SessionId id) const;
  long long events_consumed(SessionId id) const;

  ShardStats shard_stats(int shard) const;
  // In an observability build with a session active, fold the per-shard
  // counters into the registry (names "serve.*" / "serve.shard<k>.*").
  void flush_metrics() const;

 private:
  // Per-session piggyback decoder. Only the shard worker touches it (one
  // worker per shard, items applied in submission order), through the raw
  // pointer its queued items carry. num_processes == 0 means "not yet
  // configured" — the first piggyback frame fixes the (protocol, codec)
  // pair for the session's lifetime, since the delta codec's channel
  // shadows are stateful across frames.
  struct SessionCodec {
    PiggybackCodec codec;
    ProtocolKind protocol = ProtocolKind::kNoForce;
    PiggybackCodecKind kind = PiggybackCodecKind::kFlat;
    PayloadShape shape;
    int num_processes = 0;
  };

  struct Session {
    std::shared_ptr<OnlineEngine> engine;
    // Lives in the session map's node, whose address survives rehashing;
    // erased only when the worker applies the session's close item.
    SessionCodec codec;
    bool closing = false;  // close queued; rejects further submits
  };

  // One queue slot: an encoded frame, or a close marker (bytes unused). The
  // engine and codec are resolved at submit time so the worker feeds
  // without a second session-map lookup. A slot outlives the frames it
  // carries, so its byte buffer is reused at the capacity it grew to.
  struct Item {
    std::vector<std::uint8_t> bytes;
    SessionId session = 0;
    OnlineEngine* engine = nullptr;
    SessionCodec* codec = nullptr;
    bool close = false;
  };

  struct Shard {
    mutable AnnotatedMutex mu;
    // Condition variables pair with mu (std::condition_variable_any waits
    // directly on the AnnotatedMutex, keeping the capability visible to
    // TSA at every guarded access). nonempty and space are signalled only
    // when the flag or count beside them says a thread is waiting.
    std::condition_variable_any nonempty;  // queue gained an item
    std::condition_variable_any space;     // worker took the queue
    std::condition_variable_any idle;      // queue empty and worker idle
    bool worker_waiting RDT_GUARDED_BY(mu) = false;
    int space_waiters RDT_GUARDED_BY(mu) = 0;
    // FIFO of `queued` filled slots out of queue_frames; the worker swaps
    // the whole array for its spent batch.
    std::vector<Item> queue RDT_GUARDED_BY(mu);
    std::size_t queued RDT_GUARDED_BY(mu) = 0;
    bool busy RDT_GUARDED_BY(mu) = false;  // worker holds an unfolded batch
    bool stopping RDT_GUARDED_BY(mu) = false;
    std::unordered_map<SessionId, Session> sessions RDT_GUARDED_BY(mu);
    std::vector<std::shared_ptr<OnlineEngine>> free_engines
        RDT_GUARDED_BY(mu);
    ShardStats stats RDT_GUARDED_BY(mu);
    std::thread worker;  // started last in the constructor, joined first
  };

  // Worker-local scratch planes the piggyback decoder fills; grow-only so
  // the steady state stays allocation-free.
  struct PiggybackScratch {
    std::vector<CkptIndex> tdv;
    std::vector<std::uint64_t> simple;
    std::vector<std::uint64_t> causal;
    CkptIndex index = 0;
  };

  Shard& shard_for(SessionId id) const { return *shards_[static_cast<std::size_t>(shard_of(id))]; }
  std::shared_ptr<OnlineEngine> engine_of(SessionId id) const;
  // Fills the next queue slot (the caller has waited for room).
  // Sets `wake` when the worker sleeps on `nonempty`; the caller signals
  // it once mu is released, so the woken worker does not block on mu.
  Item& push_item(Shard& shard, bool& wake) RDT_REQUIRES(shard.mu);
  // Sleeps once on `space`; the caller re-checks its condition.
  void wait_for_space(Shard& shard) RDT_REQUIRES(shard.mu);
  // Folds an applied batch into the shard: its counters, its closes
  // retired.
  void fold_batch(Shard& shard, std::span<const Item> batch,
                  const ShardStats& tally) RDT_REQUIRES(shard.mu);
  void worker_loop(Shard& shard);
  // Decodes `frame`'s piggyback section through the session codec into the
  // scratch planes. Returns false (and leaves the codec unconfigured, so a
  // later frame can start over) when the section's ids disagree with the
  // pool or the bytes are malformed; `bits` accumulates the wire bits of
  // a successful decode.
  bool apply_piggyback(SessionCodec& sc, const Frame& frame,
                       PiggybackScratch& scratch, long long* bits) const;

  const PoolOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rdt::serve
