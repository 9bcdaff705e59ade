#include "serve/pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/hooks.hpp"
#include "protocols/registry.hpp"
#include "util/check.hpp"

namespace rdt::serve {

ServePool::ServePool(PoolOptions options) : options_(options) {
  RDT_REQUIRE(options_.shards >= 1, "need at least one shard");
  RDT_REQUIRE(options_.num_processes >= 1, "need at least one process");
  RDT_REQUIRE(options_.queue_frames >= 1, "need a queue of at least one frame");
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    {
      // The worker is not running yet, but TSA checks the guarded writes.
      const MutexLock lock(shard->mu);
      shard->queue.resize(options_.queue_frames);
    }
    shards_.push_back(std::move(shard));
  }
  // Workers start only once the shard table is complete and immutable.
  for (auto& shard : shards_) {
    Shard& s = *shard;
    s.worker = std::thread([this, &s] { worker_loop(s); });
  }
}

ServePool::~ServePool() {
  for (auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    shard->stopping = true;
    shard->nonempty.notify_all();
  }
  // Workers drain whatever is still queued, then exit.
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

int ServePool::shard_of(SessionId id) const {
  // splitmix64 finalizer: adjacent session ids (the common client pattern)
  // must not pile onto one shard, so the route mixes before it reduces.
  std::uint64_t x = id + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<int>(x % static_cast<std::uint64_t>(shards_.size()));
}

void ServePool::open_session(SessionId id) {
  open_session(id, options_.retention);
}

void ServePool::open_session(SessionId id, const RetentionPolicy& retention) {
  Shard& s = shard_for(id);
  std::shared_ptr<OnlineEngine> engine;
  bool recycled = false;
  {
    const MutexLock lock(s.mu);
    RDT_REQUIRE(s.sessions.find(id) == s.sessions.end(),
                "session id is already open on this pool");
    // Reuse guard: the shard mu is where every engine reference is minted,
    // so use_count() == 1 observed here proves no query still holds it.
    if (!s.free_engines.empty() && s.free_engines.back().use_count() == 1) {
      engine = std::move(s.free_engines.back());
      s.free_engines.pop_back();
      recycled = true;
    }
  }
  // Construction / reset runs outside the lock: both are O(n^2) in the
  // process count and must not stall the shard worker. A recycled engine is
  // reset under the *incoming* session's policy — the retention caps keep a
  // previous tenant's arenas from leaking capacity into this one.
  const EngineOptions engine_options{options_.num_processes, retention};
  if (recycled)
    engine->reset(engine_options);
  else
    engine = std::make_shared<OnlineEngine>(engine_options);
  const MutexLock lock(s.mu);
  const bool inserted =
      s.sessions.emplace(id, Session{std::move(engine), {}, false}).second;
  RDT_REQUIRE(inserted, "session id is already open on this pool");
  ++s.stats.sessions_opened;
  if (recycled) ++s.stats.engines_recycled;
}

ServePool::Item& ServePool::push_item(Shard& shard, bool& wake) {
  Item& item = shard.queue[shard.queued++];
  shard.stats.max_queue_depth =
      std::max(shard.stats.max_queue_depth, shard.queued);
  wake = shard.worker_waiting;
  shard.worker_waiting = false;  // one wake-up per worker wait
  return item;
}

void ServePool::wait_for_space(Shard& shard) {
  ++shard.space_waiters;
  shard.space.wait(shard.mu);
  --shard.space_waiters;
}

void ServePool::submit(std::span<const std::uint8_t> frame) {
  const FrameHeader header = peek_frame(frame, 0);
  RDT_REQUIRE(header.frame_end == frame.size(),
              "submit expects exactly one encoded frame");
  Shard& s = shard_for(header.session);
  bool wake = false;
  {
    const MutexLock lock(s.mu);
    for (;;) {
      // Re-validate after every wait: the session can be closed (or the
      // map rehashed by another open) while this thread slept on
      // backpressure.
      const auto it = s.sessions.find(header.session);
      RDT_REQUIRE(it != s.sessions.end() && !it->second.closing,
                  "frame submitted for a session that is not open");
      if (s.queued < options_.queue_frames) {
        Item& item = push_item(s, wake);
        item.bytes.assign(frame.begin(), frame.end());
        item.session = header.session;
        item.engine = it->second.engine.get();
        item.codec = &it->second.codec;
        item.close = false;
        break;
      }
      wait_for_space(s);
    }
  }
  // Signalled after the unlock, so the woken worker does not block on mu.
  if (wake) s.nonempty.notify_one();
}

void ServePool::close_session(SessionId id) {
  Shard& s = shard_for(id);
  bool wake = false;
  {
    const MutexLock lock(s.mu);
    const auto it = s.sessions.find(id);
    RDT_REQUIRE(it != s.sessions.end() && !it->second.closing,
                "close of a session that is not open");
    it->second.closing = true;  // later submits fail; queued frames apply
    while (s.queued == options_.queue_frames) wait_for_space(s);
    Item& item = push_item(s, wake);
    item.session = id;
    item.close = true;
  }
  if (wake) s.nonempty.notify_one();
}

void ServePool::drain() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    const MutexLock lock(s.mu);
    while (s.queued > 0 || s.busy) s.idle.wait(s.mu);
  }
}

void ServePool::fold_batch(Shard& shard, std::span<const Item> batch,
                           const ShardStats& tally) {
  shard.stats.frames += tally.frames;
  shard.stats.events += tally.events;
  shard.stats.rejected += tally.rejected;
  shard.stats.piggyback_frames += tally.piggyback_frames;
  shard.stats.piggyback_bits += tally.piggyback_bits;
  shard.stats.piggyback_rejected += tally.piggyback_rejected;
  for (const Item& item : batch) {
    if (!item.close) continue;
    // Every frame of the session preceded its close, so the whole batch
    // has been applied and nothing still points at this entry. The
    // closing flag blocks a second close and open_session rejects the id
    // while mapped, so the entry must still be here.
    const auto it = shard.sessions.find(item.session);
    RDT_ASSERT(it != shard.sessions.end());
    shard.free_engines.push_back(std::move(it->second.engine));
    shard.sessions.erase(it);
  }
}

void ServePool::worker_loop(Shard& s) {
  // Swapped with the queue at every handoff: both arrays keep their slots
  // and the slots keep their byte capacity.
  std::vector<Item> batch(options_.queue_frames);
  std::size_t batch_size = 0;
  Frame scratch;  // reused across frames: zero steady-state allocation
  PiggybackScratch pb_scratch;
  ShardStats tally;  // the batch's counters, folded at the next lock
  for (;;) {
    bool wake_submitters = false;
    {
      const MutexLock lock(s.mu);
      fold_batch(s, std::span<const Item>(batch.data(), batch_size), tally);
      tally = ShardStats{};
      s.busy = false;
      if (s.queued == 0) {
        s.idle.notify_all();
        while (s.queued == 0 && !s.stopping) {
          s.worker_waiting = true;
          s.nonempty.wait(s.mu);
        }
        s.worker_waiting = false;
        if (s.queued == 0) return;  // stopping, queue fully drained
      }
      std::swap(s.queue, batch);
      batch_size = std::exchange(s.queued, 0);
      s.busy = true;
      ++s.stats.batches;
      wake_submitters = s.space_waiters > 0;
    }
    if (wake_submitters) s.space.notify_all();
    for (std::size_t i = 0; i < batch_size; ++i) {
      const Item& item = batch[i];
      if (item.close) continue;
      try {
        std::size_t offset = 0;
        decode_frame(item.bytes, offset, scratch);
        item.engine->feed(scratch.events);
        // Control data rides behind the events: decode it through the
        // session codec so serve traffic exercises the exact path the
        // replay engine measures. A bad section is counted separately —
        // the events already applied stand, like a failing feed() batch
        // tail.
        long long bits = 0;
        const bool pb_ok =
            !scratch.has_piggyback ||
            apply_piggyback(*item.codec, scratch, pb_scratch, &bits);
        ++tally.frames;
        tally.events += static_cast<long long>(scratch.events.size());
        if (scratch.has_piggyback && pb_ok) {
          ++tally.piggyback_frames;
          tally.piggyback_bits += bits;
        }
        if (!pb_ok) ++tally.piggyback_rejected;
      } catch (const std::invalid_argument&) {
        // Envelope checks passed at submit, but the payload (or the
        // stream's own sequencing rules, enforced by feed) can still be
        // bad. One bad frame is the client's problem, not the pool's:
        // count and drop it.
        ++tally.rejected;
      }
    }
  }
}

bool ServePool::apply_piggyback(SessionCodec& sc, const Frame& frame,
                                PiggybackScratch& scratch,
                                long long* bits) const {
  const PiggybackSection& pb = frame.piggyback;
  if (pb.num_processes != options_.num_processes) return false;
  if (sc.num_processes == 0) {
    const ProtocolInfo& info = ProtocolRegistry::instance().info(pb.protocol);
    sc.codec.reset(pb.codec, pb.num_processes, info.shape);
    sc.protocol = pb.protocol;
    sc.kind = pb.codec;
    sc.shape = info.shape;
    sc.num_processes = pb.num_processes;
  } else if (sc.protocol != pb.protocol || sc.kind != pb.codec) {
    // The delta codec's shadows are per-(protocol, codec) state; a stream
    // that changes either mid-session is out of contract. Unconfigure so
    // the client can start over cleanly.
    sc.num_processes = 0;
    return false;
  }
  const auto n = static_cast<std::size_t>(sc.num_processes);
  const std::size_t row_words = bitdetail::words_for(n);
  if (sc.shape.tdv && scratch.tdv.size() < n) scratch.tdv.resize(n);
  if (sc.shape.simple && scratch.simple.size() < row_words)
    scratch.simple.resize(row_words);
  if (sc.shape.causal && scratch.causal.size() < n * row_words)
    scratch.causal.resize(n * row_words);
  std::size_t start = 0;
  std::size_t blob = 0;
  for (const StreamEvent& e : frame.events) {
    if (e.kind != EventKind::kSend) continue;
    const std::uint32_t len = pb.sizes[blob++];
    if (e.p >= sc.num_processes || e.q >= sc.num_processes) {
      sc.num_processes = 0;
      return false;
    }
    PiggybackSlot slot;
    if (sc.shape.tdv) slot.tdv = {scratch.tdv.data(), n};
    if (sc.shape.simple) slot.simple = {scratch.simple.data(), n};
    if (sc.shape.causal) slot.causal = {scratch.causal.data(), n, n};
    if (sc.shape.index) slot.index = &scratch.index;
    std::size_t offset = 0;
    const std::span<const std::uint8_t> blob_bytes{pb.bytes.data() + start,
                                                   len};
    try {
      sc.codec.decode(e.p, e.q, blob_bytes, offset, slot);
    } catch (const std::invalid_argument&) {
      sc.num_processes = 0;
      return false;
    }
    if (offset != len) {  // trailing bytes inside the blob framing
      sc.num_processes = 0;
      return false;
    }
    *bits += 8LL * len;
    start += len;
  }
  return true;
}

std::shared_ptr<OnlineEngine> ServePool::engine_of(SessionId id) const {
  Shard& s = shard_for(id);
  const MutexLock lock(s.mu);
  const auto it = s.sessions.find(id);
  RDT_REQUIRE(it != s.sessions.end(),
              "query for a session that is not open");
  return it->second.engine;
}

bool ServePool::is_rdt_so_far(SessionId id) const {
  return engine_of(id)->is_rdt_so_far();
}

RecoveryResult ServePool::recovery_line(SessionId id) const {
  return engine_of(id)->recovery_line();
}

StatsResult ServePool::session_stats(SessionId id) const {
  return engine_of(id)->stats();
}

RetentionStats ServePool::session_retention(SessionId id) const {
  return engine_of(id)->retention_stats();
}

long long ServePool::events_consumed(SessionId id) const {
  return engine_of(id)->events_consumed();
}

ShardStats ServePool::shard_stats(int shard) const {
  RDT_REQUIRE(shard >= 0 && shard < num_shards(), "shard index out of range");
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  const MutexLock lock(s.mu);
  ShardStats out = s.stats;
  // Retention sampling: each engine's counters are lock-free relaxed loads,
  // so holding the shard mu here never blocks the worker's feed path.
  for (const auto& [id, session] : s.sessions) {
    const RetentionStats r = session.engine->retention_stats();
    out.compactions += r.compactions;
    out.evicted_checkpoints += r.evicted_checkpoints;
    out.resident_bytes += r.resident_bytes;
  }
  return out;
}

void ServePool::flush_metrics() const {
  if constexpr (!obs::kObsEnabled) return;
  obs::ObsSession* session = obs::ObsSession::current();
  if (session == nullptr) return;
  auto& m = session->metrics();
  for (int i = 0; i < num_shards(); ++i) {
    const ShardStats s = shard_stats(i);
    const std::string prefix = "serve.shard" + std::to_string(i) + ".";
    m.add(m.counter(prefix + "frames"), s.frames);
    m.add(m.counter(prefix + "events"), s.events);
    m.add(m.counter(prefix + "rejected"), s.rejected);
    m.add(m.counter(prefix + "batches"), s.batches);
    m.add(m.counter(prefix + "piggyback.frames"), s.piggyback_frames);
    m.add(m.counter(prefix + "piggyback.bits"), s.piggyback_bits);
    m.add(m.counter(prefix + "piggyback.rejected"), s.piggyback_rejected);
    m.add(m.counter(prefix + "queue.max_depth"),
          static_cast<long long>(s.max_queue_depth));
    m.add(m.counter("serve.frames"), s.frames);
    m.add(m.counter("serve.events"), s.events);
    m.add(m.counter("serve.sessions.opened"), s.sessions_opened);
    m.add(m.counter("serve.engines.recycled"), s.engines_recycled);
    m.add(m.counter("serve.retention.compactions"), s.compactions);
    m.add(m.counter("serve.retention.evicted_checkpoints"),
          s.evicted_checkpoints);
    m.add(m.counter("serve.retention.resident_bytes"),
          static_cast<long long>(s.resident_bytes));
  }
}

}  // namespace rdt::serve
