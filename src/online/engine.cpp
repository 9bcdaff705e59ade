#include "online/engine.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <thread>

#include "obs/hooks.hpp"
#include "util/check.hpp"
#include "util/mem_accounting.hpp"

namespace rdt {

namespace {

// Single-writer counter bump. The mirrors are atomic only so readers can
// load them race-free; the feeder is the sole writer, so a relaxed
// load/modify/store (not an RMW) is exact.
template <typename T>
inline void bump(std::atomic<T>& c, T d) {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

// Cadence of the resident-bytes probe during feeding (events between
// refresh_resident_bytes() calls when no compaction runs).
constexpr long long kMemProbeEvents = 1 << 18;

// Free `v`'s buffer when its capacity exceeds `max_rows` rows of `stride`
// elements.
template <typename T>
void cap_rows(std::vector<T>& v, std::size_t max_rows, std::size_t stride = 1) {
  if (v.capacity() / stride > max_rows) std::vector<T>{}.swap(v);
}

}  // namespace

// TdvMachine has no empty state; reset() re-seeds it anyway.
OnlineEngine::OnlineEngine(const EngineOptions& options)
    : machine_(options.num_processes) {
  reset(options);
}

void OnlineEngine::reset(const EngineOptions& options) {
  RDT_REQUIRE(options.num_processes >= 1, "need at least one process");
  const MutexLock lock(feed_mu_);
  // Bracket with the seqlock so a contract-violating late reader spins
  // through the teardown instead of tearing a half-reset snapshot.
  const WriteTicket ticket(seq_);
  const auto n = static_cast<std::size_t>(options.num_processes);
  const bool resized = options.num_processes != this->num_processes();
  num_processes_.store(options.num_processes, std::memory_order_relaxed);
  retention_ = options.retention;

  machine_.reset(options.num_processes);
  clocks_.assign(n * n, 0);

  // A bounded engine must not inherit a pathological previous session's
  // arenas: cap the row capacity that survives (a keep-all reset keeps all
  // of it, the historical behavior).
  const std::size_t max_rows = retention_.enabled
                                   ? retention_.max_reset_message_capacity
                                   : std::numeric_limits<std::size_t>::max();
  msgs_.clear();
  msgs_base_ = 0;
  stragglers_.clear();
  parked_sends_.store(0, std::memory_order_relaxed);
  // Every snapshot slot goes with the message table: the slab is empty.
  slab_.stride = n;
  slab_.tdv.clear();
  slab_.clock.clear();
  slab_.free.clear();
  cap_rows(msgs_, max_rows);
  cap_rows(stragglers_, max_rows);
  cap_rows(slab_.tdv, max_rows, n);
  cap_rows(slab_.clock, max_rows, n);
  cap_rows(slab_.free, max_rows);

  node_log_.reset();
  edge_log_.reset();
  heads_.reset();
  node_marks_.clear();
  state_.resize(n);
  node_ids_.resize(n);
  for (ProcessId p = 0; p < options.num_processes; ++p) {
    auto& ps = state_[static_cast<std::size_t>(p)];
    ps.durable = 0;
    ps.frontier = -1;
    ps.deliveries = 0;
    ps.open_retained = 0;
    ps.vio = 0;
    ps.dirty = true;  // every mirror is republished below
    ps.interval_sends.clear();
    ps.pending.assign(n, 0);
    ps.saved.reset(n, max_rows);
    // The implicit initial checkpoint C_{p,0}.
    ps.last_node = push_node(CkptId{p, 0});
    auto& t = node_ids_[static_cast<std::size_t>(p)];
    t.ids.assign(1, ps.last_node);
    t.base = 0;
  }
  events_since_compact_ = 0;
  events_since_mem_probe_ = 0;

  if (retention_.enabled) {
    // Actually free the logs' chunk storage under a bounded policy.
    node_log_.release_unused_chunks();
    edge_log_.release_unused_chunks();
    heads_.release_unused_chunks();
  }

  if (resized) {
    tdv_pub_ = std::make_unique<std::atomic<CkptIndex>[]>(n * n);
    clock_pub_ = std::make_unique<std::atomic<std::int64_t>[]>(n * n);
    proc_pub_ = std::make_unique<PubProc[]>(n);
  }
  for (std::size_t p = 0; p < n; ++p)
    proc_pub_[p].horizon.store(0, std::memory_order_relaxed);

  permanent_.store(0, std::memory_order_relaxed);
  live_vio_.store(0, std::memory_order_relaxed);
  retained_total_.store(0, std::memory_order_relaxed);
  delivered_.store(0, std::memory_order_relaxed);
  causal_junctions_.store(0, std::memory_order_relaxed);
  noncausal_junctions_.store(0, std::memory_order_relaxed);
  events_consumed_.store(0, std::memory_order_relaxed);
  sends_observed_.store(0, std::memory_order_relaxed);
  internals_observed_.store(0, std::memory_order_relaxed);
  checkpoints_observed_.store(0, std::memory_order_relaxed);
  // Retention counters deliberately survive: they are lifetime metrics,
  // like rc_.recovery_sweeps.
  // Bump (never rewind) the epoch: a memo keyed to a pre-reset epoch must
  // not validate against the recycled graph.
  bump(recovery_epoch_, std::uint64_t{1});

  {
    // feed_mu_ -> rc_.mu is a fresh lock order, but safe: no query path
    // acquires them in the other order (heavy queries take rc_.mu and then
    // only the seqlock, never feed_mu_).
    const MutexLock reader_lock(rc_.mu);
    rc_.node_ids.resize(n);
    for (auto& t : rc_.node_ids) {
      t.ids.clear();
      t.base = 0;
    }
    rc_.nodes_consumed = 0;
    rc_.durable_snap.assign(n, 0);
    rc_.recovery_memo_valid = false;
    // rc_.recovery_sweeps survives: it is a cumulative metrics counter.
  }

  if constexpr (kAuditsEnabled) {
    // The shadow is keep-all, so it never builds a shadow of its own.
    shadow_ = retention_.enabled ? std::make_unique<OnlineEngine>(
                                       EngineOptions{options.num_processes})
                                 : nullptr;
  }
  publish_dirty();  // own TDV entries are already 1 (interval I_{p,1})
  audit_published_state();
  refresh_resident_bytes();
}

template <typename Fn>
auto OnlineEngine::read_stable(Fn&& fn) const -> decltype(fn()) {
  for (int spins = 0;; ++spins) {
    const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
    if ((s1 & 1) == 0) {
      auto out = fn();
      seqlock_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) return out;
    }
    // A long feed() batch keeps seq_ odd for its whole duration — back off
    // instead of burning the feeder's core.
    if (spins >= 32) std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// Feeder side: mirrors.

void OnlineEngine::publish_dirty() {
  const auto n = static_cast<std::size_t>(num_processes());
  for (std::size_t p = 0; p < n; ++p) {
    auto& ps = state_[p];
    if (!ps.dirty) continue;
    ps.dirty = false;
    const std::span<const CkptIndex> t = machine_.at(static_cast<ProcessId>(p));
    for (std::size_t i = 0; i < n; ++i) {
      tdv_pub_[p * n + i].store(t[i], std::memory_order_relaxed);
      clock_pub_[p * n + i].store(clocks_[p * n + i],
                                  std::memory_order_relaxed);
    }
    proc_pub_[p].durable.store(ps.durable, std::memory_order_relaxed);
    proc_pub_[p].open_retained.store(ps.open_retained,
                                     std::memory_order_relaxed);
    proc_pub_[p].frontier.store(ps.frontier, std::memory_order_relaxed);
    // proc_pub_[p].horizon is written only by compact_locked()/reset(): the
    // horizon moves at compaction, never per event.
  }
}

void OnlineEngine::audit_published_state() const {
  if constexpr (!kAuditsEnabled) return;
  const auto n = static_cast<std::size_t>(num_processes());
  long long vio = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto& ps = state_[j];
    const std::span<const CkptIndex> live =
        machine_.at(static_cast<ProcessId>(j));
    int v = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (ps.pending[k] > live[k]) ++v;
      RDT_AUDIT(tdv_pub_[j * n + k].load(std::memory_order_relaxed) == live[k],
                "published TDV mirror diverged from the live TDV");
      RDT_AUDIT(clock_pub_[j * n + k].load(std::memory_order_relaxed) ==
                    clocks_[j * n + k],
                "published clock mirror diverged from the live clock");
    }
    RDT_AUDIT(v == ps.vio,
              "per-process pending-vs-live census diverged from its counter");
    vio += v;
    RDT_AUDIT(proc_pub_[j].durable.load(std::memory_order_relaxed) ==
                  ps.durable,
              "published durable index diverged");
    RDT_AUDIT(proc_pub_[j].open_retained.load(std::memory_order_relaxed) ==
                  ps.open_retained,
              "published open-interval event count diverged");
    RDT_AUDIT(proc_pub_[j].frontier.load(std::memory_order_relaxed) ==
                  ps.frontier,
              "published frontier node diverged");
    RDT_AUDIT(proc_pub_[j].horizon.load(std::memory_order_relaxed) ==
                  node_ids_[j].base,
              "published retention horizon diverged from the id table base");
  }
  RDT_AUDIT(vio == live_vio_.load(std::memory_order_relaxed),
            "live violation census diverged from its counter");
}

// ---------------------------------------------------------------------------
// Feeder side: event bodies. Caller holds feed_mu_ inside a WriteTicket;
// every RDT_REQUIRE fires before the first mutation of its event.

int OnlineEngine::push_node(const CkptId& c) {
  // The head slot first: the node log's size release publishes both.
  heads_.push_back(0);
  node_log_.push_back(c);
  node_marks_.push_back(static_cast<std::uint32_t>(edge_log_.size()));
  return static_cast<int>(node_log_.size()) - 1;
}

void OnlineEngine::push_edge(int from, int to, bool message) {
  const auto tail = static_cast<std::size_t>(from);
  edge_log_.push_back(EdgeRec{
      static_cast<std::uint32_t>(from),
      (static_cast<std::uint32_t>(to) << 1) | (message ? 1u : 0u),
      heads_.load(tail)});
  // Released only after the edge is: a reader acquiring the new head can
  // read the entry it names, and every entry down its prev chain.
  heads_.store(tail, static_cast<std::uint32_t>(edge_log_.size()));
}

std::span<std::int64_t> OnlineEngine::clock_row(ProcessId p) {
  const auto n = static_cast<std::size_t>(num_processes());
  return {clocks_.data() + static_cast<std::size_t>(p) * n, n};
}

void OnlineEngine::ensure_frontier(ProcessId p) {
  auto& ps = state_[static_cast<std::size_t>(p)];
  if (ps.frontier != -1) return;
  ps.frontier = push_node(CkptId{p, ps.durable + 1});
  // The process edge C_{p,durable} -> C_{p,durable+1}. After a compaction
  // that evicted C_{p,durable} itself (line == durable), last_node IS the
  // process's summary node and the edge is the collapsed stand-in.
  push_edge(ps.last_node, ps.frontier, false);
  bump(recovery_epoch_, std::uint64_t{1});
}

int OnlineEngine::node_of(const CkptId& c) const {
  RDT_REQUIRE(c.process >= 0 && c.process < num_processes(),
              "process id out of range");
  const auto& ps = state_[static_cast<std::size_t>(c.process)];
  if (c.index == ps.durable + 1 && ps.frontier != -1) return ps.frontier;
  const NodeIdTable& t = node_ids_[static_cast<std::size_t>(c.process)];
  RDT_REQUIRE(c.index >= t.base && c.index <= ps.durable,
              "checkpoint not (yet) known to the engine or evicted");
  return t.ids[static_cast<std::size_t>(c.index - t.base)];
}

void OnlineEngine::evaluate_mm(const CkptId& target, ProcessId k,
                               CkptIndex si) {
  const ProcessId j = target.process;
  auto& pj = state_[static_cast<std::size_t>(j)];
  if (k == j) {
    // Same-process trackability is positional and never changes.
    if (si > target.index) bump(permanent_, 1LL);
    return;
  }
  if (target.index <= pj.durable) {
    // Frozen target: the saved TDV is the final word. The window lookup is
    // the retention-safety proof in executable form: a frozen junction
    // target always carries an in-edge from a still-volatile node, so it is
    // invalid in every sweep since the junction formed — strictly above any
    // recovery line a compaction could have released rows behind.
    if (pj.saved.at(target.index)[static_cast<std::size_t>(k)] < si)
      bump(permanent_, 1LL);
    return;
  }
  // Open target: the live TDV can only grow, so once it covers the start
  // the junction is doubled forever; otherwise it stays pending until the
  // next checkpoint of P_j freezes the interval.
  const std::span<const CkptIndex> live = machine_.at(j);
  if (live[static_cast<std::size_t>(k)] >= si) return;
  CkptIndex& slot = pj.pending[static_cast<std::size_t>(k)];
  const bool was_vio = slot > live[static_cast<std::size_t>(k)];
  slot = std::max(slot, si);
  if (!was_vio) {
    // The slot now exceeds the live entry (si does), so the census grows.
    ++pj.vio;
    bump(live_vio_, 1LL);
  }
}

void OnlineEngine::refresh_vio(ProcessId j) {
  auto& pj = state_[static_cast<std::size_t>(j)];
  // Only a grown live TDV can change the census here, and growth can only
  // cover violations — with none outstanding there is nothing to recount.
  if (pj.vio == 0) return;
  const std::span<const CkptIndex> live = machine_.at(j);
  int v = 0;
  for (std::size_t k = 0; k < pj.pending.size(); ++k)
    if (pj.pending[k] > live[k]) ++v;
  if (v != pj.vio) {
    bump(live_vio_, static_cast<long long>(v - pj.vio));
    pj.vio = v;
  }
}

void OnlineEngine::do_send(MsgId m, ProcessId sender, ProcessId receiver) {
  RDT_REQUIRE(sender >= 0 && sender < num_processes() && receiver >= 0 &&
                  receiver < num_processes() && sender != receiver,
              "invalid send endpoints");
  RDT_REQUIRE(m == msgs_base_ + static_cast<MsgId>(msgs_.size()),
              "message ids must arrive densely in send order");
  ensure_frontier(sender);
  auto& ps = state_[static_cast<std::size_t>(sender)];
  const std::span<std::int64_t> clock = clock_row(sender);
  ++clock[static_cast<std::size_t>(sender)];

  MessageState ms;
  ms.sender = sender;
  ms.receiver = receiver;
  ms.send_interval = ps.durable + 1;
  ms.deliveries_at_sender = ps.deliveries;
  ms.slot = slab_.acquire();
  machine_.send(sender, slab_.tdv_row(ms.slot));
  std::copy(clock.begin(), clock.end(), slab_.clock_row(ms.slot).begin());
  ps.interval_sends.push_back(m);
  msgs_.push_back(std::move(ms));

  bump(events_consumed_, 1LL);
  bump(sends_observed_, 1LL);
}

void OnlineEngine::do_deliver(MsgId m, ProcessId sender, ProcessId receiver) {
  RDT_REQUIRE(m >= 0 && m < msgs_base_ + static_cast<MsgId>(msgs_.size()),
              "unknown message id");
  // Below the window base a row is either parked (undelivered, its send
  // interval closed) or was dropped, which compaction does only to a
  // delivered row. So an id below the base that is not parked is a
  // redelivery, not an unknown message.
  auto parked = stragglers_.end();
  if (m < msgs_base_) {
    parked = std::lower_bound(
        stragglers_.begin(), stragglers_.end(), m,
        [](const auto& row, MsgId id) { return row.first < id; });
    RDT_REQUIRE(parked != stragglers_.end() && parked->first == m,
                "message already delivered");
  }
  MessageState& ms = parked != stragglers_.end()
                         ? parked->second
                         : msgs_[static_cast<std::size_t>(m - msgs_base_)];
  RDT_REQUIRE(!ms.delivered, "message already delivered");
  RDT_REQUIRE(ms.sender == sender && ms.receiver == receiver,
              "delivery endpoints disagree with the send");
  ensure_frontier(receiver);
  auto& pr = state_[static_cast<std::size_t>(receiver)];

  ms.delivered = true;
  ms.deliver_interval = pr.durable + 1;
  // The R-graph message edge C_{sender,send_interval} -> C_{receiver,open}.
  // A *late* edge — the send interval already evicted — collapses its tail
  // onto the sender's summary node (node `sender`, see compact_locked): the
  // head is volatile (above every past and future line at creation), so no
  // retained-to-retained answer can ever traverse the real tail.
  int tail = sender;
  if (ms.send_interval < node_ids_[static_cast<std::size_t>(sender)].base)
    bump(late_edges_, 1LL);
  else
    tail = node_of({sender, ms.send_interval});
  push_edge(tail, pr.frontier, true);
  bump(recovery_epoch_, std::uint64_t{1});

  const std::span<std::int64_t> clock = clock_row(receiver);
  ++clock[static_cast<std::size_t>(receiver)];
  const std::span<const std::int64_t> piggy = slab_.clock_row(ms.slot);
  for (std::size_t k = 0; k < clock.size(); ++k)
    clock[k] = std::max(clock[k], piggy[k]);
  machine_.deliver(receiver, slab_.tdv_row(ms.slot));
  // The merge may have covered pending starts; recount the receiver.
  refresh_vio(receiver);

  // The delivery joins the closed prefix and retains its matching send.
  bump(delivered_, 1);
  bump(retained_total_, 2);
  ++pr.open_retained;
  auto& psender = state_[static_cast<std::size_t>(sender)];
  if (ms.send_interval == psender.durable + 1) ++psender.open_retained;
  bump(causal_junctions_, ms.deliveries_at_sender);

  // Non-causal junctions with m as the *incoming* message: every send of
  // the receiver earlier in this same interval. A junction only exists in
  // the closed prefix once its outgoing message is delivered too, so the
  // verdict is deferred to that delivery when needed. Sends of an open
  // interval are always at or above the message window base: only rows
  // whose send interval has closed leave the window.
  for (const MsgId out : pr.interval_sends) {
    RDT_ASSERT(out >= msgs_base_);
    MessageState& mo = msgs_[static_cast<std::size_t>(out - msgs_base_)];
    if (mo.delivered) {
      bump(noncausal_junctions_, 1LL);
      evaluate_mm({mo.receiver, mo.deliver_interval}, ms.sender,
                  ms.send_interval);
    } else {
      mo.deferred.emplace_back(ms.sender, ms.send_interval);
    }
  }
  // Junctions with m as the *outgoing* message, discovered while it was in
  // flight: they materialize now, targeting the receiver's open interval.
  for (const auto& [k, si] : ms.deferred) {
    bump(noncausal_junctions_, 1LL);
    evaluate_mm({receiver, pr.durable + 1}, k, si);
  }
  ms.deferred.clear();
  ms.deferred.shrink_to_fit();
  ++pr.deliveries;

  // The piggyback snapshots are spent; their slot serves a later send.
  slab_.release(ms.slot);
  if (parked != stragglers_.end()) {
    // A parked row is read only by its own delivery: release it now.
    stragglers_.erase(parked);
    bump(evicted_msgs_, 1LL);
    bump(parked_sends_, -1LL);
  }

  bump(events_consumed_, 1LL);
}

void OnlineEngine::do_internal(ProcessId p) {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  ensure_frontier(p);
  auto& ps = state_[static_cast<std::size_t>(p)];
  ++clock_row(p)[static_cast<std::size_t>(p)];
  ++ps.open_retained;
  bump(retained_total_, 1);
  bump(events_consumed_, 1LL);
  bump(internals_observed_, 1LL);
}

void OnlineEngine::do_checkpoint(ProcessId p, CkptIndex index) {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  auto& ps = state_[static_cast<std::size_t>(p)];
  RDT_REQUIRE(index == ps.durable + 1,
              "checkpoint indexes must advance one at a time");
  ensure_frontier(p);

  // Freeze the open interval: its TDV becomes the saved vector of C_{p,x},
  // which settles every junction that was pending against it. The saved
  // vector IS the live one before the own-entry bump, so the number of
  // settled violations is exactly the process's live census.
  const std::span<CkptIndex> saved = ps.saved.append();
  machine_.checkpoint(p, saved);
  long long settled = 0;
  for (std::size_t k = 0; k < ps.pending.size(); ++k) {
    if (ps.pending[k] > saved[k]) ++settled;
    ps.pending[k] = 0;
  }
  RDT_ASSERT(settled == ps.vio);
  if (settled > 0) {
    bump(permanent_, settled);
    bump(live_vio_, -settled);
  }
  ps.vio = 0;

  ++ps.durable;
  node_ids_[static_cast<std::size_t>(p)].ids.push_back(ps.frontier);
  ps.last_node = ps.frontier;
  ps.frontier = -1;
  ps.interval_sends.clear();
  ps.open_retained = 0;
  ++clock_row(p)[static_cast<std::size_t>(p)];

  bump(retained_total_, 1);
  bump(recovery_epoch_, std::uint64_t{1});
  bump(events_consumed_, 1LL);
  bump(checkpoints_observed_, 1LL);
}

void OnlineEngine::do_event(const StreamEvent& e) {
  switch (e.kind) {
    case EventKind::kSend:
      do_send(e.msg, e.p, e.q);
      break;
    case EventKind::kDeliver:
      do_deliver(e.msg, e.p, e.q);
      break;
    case EventKind::kInternal:
      do_internal(e.p);
      break;
    case EventKind::kCheckpoint:
      do_checkpoint(e.p, e.index);
      break;
    default:
      RDT_REQUIRE(false, "unknown stream event kind");
  }
  // Marked only once the event applied: its preconditions have validated
  // the ids. A delivery changes the receiver's rows and, when the send
  // interval is still open, the sender's open_retained.
  state_[static_cast<std::size_t>(e.p)].dirty = true;
  if (e.kind == EventKind::kDeliver)
    state_[static_cast<std::size_t>(e.q)].dirty = true;
  // The keep-all shadow twin replays the event only after this engine
  // accepted it, so a precondition failure leaves the twins in lockstep.
  if (shadow_) shadow_->feed(std::span<const StreamEvent>(&e, 1));
  ++events_since_compact_;
  ++events_since_mem_probe_;
}

// ---------------------------------------------------------------------------
// Intake entry points.

void OnlineEngine::on_send(MsgId m, ProcessId sender, ProcessId receiver) {
  const StreamEvent e = StreamEvent::send(m, sender, receiver);
  feed({&e, 1});
}

void OnlineEngine::on_deliver(MsgId m, ProcessId sender, ProcessId receiver) {
  const StreamEvent e = StreamEvent::deliver(m, sender, receiver);
  feed({&e, 1});
}

void OnlineEngine::on_internal(ProcessId p) {
  const StreamEvent e = StreamEvent::internal(p);
  feed({&e, 1});
}

void OnlineEngine::on_checkpoint(ProcessId p, CkptIndex index) {
  const StreamEvent e = StreamEvent::checkpoint(p, index);
  feed({&e, 1});
}

void OnlineEngine::feed(std::span<const StreamEvent> events) {
  const MutexLock lock(feed_mu_);
  if (events.empty()) return;
  // Amortize the message-table growth across the batch — but keep the
  // geometric growth policy: a bare reserve(size + sends) would reallocate
  // to the exact request on every batch and make long streams quadratic.
  std::size_t sends = 0;
  for (const StreamEvent& e : events)
    if (e.kind == EventKind::kSend) ++sends;
  if (msgs_.size() + sends > msgs_.capacity())
    msgs_.reserve(std::max(msgs_.size() + sends, msgs_.capacity() * 2));
  std::exception_ptr failure;
  {
    const WriteTicket ticket(seq_);
    // No reader can observe the mirrors while the ticket holds seq_ odd, so
    // the events only mark the processes they change and the marked mirrors
    // are published once, before the ticket closes. A precondition failure
    // takes the same path: event k failing leaves exactly events [0, k)
    // applied AND visible.
    try {
      for (const StreamEvent& e : events) do_event(e);
    } catch (...) {
      failure = std::current_exception();
    }
    publish_dirty();
    audit_published_state();
  }
  if (failure) std::rethrow_exception(failure);
  after_commit();
}

void OnlineEngine::after_commit() {
  if (retention_.enabled && retention_.compact_every_events > 0 &&
      events_since_compact_ >= retention_.compact_every_events) {
    // Reset the cadence counter whether or not the pass evicts: a stream
    // whose line is stuck must not degrade to a sweep per event.
    events_since_compact_ = 0;
    compact_locked(retention_.min_evictable_checkpoints);
  }
  if (events_since_mem_probe_ >= kMemProbeEvents) {
    events_since_mem_probe_ = 0;
    refresh_resident_bytes();
  }
}

// ---------------------------------------------------------------------------
// Retention: prefix compaction.

bool OnlineEngine::compact() {
  const MutexLock lock(feed_mu_);
  if (!retention_.enabled) return false;
  events_since_compact_ = 0;
  // Manual compaction evicts whatever the line allows, however little.
  return compact_locked(1);
}

bool OnlineEngine::compact_locked(long long min_evictable) {
  const auto n = static_cast<std::size_t>(num_processes());

  // Phase 1: the current recovery line, swept on the published logs — with
  // every batch committed they are the feeder's own state — and memoized.
  // Readers may interleave before phase 2; they see the pre-compact graph,
  // whose answers are identical.
  const RecoveryOutcome outcome = recovery_line().value;

  long long evictable = 0;
  for (std::size_t p = 0; p < n; ++p)
    evictable +=
        outcome.line.indices[p] + 1 - node_ids_[p].base;  // line is monotone
  RDT_ASSERT(evictable >= 0);
  if (evictable < min_evictable) return false;

  long long released_saved = 0;
  std::size_t dropped_msgs = 0;
  long long dropped_edges = 0;
  {
    // Phase 2: the rebuild. rc_.mu comes BEFORE the write ticket: a reader
    // that entered its seqlock retry loop while holding rc_.mu would
    // otherwise spin forever against a ticket blocked on that same mutex.
    const MutexLock reader_lock(rc_.mu);
    const WriteTicket ticket(seq_);

    // (1) Saved-TDV prefix: rows at or behind the line can never be read
    // again (evaluate_mm's window containment proof), drop them.
    for (std::size_t p = 0; p < n; ++p)
      released_saved += static_cast<long long>(
          state_[p].saved.release_through(outcome.line.indices[p]));

    // (2) The message window's front, up to the first row whose send
    // interval is still open. Junction discovery only reads open-interval
    // sends, so past that point a row is read only by its own delivery: a
    // delivered row is dead (a redelivery is ruled out by the id lookup)
    // and is dropped, an undelivered one is parked in stragglers_.
    std::size_t front = 0;
    for (; front < msgs_.size(); ++front) {
      MessageState& ms = msgs_[front];
      if (ms.send_interval >
          state_[static_cast<std::size_t>(ms.sender)].durable)
        break;
      if (ms.delivered)
        ++dropped_msgs;
      else
        stragglers_.emplace_back(msgs_base_ + static_cast<MsgId>(front),
                                 std::move(ms));
    }
    if (front > 0) {
      msgs_.erase(msgs_.begin(),
                  msgs_.begin() + static_cast<std::ptrdiff_t>(front));
      msgs_base_ += static_cast<MsgId>(front);
    }

    // (3) R-graph rebuild. Retained nodes keep their checkpoint identity
    // and their relative log order; everything at or behind the line (and
    // every previous summary) folds onto a fresh per-process summary node,
    // node p for process p. A summary node has no in-edges, so it never
    // affects a retained answer, but it gives late edges (a delivery whose
    // send interval was evicted) and collapsed in-edges a well-formed tail.
    // An edge survives iff its head is retained — the evicted region is
    // closed (no retained tail can point into it), so a dropped edge's tail
    // is always evicted too, and a kept edge's tail is either retained or
    // collapses onto a summary. push_edge relinks every out-edge chain.
    //
    // Only the logs' suffix is read back. u0, the oldest retained node, is
    // C_{p,line+1} (or p's open frontier) minimized over p: a process's
    // nodes enter the log in index order, so every node before u0 is
    // evicted. An edge's head already exists when the edge is logged, so
    // every edge logged before node_marks_[u0] has an evicted head. A node
    // re-pushed here gets mark 0, so a later pass whose u0 predates this
    // rebuild reads the whole log, as a full rebuild would.
    const std::size_t old_nodes = node_log_.size();
    const std::size_t old_edges = edge_log_.size();
    std::size_t u0 = old_nodes;
    for (std::size_t p = 0; p < n; ++p) {
      const auto& ps = state_[p];
      const NodeIdTable& t = node_ids_[p];
      const CkptIndex first = outcome.line.indices[p] + 1;
      const int u = first <= ps.durable
                        ? t.ids[static_cast<std::size_t>(first - t.base)]
                        : ps.frontier;
      if (u != -1) u0 = std::min(u0, static_cast<std::size_t>(u));
    }
    // C_{p,0} and the summaries (nodes 0..n-1) are always at or behind it.
    RDT_ASSERT(u0 >= n);
    const std::size_t first_edge =
        u0 < old_nodes ? node_marks_[u0] : old_edges;

    std::vector<CkptId> kept_nodes(old_nodes - u0);
    for (std::size_t u = u0; u < old_nodes; ++u)
      kept_nodes[u - u0] = node_log_[u];
    // Edges with a head at or past u0, a tail below u0 already folded onto
    // its process's summary id (p < n <= u0, so it cannot be mistaken for a
    // suffix node).
    std::vector<EdgeRec> kept_edges;
    kept_edges.reserve(old_edges - first_edge);
    for (std::size_t i = first_edge; i < old_edges; ++i) {
      EdgeRec e = edge_log_[i];
      if ((e.enc >> 1) < u0) continue;
      if (e.from < u0)
        e.from = static_cast<std::uint32_t>(node_log_[e.from].process);
      kept_edges.push_back(e);
    }

    node_log_.reset();
    edge_log_.reset();
    heads_.reset();
    node_marks_.clear();
    for (ProcessId p = 0; p < num_processes(); ++p) push_node(CkptId{p, -1});
    // remap[u - u0]: the new id of suffix node u.
    std::vector<int> remap(kept_nodes.size());
    for (std::size_t i = 0; i < kept_nodes.size(); ++i) {
      const CkptId c = kept_nodes[i];
      if (c.index >= 0 &&
          c.index > outcome.line.indices[static_cast<std::size_t>(c.process)])
        remap[i] = push_node(c);
      else
        remap[i] = c.process;  // fold onto the process's summary node
    }
    node_log_.release_unused_chunks();
    heads_.release_unused_chunks();

    for (const EdgeRec& e : kept_edges) {
      const int head = remap[(e.enc >> 1) - u0];
      if (head < num_processes()) continue;  // head evicted: edge dropped
      const int tail =
          e.from < u0 ? static_cast<int>(e.from) : remap[e.from - u0];
      push_edge(tail, head, (e.enc & 1u) != 0);
    }
    edge_log_.release_unused_chunks();
    dropped_edges = static_cast<long long>(old_edges - edge_log_.size());

    // (4) Feeder id tables, per-process node handles, horizon mirrors.
    for (std::size_t p = 0; p < n; ++p) {
      const CkptIndex new_base = outcome.line.indices[p] + 1;
      NodeIdTable& t = node_ids_[p];
      const auto drop = static_cast<std::size_t>(new_base - t.base);
      t.ids.erase(t.ids.begin(),
                  t.ids.begin() + static_cast<std::ptrdiff_t>(drop));
      t.base = new_base;
      for (int& id : t.ids) id = remap[static_cast<std::size_t>(id) - u0];
      auto& ps = state_[p];
      ps.last_node = static_cast<std::size_t>(ps.last_node) < u0
                         ? static_cast<int>(p)
                         : remap[static_cast<std::size_t>(ps.last_node) - u0];
      if (ps.frontier != -1)
        ps.frontier = remap[static_cast<std::size_t>(ps.frontier) - u0];
      proc_pub_[p].horizon.store(new_base, std::memory_order_relaxed);
      proc_pub_[p].frontier.store(ps.frontier, std::memory_order_relaxed);
    }

    // (5) Empty zreach's id table at the new horizon; its next query
    // rereads the new node log. The recovery memo stays valid — eviction
    // changes no sweep (the epoch was not bumped).
    for (std::size_t p = 0; p < n; ++p) {
      rc_.node_ids[p].ids.clear();
      rc_.node_ids[p].base = outcome.line.indices[p] + 1;
    }
    rc_.nodes_consumed = 0;

    bump(compactions_, 1LL);
    bump(evicted_ckpts_, evictable);
    bump(evicted_edges_, dropped_edges);
    bump(evicted_saved_, released_saved);
    bump(evicted_msgs_, static_cast<long long>(dropped_msgs));
    parked_sends_.store(static_cast<long long>(stragglers_.size()),
                        std::memory_order_relaxed);
  }

  events_since_mem_probe_ = 0;
  refresh_resident_bytes();
  audit_compact_equivalence();
  return true;
}

void OnlineEngine::audit_compact_equivalence() {
  if constexpr (!kAuditsEnabled) return;
  if (!shadow_) return;
  MsgId prev = -1;
  for (const auto& [id, ms] : stragglers_) {
    RDT_AUDIT(id > prev && id < msgs_base_ && !ms.delivered,
              "parked sends must be undelivered, sorted and below the window");
    prev = id;
  }
  RDT_AUDIT(stats().value == shadow_->stats().value,
            "compacted engine's stats diverged from the keep-all shadow");
  RDT_AUDIT(is_rdt_so_far() == shadow_->is_rdt_so_far(),
            "compacted engine's RDT verdict diverged from the shadow");
  const RecoveryOutcome mine = recovery_line().value;
  const RecoveryOutcome oracle = shadow_->recovery_line().value;
  RDT_AUDIT(mine.line == oracle.line &&
                mine.rollback_intervals == oracle.rollback_intervals &&
                mine.total_rollback == oracle.total_rollback,
            "compacted engine's recovery line diverged from the shadow");
  // Z-path spot checks over the corners of every process's retained window
  // (horizon, durable, open frontier): full status+value equality, so an
  // answer the shadow still gives must be bit-identical, never "evicted".
  std::vector<CkptId> sample;
  for (ProcessId p = 0; p < num_processes(); ++p) {
    const auto& ps = state_[static_cast<std::size_t>(p)];
    const CkptIndex lo = node_ids_[static_cast<std::size_t>(p)].base;
    sample.push_back({p, lo});
    if (ps.durable > lo) sample.push_back({p, ps.durable});
    if (ps.frontier != -1) sample.push_back({p, ps.durable + 1});
  }
  for (const CkptId& a : sample)
    for (const CkptId& b : sample)
      RDT_AUDIT(zreach(a, b) == shadow_->zreach(a, b),
                "compacted engine's zreach diverged from the shadow");
}

std::size_t OnlineEngine::feeder_resident_bytes() const {
  // Capacity accounting of every feeder-owned buffer: the logs, the message
  // window and parked rows with their deferred-junction lists, the snapshot
  // slab, the flat live rows and the published mirrors, the per-process
  // state with its saved-TDV window, and the node tables.
  const auto n = static_cast<std::size_t>(num_processes());
  std::size_t bytes = node_log_.resident_bytes() + edge_log_.resident_bytes() +
                      heads_.resident_bytes() + mem::vec_bytes(node_marks_);
  bytes += mem::vec_bytes(msgs_) + mem::vec_bytes(stragglers_);
  for (const MessageState& ms : msgs_) bytes += mem::vec_bytes(ms.deferred);
  for (const auto& parked : stragglers_)
    bytes += mem::vec_bytes(parked.second.deferred);
  bytes += mem::vec_bytes(slab_.tdv) + mem::vec_bytes(slab_.clock) +
           mem::vec_bytes(slab_.free);
  bytes += machine_.resident_bytes() + mem::vec_bytes(clocks_);
  bytes += n * n * (sizeof(tdv_pub_[0]) + sizeof(clock_pub_[0])) +
           n * sizeof(PubProc);
  bytes += mem::vec_bytes(state_);
  for (const auto& ps : state_)
    bytes += ps.saved.resident_bytes() + mem::vec_bytes(ps.interval_sends) +
             mem::vec_bytes(ps.pending);
  bytes += mem::vec_bytes(node_ids_);
  for (const auto& t : node_ids_) bytes += mem::vec_bytes(t.ids);
  return bytes;
}

void OnlineEngine::refresh_resident_bytes() {
  std::size_t reader = 0;
  {
    const MutexLock reader_lock(rc_.mu);
    reader = mem::vec_bytes(rc_.scratch.stamp) +
             mem::vec_bytes(rc_.scratch.stack) +
             mem::vec_bytes(rc_.node_ids);
    for (const auto& t : rc_.node_ids) reader += mem::vec_bytes(t.ids);
  }
  resident_bytes_.store(feeder_resident_bytes() + reader,
                        std::memory_order_relaxed);
}

CkptIndex OnlineEngine::first_retained(ProcessId p) const {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  return proc_pub_[static_cast<std::size_t>(p)].horizon.load(
      std::memory_order_relaxed);
}

RetentionStats OnlineEngine::retention_stats() const {
  RetentionStats s;
  s.enabled = retention_.enabled;
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.evicted_checkpoints = evicted_ckpts_.load(std::memory_order_relaxed);
  s.evicted_edges = evicted_edges_.load(std::memory_order_relaxed);
  s.evicted_saved_tdvs = evicted_saved_.load(std::memory_order_relaxed);
  s.evicted_messages = evicted_msgs_.load(std::memory_order_relaxed);
  s.late_edges_collapsed = late_edges_.load(std::memory_order_relaxed);
  s.parked_sends = parked_sends_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Wait-free-ish queries: seqlock snapshots of the mirrors.

long long OnlineEngine::events_consumed() const {
  return events_consumed_.load(std::memory_order_relaxed);
}

CkptIndex OnlineEngine::current_interval(ProcessId p) const {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  return proc_pub_[static_cast<std::size_t>(p)].durable.load(
             std::memory_order_relaxed) +
         1;
}

Tdv OnlineEngine::live_tdv(ProcessId p) const {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  const auto n = static_cast<std::size_t>(num_processes());
  const std::atomic<CkptIndex>* row =
      tdv_pub_.get() + static_cast<std::size_t>(p) * n;
  return read_stable([&] {
    Tdv t(n);
    for (std::size_t i = 0; i < n; ++i)
      t[i] = row[i].load(std::memory_order_relaxed);
    return t;
  });
}

VectorClock OnlineEngine::live_clock(ProcessId p) const {
  RDT_REQUIRE(p >= 0 && p < num_processes(), "process id out of range");
  const auto n = static_cast<std::size_t>(num_processes());
  const std::atomic<std::int64_t>* row =
      clock_pub_.get() + static_cast<std::size_t>(p) * n;
  return read_stable([&] {
    VectorClock c(num_processes());
    for (ProcessId i = 0; i < num_processes(); ++i)
      c.set(i, row[static_cast<std::size_t>(i)].load(std::memory_order_relaxed));
    return c;
  });
}

bool OnlineEngine::is_rdt_so_far() const {
  // Both counters must come from one quiescent window: a checkpoint settles
  // pending violations by moving them between the two.
  return read_stable([&] {
    return permanent_.load(std::memory_order_relaxed) == 0 &&
           live_vio_.load(std::memory_order_relaxed) == 0;
  });
}

StatsResult OnlineEngine::stats() const {
  const auto n = static_cast<std::size_t>(num_processes());
  OnlineStats s = read_stable([&] {
    OnlineStats out;
    out.processes = num_processes();
    out.messages = delivered_.load(std::memory_order_relaxed);
    out.causal_junctions = causal_junctions_.load(std::memory_order_relaxed);
    out.noncausal_junctions =
        noncausal_junctions_.load(std::memory_order_relaxed);
    int virtuals = 0;
    int durable_ckpts = 0;
    for (std::size_t p = 0; p < n; ++p) {
      if (proc_pub_[p].open_retained.load(std::memory_order_relaxed) > 0)
        ++virtuals;  // build() would close this interval
      durable_ckpts +=
          proc_pub_[p].durable.load(std::memory_order_relaxed) + 1;
    }
    out.virtual_finals = virtuals;
    out.events = retained_total_.load(std::memory_order_relaxed) + virtuals;
    out.checkpoints = durable_ckpts + virtuals;
    return out;
  });
  // The prefix counters aggregate over evicted history too — never evicted.
  return StatsResult::make(s);
}

// ---------------------------------------------------------------------------
// Heavy queries: reader-side state under rc_.mu.

void OnlineEngine::catch_up_reader(std::size_t nodes) const {
  for (; rc_.nodes_consumed < nodes; ++rc_.nodes_consumed) {
    const CkptId c = node_log_[rc_.nodes_consumed];
    if (c.index < 0) continue;  // summary nodes have no table entry
    auto& t = rc_.node_ids[static_cast<std::size_t>(c.process)];
    // Per-process node indexes appear consecutively in the log (C_{p,0} or
    // the first retained one, then each successive frontier), so the id
    // table needs no gaps.
    RDT_ASSERT(c.index == t.base + static_cast<CkptIndex>(t.ids.size()));
    t.ids.push_back(static_cast<int>(rc_.nodes_consumed));
  }
}

OnlineEngine::NodeLookup OnlineEngine::reader_lookup(const CkptId& c) const {
  if (c.process < 0 || c.process >= num_processes())
    return {QueryStatus::kInvalid, -1};
  const NodeIdTable& t = rc_.node_ids[static_cast<std::size_t>(c.process)];
  if (c.index < 0 ||
      c.index >= t.base + static_cast<CkptIndex>(t.ids.size()))
    return {QueryStatus::kInvalid, -1};
  if (c.index < t.base) return {QueryStatus::kEvicted, -1};
  return {QueryStatus::kOk,
          t.ids[static_cast<std::size_t>(c.index - t.base)]};
}

ZreachResult OnlineEngine::zreach(const CkptId& from, const CkptId& to) const {
  const MutexLock lock(rc_.mu);
  struct Counts {
    std::size_t nodes, edges;
  };
  // Only the log counts need the seqlock; the entries below them are
  // immutable and already published by the logs' own release stores.
  const Counts c = read_stable([&] {
    return Counts{node_log_.size_published(), edge_log_.size_published()};
  });
  catch_up_reader(c.nodes);
  const NodeLookup a = reader_lookup(from);
  const NodeLookup b = reader_lookup(to);
  // Invalid outranks evicted: naming a checkpoint the stream never produced
  // is a caller mistake however much history remains.
  if (a.status == QueryStatus::kInvalid || b.status == QueryStatus::kInvalid)
    return ZreachResult::invalid_result();
  if (a.status == QueryStatus::kEvicted || b.status == QueryStatus::kEvicted)
    return ZreachResult::evicted_result();
  return ZreachResult::make(msg_reach_locked(c.nodes, c.edges, a.node, to));
}

bool OnlineEngine::msg_reach_locked(std::size_t nodes, std::size_t edges,
                                    int from, const CkptId& to) const {
  // BFS over states (node << 1) | layer, layer 1 once a message edge has
  // been taken; an EdgeRec's enc is (head << 1) | message, so the state an
  // edge leads to is enc | layer. Out-edges come off the heads_ chains as
  // in recovery_sweep_locked, skipping those linked in after the snapshot.
  RollbackScratch& s = rc_.scratch;
  s.begin(2 * nodes);
  std::vector<int>& queue = s.stack;
  const auto visit = [&](std::uint32_t state) {
    if (s.mark(state)) queue.push_back(static_cast<int>(state));
  };
  visit(static_cast<std::uint32_t>(from) << 1);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto state = static_cast<std::uint32_t>(queue[head]);
    const std::uint32_t u = state >> 1;
    const std::uint32_t layer = state & 1u;
    if (layer != 0) {
      // A layer-1 node C_{q,z} with z <= to.index reaches `to` along q's
      // process edges, all of them logged (ensure_frontier). Summary nodes
      // (index -1) have no in-edges, so they never get here.
      const CkptId c = node_log_[u];
      if (c.process == to.process && c.index <= to.index) return true;
    }
    for (std::uint32_t e = heads_.load(u); e != 0;) {
      const EdgeRec& r = edge_log_[e - 1];
      if (e <= edges) visit(r.enc | layer);
      e = r.prev;
    }
  }
  return false;
}

RecoveryOutcome OnlineEngine::recovery_sweep_locked(
    std::size_t nodes, std::size_t edges, std::span<const int> seeds) const {
  RDT_TRACE_SPAN("online", "recovery_sweep");
  const auto n = static_cast<std::size_t>(num_processes());

  // Wang's rollback propagation from the frontier seeds: restarting P_i at
  // its last durable checkpoint invalidates everything R-reachable from
  // C_{i,durable+1} (when that interval has opened). A node's out-edges are
  // its chain down from heads_; edges the feeder linked in front since the
  // snapshot (index >= edges) are skipped, so the walk stays inside it.
  std::vector<CkptIndex> min_invalid(n, std::numeric_limits<CkptIndex>::max());
  propagate_rollback(
      rc_.scratch, static_cast<int>(nodes), seeds,
      [&](int u, auto&& emit) {
        for (std::uint32_t e = heads_.load(static_cast<std::size_t>(u));
             e != 0;) {
          const EdgeRec& r = edge_log_[e - 1];
          if (e <= edges) emit(static_cast<int>(r.enc >> 1));
          e = r.prev;
        }
      },
      [&](int u) {
        const CkptId c = node_log_[static_cast<std::size_t>(u)];
        if (c.index < 0) return;  // summary nodes have no in-edges; unreachable
        CkptIndex& m = min_invalid[static_cast<std::size_t>(c.process)];
        m = std::min(m, c.index);
      });

  RecoveryOutcome out;
  out.line.indices.resize(n);
  out.rollback_intervals.resize(n);
  for (ProcessId i = 0; i < num_processes(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const CkptIndex upper = rc_.durable_snap[idx];
    const CkptIndex line =
        min_invalid[idx] <= upper ? min_invalid[idx] - 1 : upper;
    RDT_ASSERT(line >= 0);  // C_{i,0} can never be invalidated
    out.line.indices[idx] = line;
    const CkptIndex lost = upper - line;
    out.rollback_intervals[idx] = lost;
    out.total_rollback += lost;
    if (upper > 0)
      out.worst_fraction =
          std::max(out.worst_fraction,
                   static_cast<double>(lost) / static_cast<double>(upper));
  }
  ++rc_.recovery_sweeps;
  return out;
}

RecoveryResult OnlineEngine::recovery_line() const {
  const MutexLock lock(rc_.mu);
  const auto n = static_cast<std::size_t>(num_processes());
  struct Snap {
    std::uint64_t epoch = 0;
    std::size_t nodes = 0, edges = 0;
  };
  // TSA analyzes the lambda as a separate function that does not hold
  // rc_.mu; bind the scratch vectors under the lock and capture the aliases
  // (the house idiom from util/thread_annotations.hpp).
  std::vector<CkptIndex>& durable_snap = rc_.durable_snap;
  std::vector<int>& seeds = rc_.seeds;
  const Snap snap = read_stable([&] {
    Snap s;
    s.epoch = recovery_epoch_.load(std::memory_order_relaxed);
    s.nodes = node_log_.size_published();
    s.edges = edge_log_.size_published();
    seeds.clear();
    for (std::size_t p = 0; p < n; ++p) {
      durable_snap[p] = proc_pub_[p].durable.load(std::memory_order_relaxed);
      const int f = proc_pub_[p].frontier.load(std::memory_order_relaxed);
      if (f != -1) seeds.push_back(f);
    }
    return s;
  });
  if (rc_.recovery_memo_valid && rc_.recovery_memo_epoch == snap.epoch)
    return RecoveryResult::make(rc_.recovery_memo);
  const RecoveryOutcome out =
      recovery_sweep_locked(snap.nodes, snap.edges, seeds);
  rc_.recovery_memo = out;
  rc_.recovery_memo_epoch = snap.epoch;
  rc_.recovery_memo_valid = true;
  // The sweep runs entirely at or above the horizon, so eviction can never
  // make the answer unavailable.
  return RecoveryResult::make(out);
}

void OnlineEngine::flush_metrics() const {
  if constexpr (!obs::kObsEnabled) return;
  obs::ObsSession* session = obs::ObsSession::current();
  if (session == nullptr) return;
  auto& m = session->metrics();
  m.add(m.counter("online.events"),
        events_consumed_.load(std::memory_order_relaxed));
  m.add(m.counter("online.events.send"),
        sends_observed_.load(std::memory_order_relaxed));
  m.add(m.counter("online.events.deliver"),
        delivered_.load(std::memory_order_relaxed));
  m.add(m.counter("online.events.internal"),
        internals_observed_.load(std::memory_order_relaxed));
  m.add(m.counter("online.events.checkpoint"),
        checkpoints_observed_.load(std::memory_order_relaxed));
  m.add(m.counter("online.junctions.causal"),
        causal_junctions_.load(std::memory_order_relaxed));
  m.add(m.counter("online.junctions.noncausal"),
        noncausal_junctions_.load(std::memory_order_relaxed));
  m.add(m.counter("online.retention.compactions"),
        compactions_.load(std::memory_order_relaxed));
  m.add(m.counter("online.retention.evicted_checkpoints"),
        evicted_ckpts_.load(std::memory_order_relaxed));
  m.add(m.counter("online.retention.evicted_messages"),
        evicted_msgs_.load(std::memory_order_relaxed));
  // A current count, not a lifetime total: the session sums the parked
  // rows live at each flush.
  m.add(m.counter("online.retention.parked_sends"),
        parked_sends_.load(std::memory_order_relaxed));
  long long sweeps = 0;
  {
    const MutexLock lock(rc_.mu);
    sweeps = rc_.recovery_sweeps;
  }
  m.add(m.counter("online.recovery.sweeps"), sweeps);
}

}  // namespace rdt
