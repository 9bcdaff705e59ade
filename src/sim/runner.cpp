#include "sim/runner.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>

#include "obs/hooks.hpp"
#include "protocols/registry.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace rdt {

namespace {

struct SeedMetrics {
  double r = 0.0;
  double fpm = 0.0;
  double wire_bits = 0.0;
  double flat_bits = 0.0;
  long long messages = 0;
  long long basic = 0;
  long long forced = 0;
  int num_processes = 0;
};

// Sweeps only need the overhead counters, so they take the counters-only
// replay path (no PatternBuilder, no saved-TDV extraction) through a
// reusable arena: zero steady-state heap traffic per message. Replay's
// default codec is the protocol's declared one, so wire_bits is measured,
// not asserted; codecs never change the forced-checkpoint counters.
SeedMetrics measure(const Trace& trace, ProtocolKind kind,
                    PayloadArena& arena) {
  const ReplayResult res = replay_metrics(trace, kind, &arena);
  return {res.forced_per_basic(), res.forced_per_message(),
          res.wire_bits_per_message(), res.flat_bits_per_message(),
          res.messages, res.basic, res.forced, trace.num_processes};
}

// Folds the per-seed metric matrix (seed-major) into aggregate statistics;
// folding in seed order makes the result independent of the thread count.
std::vector<ProtocolStats> fold(std::span<const ProtocolKind> kinds,
                                const std::vector<std::vector<SeedMetrics>>& m) {
  std::vector<RunningStats> r(kinds.size());
  std::vector<RunningStats> fpm(kinds.size());
  std::vector<RunningStats> wire(kinds.size());
  std::vector<RunningStats> flat(kinds.size());
  std::vector<ProtocolStats> out(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) out[i].kind = kinds[i];
  for (const auto& row : m) {
    RDT_ASSERT(row.size() == kinds.size());
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      RDT_REQUIRE(row[i].num_processes == m.front()[i].num_processes,
                  "a sweep's traces must share one process count");
      r[i].add(row[i].r);
      fpm[i].add(row[i].fpm);
      wire[i].add(row[i].wire_bits);
      flat[i].add(row[i].flat_bits);
      out[i].total_messages += row[i].messages;
      out[i].total_basic += row[i].basic;
      out[i].total_forced += row[i].forced;
    }
  }
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    out[i].r_forced_per_basic = r[i].summary();
    out[i].forced_per_message = fpm[i].summary();
    out[i].wire_bits = wire[i].summary();
    out[i].flat_bits = flat[i].summary();
    out[i].codec = ProtocolRegistry::instance().info(kinds[i]).codec_for(
        m.front()[i].num_processes);
  }
  return out;
}

// One generated trace shared (read-only) by every protocol replay of its
// seed. The first worker to reach the seed generates the trace under the
// slot mutex; later workers acquire the same mutex (the happens-before
// edge) and then replay through a plain pointer, since nothing mutates the
// trace until the last replay. `remaining` counts outstanding protocol work
// items; the worker that finishes the last one releases the trace so memory
// stays bounded by the number of in-flight seeds, not the sweep size.
struct SeedSlot {
  AnnotatedMutex mu;
  bool generated RDT_GUARDED_BY(mu) = false;
  std::optional<Trace> trace RDT_GUARDED_BY(mu);
  std::atomic<int> remaining{0};
};

}  // namespace

std::vector<ProtocolStats> sweep(
    const std::function<Trace(std::uint64_t seed)>& generate,
    std::span<const ProtocolKind> kinds, int num_seeds, int threads,
    std::uint64_t seed0) {
  RDT_REQUIRE(num_seeds >= 1, "need at least one seed");
  RDT_REQUIRE(threads >= 1, "need at least one thread");
  RDT_REQUIRE(!kinds.empty(), "need at least one protocol");
  RDT_TRACE_SPAN("sweep", "sweep");

  const auto num_kinds = static_cast<int>(kinds.size());
  const long long num_items =
      static_cast<long long>(num_seeds) * static_cast<long long>(num_kinds);
  std::vector<std::vector<SeedMetrics>> matrix(
      static_cast<std::size_t>(num_seeds));
  for (auto& row : matrix)
    row.resize(kinds.size());

  // Fused (seed x protocol) work queue: finer-grained than per-seed tasks,
  // so a slow protocol on the last seed no longer serializes the tail of
  // the sweep. Work items are handed out seed-major, which keeps the
  // replays of one seed temporally clustered and lets the trace be freed
  // as soon as its last protocol finishes.
  std::vector<SeedSlot> slots(static_cast<std::size_t>(num_seeds));
  for (auto& slot : slots) slot.remaining.store(num_kinds);

  std::atomic<long long> next{0};
  auto worker = [&] {
    RDT_TRACE_SPAN("sweep", "sweep.worker");
    // Observability (compiled out by default): the per-item latency and the
    // queue-wait — time this worker spends blocked on another worker's
    // trace generation inside the slot's critical section — as histograms.
    obs::ObsSession* session = nullptr;
    obs::HistogramId h_item = 0;
    obs::HistogramId h_wait = 0;
    if constexpr (obs::kObsEnabled) {
      session = obs::ObsSession::current();
      if (session != nullptr) {
        static const std::vector<long long> bounds =
            obs::exponential_bounds(24);
        h_item = session->metrics().histogram("sweep.item_us", bounds);
        h_wait = session->metrics().histogram("sweep.queue_wait_us", bounds);
      }
    }
    PayloadArena arena;  // per-worker; replays never share one concurrently
    for (long long w = next.fetch_add(1); w < num_items;
         w = next.fetch_add(1)) {
      const auto s = static_cast<std::size_t>(w / num_kinds);
      const auto k = static_cast<std::size_t>(w % num_kinds);
      SeedSlot& slot = slots[s];
      const std::int64_t t0 = session != nullptr ? session->now_us() : 0;
      const Trace* trace = nullptr;
      {
        const MutexLock lock(slot.mu);
        if (!slot.generated) {
          slot.trace.emplace(generate(seed0 + static_cast<std::uint64_t>(s)));
          slot.generated = true;
        }
        // Read-only until this seed's last replay drops it, and this worker
        // still holds one `remaining` count — the pointer cannot dangle.
        trace = &*slot.trace;
      }
      if (session != nullptr)
        session->metrics().record(h_wait, session->now_us() - t0);
      matrix[s][k] = measure(*trace, kinds[k], arena);
      if (session != nullptr)
        session->metrics().record(h_item, session->now_us() - t0);
      if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last replay of this seed: drop the trace. The acq_rel RMW orders
        // every replay's reads before this release.
        const MutexLock lock(slot.mu);
        slot.trace.reset();
      }
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::jthread> pool;
    const int spawn = static_cast<int>(
        std::min(static_cast<long long>(threads), num_items));
    pool.reserve(static_cast<std::size_t>(spawn));
    for (int t = 0; t < spawn; ++t) pool.emplace_back(worker);
  }  // jthreads join here
  return fold(kinds, matrix);
}

std::optional<double> forced_reduction_percent(
    std::span<const ProtocolStats> stats, ProtocolKind kind,
    ProtocolKind baseline) {
  const ProtocolStats* a = nullptr;
  const ProtocolStats* b = nullptr;
  for (const ProtocolStats& s : stats) {
    if (s.kind == kind) a = &s;
    if (s.kind == baseline) b = &s;
  }
  RDT_REQUIRE(a != nullptr && b != nullptr, "protocol not present in sweep");
  if (b->total_forced == 0) {
    if (a->total_forced == 0) return 0.0;  // neither forced anything
    return std::nullopt;  // kind forced checkpoints the baseline avoided
  }
  return 100.0 * (1.0 - static_cast<double>(a->total_forced) /
                            static_cast<double>(b->total_forced));
}

}  // namespace rdt
