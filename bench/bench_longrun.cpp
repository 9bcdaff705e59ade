// Bounded-memory soak — the verification workload for PR 9's retention
// redesign (online/options.hpp): feed a retention-enabled OnlineEngine a
// very long synthetic stream whose recovery line advances steadily, and
// check that resident memory stays FLAT while a keep-all engine on the same
// stream grows without bound. The stream is generated incrementally (a
// bounded in-flight window, never materialized), so the process RSS the
// deciles sample is the engine's footprint, not the harness's.
//
// Reported sections (--json, schema rdt-bench-v2):
//   retention_on   the soak proper: per-decile event rate, VmRSS and the
//                  engine's own resident-bytes accounting, plus
//                  rss_flatness_last_over_warm — last-decile RSS over
//                  decile-3 RSS (post-warm-up). The perf-smoke CI gate
//                  wants <= 1.1 (flat RSS under retention).
//   retention_lossy  the same soak over a fifth of --events events of the
//                  same generator, except that a seeded 0.1% of the sends
//                  leave the in-flight window without being delivered (a
//                  lost message or a crashed peer), in an engine of its
//                  own (the first soak's is destroyed and its free heap
//                  trimmed first). Compaction parks each lost send in one
//                  row and evicts past it; parked_sends reports how many
//                  there are. Those rows grow with the lost sends by
//                  design, so the flatness ratios are reported but not
//                  gated. rss_bytes_per_lost_send and
//                  resident_bytes_per_lost_send divide the growth from
//                  decile 3 to the last decile by the sends lost in
//                  between; the perf-smoke CI gate wants both <= 512 (one
//                  row each). They need a few thousand lost sends to
//                  average out the capacity steps of the engine's other
//                  buffers (~150 KB); the CI run has ~4,600.
//   equivalence    a truncated replay of the same stream into a compacting
//                  engine and a keep-all twin: retained-state queries
//                  (is_rdt, stats, recovery line, z-reach corners) must be
//                  bit-identical, horizon/invalid statuses must classify.
//                  The CI gate wants matches == true.
//   retention_off  the keep-all twin's memory curve over that truncated
//                  stream: monotone growth, and final resident bytes at
//                  least ~2x the compacting engine's on the same events.
//
// The default --events is sized for CI minutes; the soak scales to
// ~100M-event runs unchanged (--events 100000000) because per-event cost
// and resident memory are both O(live frontier) under retention.
//
// Usage: bench_longrun [--events N] [--procs N] [--batch N]
//                      [--ckpt-every N] [--inflight N] [--compact-every N]
//                      [--eq-events N] [--seed N]
//                      [--json <path>] [--trace <path>]
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <random>
#include <span>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.hpp"
#include "online/engine.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kDeciles = 10;
// The lossy soak runs a fifth of --events, and 0.1% of its sends are never
// delivered.
constexpr long long kLossyEventsDivisor = 5;
constexpr std::uint32_t kLostPerMillion = 1000;
// The lossy soak's bound on RSS and resident-bytes growth per lost send
// (see lost_send_cost).
constexpr int kMaxBytesPerLostSend = 512;

// VmRSS of this process in KiB (0 when /proc is unavailable — the JSON
// then reports the engine's own resident-bytes accounting only).
std::size_t read_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string word;
  while (in >> word) {
    if (word == "VmRSS:") {
      std::size_t kb = 0;
      in >> kb;
      return kb;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Incremental stream generator. Deterministic (seeded minstd), bounded
// in-flight message window (oldest message is force-delivered when the
// window fills), and a round-robin checkpoint every --ckpt-every global
// events — so every process checkpoints every procs * ckpt_every events and
// the recovery line tracks the frontier, which is what lets compaction keep
// evicting. Memory: O(inflight window), independent of stream length.
// With lost_per_million > 0, that share of the sends is lost: drawn from a
// second seeded stream, so the events are otherwise the lossless stream's,
// and never entering the in-flight window, so never delivered.
// ---------------------------------------------------------------------------

class LongrunGen {
 public:
  LongrunGen(int procs, int ckpt_every, int max_inflight, std::uint32_t seed,
             std::uint32_t lost_per_million = 0)
      : procs_(procs),
        ckpt_every_(ckpt_every),
        max_inflight_(max_inflight),
        lost_per_million_(lost_per_million),
        rng_(seed),
        loss_rng_(seed ^ 0x5bd1e995u),
        next_index_(static_cast<std::size_t>(procs), 1) {}

  long long lost() const { return lost_; }

  // Overwrites `buf` with the next n events of the stream.
  void fill(std::vector<StreamEvent>& buf, std::size_t n) {
    buf.clear();
    buf.reserve(n);
    for (std::size_t i = 0; i < n; ++i) buf.push_back(next());
  }

 private:
  struct Pending {
    MsgId msg;
    ProcessId from;
    ProcessId to;
  };

  StreamEvent next() {
    ++step_;
    if (step_ % ckpt_every_ == 0) {
      const ProcessId p = rot_;
      rot_ = static_cast<ProcessId>((rot_ + 1) % procs_);
      return StreamEvent::checkpoint(
          p, next_index_[static_cast<std::size_t>(p)]++);
    }
    if (static_cast<int>(inflight_.size()) >= max_inflight_)
      return pop_deliver();
    const std::uint32_t r = rng_() % 8;
    if (r < 3) {
      const ProcessId s = static_cast<ProcessId>(rng_() % procs_);
      ProcessId d = static_cast<ProcessId>(rng_() % (procs_ - 1));
      if (d >= s) ++d;
      if (lost_per_million_ > 0 && loss_rng_() % 1000000 < lost_per_million_)
        ++lost_;
      else
        inflight_.push_back({next_msg_, s, d});
      return StreamEvent::send(next_msg_++, s, d);
    }
    if (r < 6 && !inflight_.empty()) return pop_deliver();
    return StreamEvent::internal(static_cast<ProcessId>(rng_() % procs_));
  }

  StreamEvent pop_deliver() {
    const Pending m = inflight_.front();
    inflight_.pop_front();
    return StreamEvent::deliver(m.msg, m.from, m.to);
  }

  int procs_;
  long long ckpt_every_;
  int max_inflight_;
  std::uint32_t lost_per_million_;
  std::minstd_rand rng_;
  std::minstd_rand loss_rng_;
  long long lost_ = 0;
  long long step_ = 0;
  MsgId next_msg_ = 0;
  ProcessId rot_ = 0;
  std::vector<CkptIndex> next_index_;
  std::deque<Pending> inflight_;
};

// ---------------------------------------------------------------------------
// The soak proper.
// ---------------------------------------------------------------------------

struct DecileSample {
  double wall = 0.0;  // since soak start
  std::size_t rss_kb = 0;
  RetentionStats retention;
  long long rollback = 0;  // recovery_line checksum at the boundary
  long long lost = 0;      // sends the generator has lost so far
};

struct SoakResult {
  long long events = 0;
  double wall = 0.0;
  std::array<DecileSample, kDeciles> deciles{};
  bool is_rdt = false;
  OnlineStats stats;
  RetentionStats retention;  // after the final compact()
  std::size_t final_rss_kb = 0;
};

long long decile_boundary(long long events, std::size_t d) {
  return events * static_cast<long long>(d + 1) /
         static_cast<long long>(kDeciles);
}

SoakResult run_soak(OnlineEngine& engine, LongrunGen& gen, long long events,
                    std::size_t batch) {
  SoakResult r;
  r.events = events;
  std::vector<StreamEvent> buf;
  long long fed = 0;
  std::size_t decile = 0;
  const auto start = Clock::now();
  while (fed < events) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<long long>(static_cast<long long>(batch), events - fed));
    gen.fill(buf, n);
    engine.feed(buf);
    fed += static_cast<long long>(n);
    while (decile < kDeciles && fed >= decile_boundary(events, decile)) {
      DecileSample& s = r.deciles[decile];
      s.wall = std::chrono::duration<double>(Clock::now() - start).count();
      s.rss_kb = read_rss_kb();
      s.retention = engine.retention_stats();
      s.rollback = engine.recovery_line().value.total_rollback;
      s.lost = gen.lost();
      ++decile;
    }
  }
  r.wall = std::chrono::duration<double>(Clock::now() - start).count();
  engine.compact();  // outside the timed region: freshen resident accounting
  r.is_rdt = engine.is_rdt_so_far();
  r.stats = engine.stats().value;
  r.retention = engine.retention_stats();
  r.final_rss_kb = read_rss_kb();
  engine.flush_metrics();  // no-op without --trace
  return r;
}

double decile_rate(const SoakResult& r, std::size_t d) {
  const long long lo = d == 0 ? 0 : decile_boundary(r.events, d - 1);
  const long long hi = decile_boundary(r.events, d);
  const double prev = d == 0 ? 0.0 : r.deciles[d - 1].wall;
  const double wall = r.deciles[d].wall - prev;
  return wall > 0.0 ? static_cast<double>(hi - lo) / wall : 0.0;
}

// ---------------------------------------------------------------------------
// Equivalence + keep-all contrast over a truncated replay of the stream.
// ---------------------------------------------------------------------------

struct EqResult {
  long long events = 0;
  long long checks = 0;
  long long mismatches = 0;
  long long ok_pairs = 0;  // both-retained comparisons that answered kOk
  long long compactions = 0;
  std::size_t keepall_resident = 0;
  std::size_t retention_resident = 0;
  std::array<std::size_t, kDeciles> keepall_curve{};
  bool matches() const { return mismatches == 0 && compactions > 0; }
};

EqResult run_equivalence(int procs, int ckpt_every, int inflight,
                         const RetentionPolicy& policy, long long events,
                         std::size_t batch, std::uint32_t seed) {
  EqResult r;
  r.events = events;
  OnlineEngine compacted(EngineOptions{procs, policy});
  OnlineEngine keepall(EngineOptions{procs});
  LongrunGen gen(procs, ckpt_every, inflight, seed);
  std::vector<StreamEvent> buf;
  long long fed = 0;
  std::size_t decile = 0;
  while (fed < events) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<long long>(static_cast<long long>(batch), events - fed));
    gen.fill(buf, n);
    compacted.feed(buf);
    keepall.feed(buf);
    fed += static_cast<long long>(n);
    while (decile < kDeciles && fed >= decile_boundary(events, decile)) {
      // The keep-all probe refreshes every 2^18 events, so early deciles
      // repeat the construction-time snapshot — the curve is a staircase,
      // monotone either way.
      r.keepall_curve[decile] = keepall.retention_stats().resident_bytes;
      ++decile;
    }
  }
  // Queries are compared BEFORE the final manual compact, so the retained
  // window spans everything since the last cadence pass — wide enough for
  // real value comparisons — while the horizon (nonzero once the cadence
  // has fired) still exercises the kEvicted classification.
  const auto check = [&r](bool ok, const char* what) {
    ++r.checks;
    if (!ok && ++r.mismatches <= 10)
      std::cerr << "bench_longrun: equivalence mismatch: " << what << '\n';
  };

  check(compacted.events_consumed() == keepall.events_consumed(),
        "events_consumed");
  check(compacted.is_rdt_so_far() == keepall.is_rdt_so_far(), "is_rdt");
  check(compacted.stats() == keepall.stats(), "stats");
  const RecoveryOutcome rc = compacted.recovery_line().value;
  const RecoveryOutcome rk = keepall.recovery_line().value;
  check(rc.line.indices == rk.line.indices, "recovery line");
  check(rc.total_rollback == rk.total_rollback, "total_rollback");

  // Z-reach sweep over horizon/midpoint/frontier probes of every process
  // pair, classified against the keep-all twin: an id the stream never
  // produced must stay kInvalid on both; a pair of retained ids must be
  // bit-identical; anything naming state behind the horizon must classify
  // kEvicted. (The keep-all engine never returns kEvicted, so the three
  // cases partition the sweep.)
  std::vector<CkptIndex> lo(static_cast<std::size_t>(procs));
  std::vector<std::vector<CkptIndex>> probes(static_cast<std::size_t>(procs));
  for (ProcessId p = 0; p < procs; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    lo[pi] = compacted.first_retained(p);
    const CkptIndex hi = compacted.current_interval(p) - 1;  // durable
    probes[pi] = {lo[pi] - 1, lo[pi], (lo[pi] + hi) / 2, hi, hi + 1, hi + 2};
  }
  for (ProcessId p = 0; p < procs; ++p) {
    for (ProcessId q = 0; q < procs; ++q) {
      for (const CkptIndex ai : probes[static_cast<std::size_t>(p)])
        for (const CkptIndex bi : probes[static_cast<std::size_t>(q)]) {
          const CkptId a{p, ai};
          const CkptId b{q, bi};
          const ZreachResult keep = keepall.zreach(a, b);
          const ZreachResult got = compacted.zreach(a, b);
          if (keep.status == QueryStatus::kInvalid) {
            check(got.status == QueryStatus::kInvalid,
                  "never-produced id must stay kInvalid");
          } else if (ai >= lo[static_cast<std::size_t>(p)] &&
                     bi >= lo[static_cast<std::size_t>(q)]) {
            check(got == keep, "retained zreach must be bit-identical");
            if (got.ok()) ++r.ok_pairs;
          } else {
            check(got.evicted(),
                  "behind-horizon zreach must classify kEvicted");
          }
        }
    }
  }
  check(r.ok_pairs > 0, "retained window must be non-empty");

  // The final manual compact freshens the compacting engine's resident
  // accounting for the contrast section.
  compacted.compact();
  r.compactions = compacted.retention_stats().compactions;
  r.retention_resident = compacted.retention_stats().resident_bytes;
  // The keep-all snapshot refreshes every 2^18 events, so it understates
  // the final footprint by at most one probe interval — run the contrast
  // with --eq-events comfortably above the cadence.
  r.keepall_resident = keepall.retention_stats().resident_bytes;
  return r;
}

// Flatness of a soak: last decile over decile 3 — the first two deciles
// are warm-up (pools filling, allocator arenas growing to steady state).
struct Flatness {
  double rss = 0.0;
  double resident = 0.0;
};

Flatness soak_flatness(const SoakResult& soak) {
  const auto ratio = [](double last, double warm) {
    return warm > 0.0 ? last / warm : 0.0;
  };
  const DecileSample& warm = soak.deciles[2];
  const DecileSample& last = soak.deciles[kDeciles - 1];
  return {ratio(static_cast<double>(last.rss_kb),
                static_cast<double>(warm.rss_kb)),
          ratio(static_cast<double>(last.retention.resident_bytes),
                static_cast<double>(warm.retention.resident_bytes))};
}

// What each lost send costs the lossy soak once warmed up: the growth of
// RSS and of the engine's resident bytes from decile 3 to the last decile,
// over the sends lost in between. The design promises one parked row per
// lost send: its 64-byte vector entry (id and message row) plus its
// snapshot slab slot (n TDV and n clock entries and a free-list entry),
// about 164 B at 8 processes, and up to one more entry's worth while the
// parked-row vector or the slab doubles. The perf-smoke CI gate wants both at most
// kMaxBytesPerLostSend. A lost send that pinned the rows behind it would
// cost every row sent after it instead.
struct LostSendCost {
  double rss_bytes = 0.0;
  double resident_bytes = 0.0;
};

LostSendCost lost_send_cost(const SoakResult& soak) {
  const DecileSample& warm = soak.deciles[2];
  const DecileSample& last = soak.deciles[kDeciles - 1];
  const double lost = static_cast<double>(last.lost - warm.lost);
  if (lost <= 0.0) return {};
  const double rss_kb =
      static_cast<double>(last.rss_kb) - static_cast<double>(warm.rss_kb);
  const double resident =
      static_cast<double>(last.retention.resident_bytes) -
      static_cast<double>(warm.retention.resident_bytes);
  return {rss_kb * 1024.0 / lost, resident / lost};
}

double soak_rate(const SoakResult& soak) {
  return soak.wall > 0.0 ? static_cast<double>(soak.events) / soak.wall : 0.0;
}

// The per-decile table and the summary lines of one soak; `rss_gate`
// follows the RSS flatness.
void print_soak(const SoakResult& soak, const char* rss_gate) {
  Table table({"decile", "events", "events/s", "rss MB", "resident MB",
               "compactions", "evicted ckpts", "parked sends"});
  for (std::size_t d = 0; d < kDeciles; ++d) {
    const DecileSample& s = soak.deciles[d];
    table.begin_row()
        .add(static_cast<long long>(d + 1))
        .add(decile_boundary(soak.events, d))
        .add(decile_rate(soak, d), 0)
        .add(static_cast<double>(s.rss_kb) / 1024.0, 1)
        .add(static_cast<double>(s.retention.resident_bytes) / (1024.0 * 1024.0),
             2)
        .add(s.retention.compactions)
        .add(s.retention.evicted_checkpoints)
        .add(s.retention.parked_sends);
  }
  table.print(std::cout);
  const Flatness flat = soak_flatness(soak);
  std::cout << "\nthroughput: " << static_cast<long long>(soak_rate(soak))
            << " events/s over " << soak.wall << " s\n"
            << "rss flatness (d10/d3): " << flat.rss << ' ' << rss_gate
            << "\nresident-bytes flatness (d10/d3): "
            << flat.resident << "\ncompactions: " << soak.retention.compactions
            << ", evicted checkpoints: " << soak.retention.evicted_checkpoints
            << ", evicted messages: " << soak.retention.evicted_messages
            << ", parked sends: " << soak.retention.parked_sends << '\n';
}

// The JSON metrics every soak section reports.
JsonObject soak_metrics(const SoakResult& soak) {
  JsonArray rss_deciles, resident_deciles, rate_deciles, compaction_deciles,
      parked_deciles;
  for (std::size_t d = 0; d < kDeciles; ++d) {
    // emplace_back, not push_back of an implicitly converted temporary:
    // GCC 12 flags the temporary's variant move with a false-positive
    // -Wmaybe-uninitialized.
    rss_deciles.emplace_back(static_cast<long long>(soak.deciles[d].rss_kb));
    resident_deciles.emplace_back(static_cast<unsigned long long>(
        soak.deciles[d].retention.resident_bytes));
    rate_deciles.emplace_back(decile_rate(soak, d));
    compaction_deciles.emplace_back(soak.deciles[d].retention.compactions);
    parked_deciles.emplace_back(soak.deciles[d].retention.parked_sends);
  }
  const Flatness flat = soak_flatness(soak);
  return JsonObject{
      {"events", soak.events},
      {"wall_seconds", soak.wall},
      {"events_per_sec", soak_rate(soak)},
      {"rss_kb_deciles", std::move(rss_deciles)},
      {"resident_bytes_deciles", std::move(resident_deciles)},
      {"rate_deciles", std::move(rate_deciles)},
      {"compactions_deciles", std::move(compaction_deciles)},
      {"parked_sends_deciles", std::move(parked_deciles)},
      {"rss_flatness_last_over_warm", flat.rss},
      {"resident_flatness_last_over_warm", flat.resident},
      {"final_rss_kb", static_cast<long long>(soak.final_rss_kb)},
      {"final_resident_bytes",
       static_cast<unsigned long long>(soak.retention.resident_bytes)},
      {"compactions", soak.retention.compactions},
      {"evicted_checkpoints", soak.retention.evicted_checkpoints},
      {"evicted_edges", soak.retention.evicted_edges},
      {"evicted_saved_tdvs", soak.retention.evicted_saved_tdvs},
      {"evicted_messages", soak.retention.evicted_messages},
      {"late_edges_collapsed", soak.retention.late_edges_collapsed},
      {"parked_sends", soak.retention.parked_sends},
      {"checkpoints", soak.stats.checkpoints},
      {"messages", soak.stats.messages},
      {"is_rdt", soak.is_rdt},
      {"rollback_checksum", soak.deciles[kDeciles - 1].rollback}};
}

}  // namespace

int main(int argc, char** argv) try {
  constexpr BenchFlag kFlags[] = {
      {"--events", "N"},     {"--procs", "N"},         {"--batch", "N"},
      {"--ckpt-every", "N"}, {"--inflight", "N"},      {"--compact-every", "N"},
      {"--eq-events", "N"},  {"--seed", "N"}};
  const BenchArgs args(argc, argv, kFlags);
  BenchReport report("longrun", args);
  const long long events =
      std::max(10LL, static_cast<long long>(args.flag_or("--events", 8000000)));
  const int procs = std::max(2, args.flag_or("--procs", 8));
  const std::size_t batch =
      static_cast<std::size_t>(std::max(1, args.flag_or("--batch", 8192)));
  const int ckpt_every = std::max(1, args.flag_or("--ckpt-every", 8));
  const int inflight = std::max(1, args.flag_or("--inflight", 256));
  const long long compact_every = args.flag_or("--compact-every", 1 << 16);
  const long long lossy_events = std::max(10LL, events / kLossyEventsDivisor);
  const long long eq_events = std::min<long long>(
      events, std::max(10LL, static_cast<long long>(
                                 args.flag_or("--eq-events", 1000000))));
  const std::uint32_t seed =
      static_cast<std::uint32_t>(std::max(1, args.flag_or("--seed", 1)));

  RetentionPolicy policy = RetentionPolicy::bounded(compact_every);

  banner("long-run soak",
         "flat resident memory under retention-enabled streaming");
  std::cout << events << " events, " << procs << " processes, checkpoint 1/"
            << ckpt_every << " events, in-flight cap " << inflight
            << ", auto-compact every " << compact_every << " events\n\n";

  // Each soak's engine lives only in its own scope, and the free heap goes
  // back to the OS in between, so the lossy soak's RSS deciles neither
  // carry the first engine nor reuse its freed pages.
  const SoakResult soak = [&] {
    OnlineEngine engine(EngineOptions{procs, policy});
    LongrunGen gen(procs, ckpt_every, inflight, seed);
    return run_soak(engine, gen, events, batch);
  }();
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  print_soak(soak, "(gate: <= 1.1)");
  JsonObject on{{"processes", procs},
                {"batch_size", static_cast<long long>(batch)},
                {"ckpt_every_global_events", static_cast<long long>(ckpt_every)},
                {"inflight_cap", static_cast<long long>(inflight)},
                {"compact_every_events", compact_every}};
  for (JsonMember& m : soak_metrics(soak)) on.push_back(std::move(m));
  report.add_metrics("retention_on", std::move(on));

  // The lossy soak: same generator and policy, a fresh engine.
  std::cout << "\nlossy soak: " << lossy_events << " events, "
            << kLostPerMillion / 1e4 << "% of sends lost\n\n";
  const SoakResult lossy = [&] {
    OnlineEngine engine(EngineOptions{procs, policy});
    LongrunGen gen(procs, ckpt_every, inflight, seed, kLostPerMillion);
    return run_soak(engine, gen, lossy_events, batch);
  }();
  print_soak(lossy, "(not gated: parked rows grow with the lost sends)");
  const LostSendCost cost = lost_send_cost(lossy);
  std::cout << "growth per lost send (d3 -> d10): " << cost.rss_bytes
            << " B rss, " << cost.resident_bytes
            << " B resident (gate: <= " << kMaxBytesPerLostSend << ")\n";
  JsonArray lost_deciles;
  for (const DecileSample& s : lossy.deciles) lost_deciles.emplace_back(s.lost);
  JsonObject lossy_metrics{
      {"lost_sends", lossy.deciles[kDeciles - 1].lost},
      {"lost_sends_deciles", std::move(lost_deciles)},
      {"rss_bytes_per_lost_send", cost.rss_bytes},
      {"resident_bytes_per_lost_send", cost.resident_bytes}};
  for (JsonMember& m : soak_metrics(lossy))
    lossy_metrics.push_back(std::move(m));
  report.add_metrics("retention_lossy", std::move(lossy_metrics));

  // Equivalence + contrast on the truncated stream.
  const EqResult eq = run_equivalence(procs, ckpt_every, inflight, policy,
                                      eq_events, batch, seed);
  const double resident_ratio =
      eq.retention_resident > 0
          ? static_cast<double>(eq.keepall_resident) /
                static_cast<double>(eq.retention_resident)
          : 0.0;
  std::cout << "\nequivalence vs keep-all over " << eq.events << " events: "
            << (eq.matches() ? "ok" : "DIVERGED") << " (" << eq.checks
            << " checks, " << eq.mismatches << " mismatches, "
            << eq.compactions << " compactions)\n"
            << "keep-all resident on the same stream: "
            << static_cast<double>(eq.keepall_resident) / (1024.0 * 1024.0)
            << " MB vs compacted "
            << static_cast<double>(eq.retention_resident) / (1024.0 * 1024.0)
            << " MB (" << resident_ratio << "x; gate: >= 2x)\n";

  report.add_metrics("equivalence",
                     JsonObject{{"events", eq.events},
                                {"checks", eq.checks},
                                {"mismatches", eq.mismatches},
                                {"ok_pairs", eq.ok_pairs},
                                {"compactions", eq.compactions},
                                {"matches", eq.matches()}});

  JsonArray keepall_curve;
  for (const std::size_t b : eq.keepall_curve)
    keepall_curve.emplace_back(static_cast<unsigned long long>(b));
  report.add_metrics(
      "retention_off",
      JsonObject{
          {"events", eq.events},
          {"keepall_resident_bytes_deciles", std::move(keepall_curve)},
          {"keepall_final_resident_bytes",
           static_cast<unsigned long long>(eq.keepall_resident)},
          {"retention_final_resident_bytes",
           static_cast<unsigned long long>(eq.retention_resident)},
          {"resident_ratio_keepall_over_retention", resident_ratio}});
  report.finish();

  if (!eq.matches()) {
    std::cerr << "\nbench_longrun: compacted engine DIVERGED from the "
                 "keep-all engine on retained state\n";
    return 1;
  }
  return 0;
} catch (const UsageError&) {
  return 2;
}
