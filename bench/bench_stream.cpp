// Streaming-kernel throughput — the canonical wall-clock workload for the
// incremental online engine (online/engine.hpp): feed one long event stream
// through OnlineEngine with live queries interleaved (is_rdt_so_far every
// event, recovery_line every 64 events, z-reach every 256), and check that
// the per-event cost stays flat as the pattern grows. A naive baseline
// re-runs the full batch analysis per sampled prefix, which is what keeping
// the answers live would cost without the kernel.
//
// Reported per environment section (--json, schema rdt-bench-v2):
//   events_per_sec          end-to-end feed+query throughput
//   rate_q1..rate_q4        per-quartile event rates over the stream
//   flatness_q4_over_q1     last-quartile rate / first-quartile rate —
//                           the perf-smoke CI gate wants >= 0.8
//   rate_d1, rate_d10, growth10_d10_over_d1
//                           same, per-decile: rate after 10x growth
//   feed_events_per_sec     intake-only throughput, one on_* call per event
//   batched_events_per_sec  intake-only throughput via feed() batches
//   batched_speedup         batched / single intake throughput
//   batch_size              events per feed() span (--batch, default 4096)
//   concurrent_feed_events_per_sec, concurrent_queries_per_sec
//                           batched feeder racing 2 query threads
// and, for the random environment, a "naive" section timing the per-prefix
// batch re-analysis with the resulting speedup. The batched engine's end
// state is cross-checked against the single-event engine's (hard failure on
// divergence) — feed() must be bit-identical to N on_* calls.
//
// Usage: bench_stream [--events N] [--batch N] [--json <path>]
//                     [--trace <path>]
#include <atomic>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/characterizations.hpp"
#include "core/rdt_checker.hpp"
#include "online/engine.hpp"
#include "util/stats.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;
using Clock = std::chrono::steady_clock;

// 20 timing chunks: quartiles aggregate 5, deciles aggregate 2.
constexpr std::size_t kChunks = 20;

// Captures a replay's builder stream as a replayable event list (the feed
// side of the online engine, decoupled from the replay so the timed loop is
// pure engine cost).
class Recorder final : public PatternListener {
 public:
  void on_send(MsgId m, ProcessId sender, ProcessId receiver) override {
    ops.push_back(StreamEvent::send(m, sender, receiver));
  }
  void on_deliver(MsgId m, ProcessId sender, ProcessId receiver) override {
    ops.push_back(StreamEvent::deliver(m, sender, receiver));
  }
  void on_internal(ProcessId p) override {
    ops.push_back(StreamEvent::internal(p));
  }
  void on_checkpoint(ProcessId p, CkptIndex index) override {
    ops.push_back(StreamEvent::checkpoint(p, index));
  }

  std::vector<StreamEvent> ops;
};

std::vector<StreamEvent> record(const Trace& trace) {
  Recorder recorder;
  replay(trace, ProtocolKind::kBhmr, {.online = &recorder});
  return recorder.ops;
}

struct StreamTimings {
  std::size_t events = 0;
  double wall = 0.0;
  std::array<double, kChunks> chunk_wall{};  // per-chunk seconds
  long long rdt_true = 0;                    // query result checksum
  long long rollback_total = 0;
  long long zreach_hits = 0;
  int checkpoints = 0;
};

// The timed loop: feed every op, query is_rdt_so_far per event,
// recovery_line every 64 events, z-reach every 256. The z-reach sources
// cycle over the initial checkpoints C_{p,0} and the targets walk the
// durable checkpoints as they appear. Each query walks the published logs
// from its source and stops at its first hit, so the rate stays flat only
// while nearly every query hits (zreach_hits pins how many do).
StreamTimings run_stream(int num_processes,
                         const std::vector<StreamEvent>& ops) {
  StreamTimings t;
  t.events = ops.size();
  OnlineEngine engine(EngineOptions{num_processes});
  std::vector<CkptIndex> durable(static_cast<std::size_t>(num_processes), 0);
  ProcessId target_p = 0;

  // Chunk boundaries come from a BucketPlan so the remainder events land in
  // the LAST chunk instead of dangling past a ceil-division grid (which
  // used to leave the final chunk short while every rate still divided by a
  // uniform events/kChunks).
  const BucketPlan plan(ops.size(), kChunks);
  const auto start = Clock::now();
  auto chunk_start = start;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const StreamEvent& op = ops[i];
    switch (op.kind) {
      case EventKind::kSend:
        engine.on_send(op.msg, op.p, op.q);
        break;
      case EventKind::kDeliver:
        engine.on_deliver(op.msg, op.p, op.q);
        break;
      case EventKind::kInternal:
        engine.on_internal(op.p);
        break;
      case EventKind::kCheckpoint:
        engine.on_checkpoint(op.p, op.index);
        durable[static_cast<std::size_t>(op.p)] = op.index;
        ++t.checkpoints;
        break;
    }
    t.rdt_true += engine.is_rdt_so_far() ? 1 : 0;
    if (i % 64 == 0)
      t.rollback_total += engine.recovery_line().value.total_rollback;
    if (i % 256 == 0) {
      const ProcessId src = static_cast<ProcessId>(
          (i / 256) % static_cast<std::size_t>(num_processes));
      target_p = static_cast<ProcessId>((target_p + 1) % num_processes);
      const CkptId from{src, 0};
      const CkptId to{target_p, durable[static_cast<std::size_t>(target_p)]};
      t.zreach_hits += engine.zreach(from, to).value ? 1 : 0;
    }
    if (plan.closes_bucket(i)) {
      const auto now = Clock::now();
      t.chunk_wall[plan.bucket_of(i)] +=
          std::chrono::duration<double>(now - chunk_start).count();
      chunk_start = now;
    }
  }
  t.wall = std::chrono::duration<double>(Clock::now() - start).count();
  engine.flush_metrics();  // outside the timed region; no-op without --trace
  return t;
}

double rate_over(const StreamTimings& t, std::size_t first_chunk,
                 std::size_t num_chunks) {
  const BucketPlan plan(t.events, kChunks);
  double events = 0.0;
  double wall = 0.0;
  for (std::size_t c = first_chunk; c < first_chunk + num_chunks; ++c) {
    events += static_cast<double>(plan.size_of(c));
    wall += t.chunk_wall[c];
  }
  return wall > 0.0 ? events / wall : 0.0;
}

// Intake-only timing, one on_* call per event (the write-lock-per-event
// baseline the batched path is gated against).
double run_feed_single(OnlineEngine& engine,
                       const std::vector<StreamEvent>& ops) {
  const auto start = Clock::now();
  for (const StreamEvent& op : ops) {
    switch (op.kind) {
      case EventKind::kSend:
        engine.on_send(op.msg, op.p, op.q);
        break;
      case EventKind::kDeliver:
        engine.on_deliver(op.msg, op.p, op.q);
        break;
      case EventKind::kInternal:
        engine.on_internal(op.p);
        break;
      case EventKind::kCheckpoint:
        engine.on_checkpoint(op.p, op.index);
        break;
    }
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Intake-only timing through feed(): one write-side acquisition per batch.
double run_feed_batched(OnlineEngine& engine,
                        const std::vector<StreamEvent>& ops,
                        std::size_t batch) {
  const std::span<const StreamEvent> all(ops);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < all.size(); i += batch)
    engine.feed(all.subspan(i, std::min(batch, all.size() - i)));
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// feed() must land the engine in exactly the state N single calls produce.
bool same_end_state(const OnlineEngine& a, const OnlineEngine& b) {
  if (a.events_consumed() != b.events_consumed()) return false;
  if (a.is_rdt_so_far() != b.is_rdt_so_far()) return false;
  if (a.stats().value != b.stats().value) return false;
  for (ProcessId p = 0; p < a.num_processes(); ++p) {
    if (a.current_interval(p) != b.current_interval(p)) return false;
    if (a.live_tdv(p) != b.live_tdv(p)) return false;
    if (a.live_clock(p) != b.live_clock(p)) return false;
  }
  const RecoveryOutcome ra = a.recovery_line().value;
  const RecoveryOutcome rb = b.recovery_line().value;
  return ra.line.indices == rb.line.indices &&
         ra.total_rollback == rb.total_rollback;
}

struct ConcurrentTimings {
  double feed_wall = 0.0;
  long long queries = 0;
  long long rdt_true = 0;  // keeps the query loops un-elidable
};

// One batched feeder racing two query threads over the seqlock read path —
// the readers never take the feed lock, so the feeder's throughput should
// stay near the uncontended batched rate.
ConcurrentTimings run_concurrent(int num_processes,
                                 const std::vector<StreamEvent>& ops,
                                 std::size_t batch) {
  OnlineEngine engine(EngineOptions{num_processes});
  ConcurrentTimings t;
  std::atomic<bool> done{false};
  std::atomic<long long> queries{0};
  std::atomic<long long> rdt_true{0};

  auto reader = [&](int lane) {
    long long local_q = 0;
    long long local_true = 0;
    ProcessId p = static_cast<ProcessId>(lane % num_processes);
    while (!done.load(std::memory_order_acquire)) {
      local_true += engine.is_rdt_so_far() ? 1 : 0;
      const OnlineStats s = engine.stats().value;
      local_true += s.messages > 0 ? 1 : 0;
      local_true += engine.live_tdv(p).back() > 0 ? 1 : 0;
      p = static_cast<ProcessId>((p + 1) % num_processes);
      local_q += 3;
      if (local_q % 1024 == 0)
        local_true += engine.recovery_line().value.total_rollback > 0 ? 1 : 0;
    }
    queries.fetch_add(local_q, std::memory_order_relaxed);
    rdt_true.fetch_add(local_true, std::memory_order_relaxed);
  };

  std::thread r1(reader, 0), r2(reader, 1);
  t.feed_wall = run_feed_batched(engine, ops, batch);
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  t.queries = queries.load(std::memory_order_relaxed);
  t.rdt_true = rdt_true.load(std::memory_order_relaxed);
  return t;
}

// The closed prefix ops[0..len) as the batch pipeline sees it: sends of
// still-in-flight messages dropped, virtual finals added by build().
Pattern closed_prefix(int num_processes, const std::vector<StreamEvent>& ops,
                      std::size_t len,
                      const std::vector<std::size_t>& deliver_pos) {
  PatternBuilder b(num_processes);
  std::vector<MsgId> remap(deliver_pos.size(), kNoMsg);
  for (std::size_t i = 0; i < len; ++i) {
    const StreamEvent& op = ops[i];
    switch (op.kind) {
      case EventKind::kSend:
        if (deliver_pos[static_cast<std::size_t>(op.msg)] < len)
          remap[static_cast<std::size_t>(op.msg)] = b.send(op.p, op.q);
        break;
      case EventKind::kDeliver:
        b.deliver(remap[static_cast<std::size_t>(op.msg)]);
        break;
      case EventKind::kInternal:
        b.internal(op.p);
        break;
      case EventKind::kCheckpoint:
        b.checkpoint(op.p);
        break;
    }
  }
  return b.build();
}

struct NaiveTimings {
  int samples = 0;
  std::size_t events = 0;
  double wall = 0.0;
  long long checksum = 0;
};

// What "live answers" cost without the kernel: a full batch re-analysis
// (pattern rebuild + RdtAnalyses + RDT verdict + recovery line) at each
// sampled prefix. Kept to a truncated stream and a handful of samples —
// this is quadratic by construction.
NaiveTimings run_naive(int num_processes, const std::vector<StreamEvent>& ops,
                       std::size_t max_events, int samples) {
  NaiveTimings t;
  t.samples = samples;
  t.events = std::min(ops.size(), max_events);
  std::vector<std::size_t> deliver_pos;
  {
    MsgId max_msg = -1;
    for (std::size_t i = 0; i < t.events; ++i)
      if (ops[i].msg > max_msg) max_msg = ops[i].msg;
    deliver_pos.assign(static_cast<std::size_t>(max_msg + 1), t.events);
    for (std::size_t i = 0; i < t.events; ++i)
      if (ops[i].kind == EventKind::kDeliver)
        deliver_pos[static_cast<std::size_t>(ops[i].msg)] = i;
  }
  const auto start = Clock::now();
  for (int s = 1; s <= samples; ++s) {
    const std::size_t len =
        t.events * static_cast<std::size_t>(s) / static_cast<std::size_t>(samples);
    const Pattern pat = closed_prefix(num_processes, ops, len, deliver_pos);
    const RdtAnalyses analyses(pat);
    t.checksum += satisfies_rdt(analyses) ? 1 : 0;
    t.checksum += recover_after_failure(pat, 0).total_rollback;
  }
  t.wall = std::chrono::duration<double>(Clock::now() - start).count();
  return t;
}

}  // namespace

int main(int argc, char** argv) try {
  constexpr BenchFlag kFlags[] = {{"--events", "N"}, {"--batch", "N"}};
  const BenchArgs args(argc, argv, kFlags);
  BenchReport report("stream", args);
  const long long target = args.flag_or("--events", 1000000);
  const std::size_t batch = static_cast<std::size_t>(
      std::max(1, args.flag_or("--batch", 4096)));

  banner("stream throughput",
         "amortized per-event cost of the incremental online kernel");
  std::cout << "target ~" << target
            << " events/section; queries: rdt x1, recovery x1/64, "
               "z-reach x1/256; batch " << batch << "\n\n";

  Table table({"environment", "events", "ckpts", "wall s", "events/s",
               "flatness q4/q1", "growth10 d10/d1"});
  Table feed_table({"environment", "feed ev/s", "batched ev/s", "speedup",
                    "conc feed ev/s", "conc queries/s", "state match"});

  // Calibrate each environment to the event target by scaling its duration
  // knob linearly from a probe run at the preset size.
  const auto scaled_ops = [&](const EnvPreset& env) {
    const std::size_t probe = record(env.generate(1)).size();
    const double scale =
        static_cast<double>(target) / static_cast<double>(std::max<std::size_t>(probe, 1));
    if (env.name == "random") {
      RandomEnvConfig cfg = random_env_preset();
      cfg.duration *= scale;
      cfg.seed = 1;
      return record(random_environment(cfg));
    }
    if (env.name == "group") {
      GroupEnvConfig cfg = group_env_preset();
      cfg.duration *= scale;
      cfg.seed = 1;
      return record(group_environment(cfg));
    }
    ClientServerEnvConfig cfg = client_server_env_preset();
    cfg.num_requests = std::max(
        1, static_cast<int>(static_cast<double>(cfg.num_requests) * scale));
    cfg.seed = 1;
    return record(client_server_environment(cfg));
  };

  double random_per_event = 0.0;
  int random_processes = 0;
  std::vector<StreamEvent> random_ops;
  bool all_states_match = true;
  for (const EnvPreset& env : env_presets()) {
    const std::vector<StreamEvent> ops = scaled_ops(env);
    const int num_processes =
        env.name == "random"    ? random_env_preset().num_processes
        : env.name == "group"   ? group_env_preset().num_processes()
                                : client_server_env_preset().num_processes();
    const StreamTimings t = run_stream(num_processes, ops);
    const double rate = static_cast<double>(t.events) / t.wall;
    const double q1 = rate_over(t, 0, 5), q4 = rate_over(t, 15, 5);
    const double d1 = rate_over(t, 0, 2), d10 = rate_over(t, 18, 2);
    table.begin_row()
        .add(env.name)
        .add(static_cast<long long>(t.events))
        .add(t.checkpoints)
        .add(t.wall, 3)
        .add(rate, 0)
        .add(q1 > 0 ? q4 / q1 : 0.0, 3)
        .add(d1 > 0 ? d10 / d1 : 0.0, 3);

    // Intake-only single vs batched, plus the bit-identity cross-check.
    OnlineEngine single(EngineOptions{num_processes});
    const double single_wall = run_feed_single(single, ops);
    OnlineEngine batched(EngineOptions{num_processes});
    const double batched_wall = run_feed_batched(batched, ops, batch);
    const bool match = same_end_state(single, batched);
    all_states_match = all_states_match && match;
    const double feed_rate =
        single_wall > 0 ? static_cast<double>(ops.size()) / single_wall : 0.0;
    const double batched_rate =
        batched_wall > 0 ? static_cast<double>(ops.size()) / batched_wall : 0.0;
    const ConcurrentTimings ct = run_concurrent(num_processes, ops, batch);
    const double conc_feed_rate =
        ct.feed_wall > 0 ? static_cast<double>(ops.size()) / ct.feed_wall : 0.0;
    const double conc_query_rate =
        ct.feed_wall > 0 ? static_cast<double>(ct.queries) / ct.feed_wall : 0.0;
    feed_table.begin_row()
        .add(env.name)
        .add(feed_rate, 0)
        .add(batched_rate, 0)
        .add(feed_rate > 0 ? batched_rate / feed_rate : 0.0, 2)
        .add(conc_feed_rate, 0)
        .add(conc_query_rate, 0)
        .add(match ? "ok" : "DIVERGED");

    report.add_metrics(
        env.name,
        JsonObject{{"events", static_cast<long long>(t.events)},
                   {"checkpoints", t.checkpoints},
                   {"wall_seconds", t.wall},
                   {"events_per_sec", rate},
                   {"rate_q1", q1},
                   {"rate_q2", rate_over(t, 5, 5)},
                   {"rate_q3", rate_over(t, 10, 5)},
                   {"rate_q4", q4},
                   {"flatness_q4_over_q1", q1 > 0 ? q4 / q1 : 0.0},
                   {"rate_d1", d1},
                   {"rate_d10", d10},
                   {"growth10_d10_over_d1", d1 > 0 ? d10 / d1 : 0.0},
                   {"feed_events_per_sec", feed_rate},
                   {"batched_events_per_sec", batched_rate},
                   {"batched_speedup",
                    feed_rate > 0 ? batched_rate / feed_rate : 0.0},
                   {"batch_size", static_cast<long long>(batch)},
                   {"batched_state_matches", match},
                   {"concurrent_feed_events_per_sec", conc_feed_rate},
                   {"concurrent_queries_per_sec", conc_query_rate},
                   {"rdt_true_checksum", t.rdt_true},
                   {"rollback_checksum", t.rollback_total},
                   {"zreach_hits", t.zreach_hits}});
    if (env.name == "random") {
      random_per_event = t.wall / static_cast<double>(t.events);
      random_processes = num_processes;
      random_ops = ops;
    }
  }
  table.print(std::cout);
  std::cout << '\n';
  feed_table.print(std::cout);

  // Naive baseline: batch re-analysis per prefix, on a truncated stream.
  const NaiveTimings naive = run_naive(random_processes, random_ops,
                                       /*max_events=*/4000, /*samples=*/8);
  const double per_prefix = naive.wall / static_cast<double>(naive.samples);
  const double speedup =
      random_per_event > 0.0 ? per_prefix / random_per_event : 0.0;
  std::cout << "\nnaive baseline (random env, " << naive.events
            << "-event prefix stream): " << naive.samples
            << " batch re-analyses in " << naive.wall << " s ("
            << per_prefix * 1e3 << " ms each)\n"
            << "per-event speedup of staying live: " << speedup
            << "x (gate: >= 10x)\n"
            << "\n'flatness q4/q1' compares event rates of the last and "
               "first stream\nquartile — the CI gate wants >= 0.8 (amortized "
               "O(1) per event);\n'growth10' is the same per decile: the "
               "rate after 10x pattern growth.\n";
  report.add_metrics(
      "naive",
      JsonObject{{"events", static_cast<long long>(naive.events)},
                 {"samples", naive.samples},
                 {"wall_seconds", naive.wall},
                 {"per_prefix_seconds", per_prefix},
                 {"engine_per_event_seconds", random_per_event},
                 {"speedup", speedup},
                 {"checksum", naive.checksum}});
  report.finish();
  if (!all_states_match) {
    std::cerr << "\nbench_stream: batched end state DIVERGED from the "
                 "single-event end state\n";
    return 1;
  }
  return 0;
} catch (const UsageError&) {
  return 2;
}
