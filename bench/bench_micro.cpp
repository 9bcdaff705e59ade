// Experiment E8 — microbenchmarks (google-benchmark): the constant-factor
// costs behind the protocol and analysis layers.
//
//  * per-event protocol cost (send payload construction, delivery decision
//    + merge) for each protocol as n grows — the price of the O(n^2)
//    control structures;
//  * the protocol study's replay loop (counters only, each protocol through
//    its declared wire codec, a warm PayloadArena) and the codec roundtrip
//    inside it: encode and decode of recorded BHMR payloads per codec;
//  * pattern analyses: TDV replay, chain analysis, R-graph closure, full
//    RDT report;
//  * the batch oracle's stages at the protocol study's operating point
//    (BHMR on the random environment, n = 8, duration 400): chain
//    analysis, R-graph closure, the definitional check and the fused
//    junction-family pass, each on prebuilt analyses;
//  * recovery-line computation (fixpoint vs R-graph propagation), and the
//    online engine's recovery and zreach queries at serve_live's
//    per-session spacing;
//  * the online engine's feed path on the serving stream (per event, with
//    the automatic compaction amortised in) and one compaction pass after a
//    full cadence;
//  * ServePool ingest at serve_ingest's operating point: pre-encoded
//    64-event frames with BHMR's delta-coded piggyback into 16 sessions on
//    2 shards, per event over submit-all plus drain().
//
// Unlike the experiment binaries this one has no `--json` flag: use
// google-benchmark's native `--benchmark_format=json` /
// `--benchmark_out=<path>` for machine-readable output.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/global_checkpoint.hpp"
#include "core/rdt_checker.hpp"
#include "online/engine.hpp"
#include "recovery/recovery_line.hpp"
#include "serve/driver.hpp"
#include "serve/pool.hpp"
#include "serve/wire.hpp"
#include "sim/environments.hpp"
#include "sim/payload_arena.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"

namespace {

using namespace rdt;

Trace make_trace(int n, double duration, std::uint64_t seed = 3) {
  RandomEnvConfig cfg;
  cfg.num_processes = n;
  cfg.duration = duration;
  cfg.basic_ckpt_mean = 10.0;
  cfg.seed = seed;
  return random_environment(cfg);
}

void BM_ProtocolReplay(benchmark::State& state, ProtocolKind kind) {
  const int n = static_cast<int>(state.range(0));
  const Trace trace = make_trace(n, 200.0);
  for (auto _ : state) {
    const ReplayResult r = replay(trace, kind);
    benchmark::DoNotOptimize(r.forced);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(trace.ops.size()));
  state.counters["msgs"] = static_cast<double>(trace.num_messages());
}

// What the protocol study runs per replay: counters only, the declared
// codec, a warm arena (random environment, n = 8, duration 400).
void BM_ReplayDeclaredCodec(benchmark::State& state, ProtocolKind kind) {
  const Trace trace = make_trace(8, 400.0);
  PayloadArena arena;
  replay_metrics(trace, kind, &arena);  // warm the arena
  for (auto _ : state) {
    const ReplayResult r = replay_metrics(trace, kind, &arena);
    benchmark::DoNotOptimize(r.forced);
  }
  state.SetItemsProcessed(state.iterations() * trace.num_messages());
  state.counters["msgs"] = static_cast<double>(trace.num_messages());
}

// BHMR's payloads from the study trace, in send order with their channels:
// a replay leaves every message's decoded planes in the arena.
struct RecordedPayloads {
  struct Send {
    MsgId msg;
    ProcessId src;
    ProcessId dest;
  };
  PayloadShape shape;
  PayloadArena arena;
  std::vector<Send> sends;
};

const RecordedPayloads& bhmr_payloads() {
  static const RecordedPayloads recorded = [] {
    RecordedPayloads rec;
    const Trace trace = make_trace(8, 400.0);
    rec.shape = make_protocol(ProtocolKind::kBhmr, 8, 0)->payload_shape();
    replay(trace, ProtocolKind::kBhmr,
           {.materialize_pattern = false, .arena = &rec.arena});
    for (const TraceOp& op : trace.ops) {
      if (op.kind != TraceOpKind::kSend) continue;
      const TraceMessage& m = trace.messages[static_cast<std::size_t>(op.msg)];
      rec.sends.push_back({op.msg, m.sender, m.receiver});
    }
    return rec;
  }();
  return recorded;
}

void BM_CodecEncode(benchmark::State& state, PiggybackCodecKind kind) {
  const RecordedPayloads& rec = bhmr_payloads();
  PiggybackCodec codec;
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    codec.reset(kind, 8, rec.shape);
    out.clear();
    for (const RecordedPayloads::Send& m : rec.sends)
      codec.encode(m.src, m.dest, rec.arena.view(m.msg), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(rec.sends.size()));
  state.counters["bytes_per_msg"] =
      static_cast<double>(out.size()) / static_cast<double>(rec.sends.size());
}

void BM_CodecDecode(benchmark::State& state, PiggybackCodecKind kind) {
  const RecordedPayloads& rec = bhmr_payloads();
  PiggybackCodec codec(kind, 8, rec.shape);
  std::vector<std::uint8_t> wire;
  for (const RecordedPayloads::Send& m : rec.sends)
    codec.encode(m.src, m.dest, rec.arena.view(m.msg), wire);
  PayloadArena slot;
  slot.reset(8, rec.shape, 1, kind);
  for (auto _ : state) {
    codec.reset(kind, 8, rec.shape);
    std::size_t offset = 0;
    for (const RecordedPayloads::Send& m : rec.sends)
      codec.decode(m.src, m.dest, wire, offset, slot.slot(0));
    benchmark::DoNotOptimize(offset);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(rec.sends.size()));
}

void BM_TdvReplay(benchmark::State& state) {
  const Trace trace = make_trace(8, static_cast<double>(state.range(0)));
  const Pattern p = replay(trace, ProtocolKind::kFdas).pattern;
  for (auto _ : state) {
    const TdvAnalysis tdv(p);
    benchmark::DoNotOptimize(tdv.at_ckpt({0, 0}));
  }
  state.SetItemsProcessed(state.iterations() * p.total_events());
}

void BM_ChainAnalysis(benchmark::State& state) {
  const Trace trace = make_trace(8, static_cast<double>(state.range(0)));
  const Pattern p = replay(trace, ProtocolKind::kFdas).pattern;
  for (auto _ : state) {
    const ChainAnalysis chains(p);
    benchmark::DoNotOptimize(chains.noncausal_junctions().size());
  }
}

void BM_RGraphClosure(benchmark::State& state) {
  const Trace trace = make_trace(8, static_cast<double>(state.range(0)));
  const Pattern p = replay(trace, ProtocolKind::kFdas).pattern;
  const RGraph g(p);
  for (auto _ : state) {
    const ReachabilityClosure closure(g);
    benchmark::DoNotOptimize(closure.reach(0, g.num_nodes() - 1));
  }
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
}

// The BHMR pattern the protocol study analyses: random environment, n = 8,
// duration 400, basic-checkpoint period 10.
Pattern study_pattern() {
  return replay(make_trace(8, 400.0), ProtocolKind::kBhmr).pattern;
}

void BM_ChainAnalysisBhmr(benchmark::State& state) {
  const Pattern p = study_pattern();
  for (auto _ : state) {
    const ChainAnalysis chains(p);
    benchmark::DoNotOptimize(chains.noncausal_junctions().size());
  }
  state.counters["msgs"] = static_cast<double>(p.num_messages());
}

void BM_RGraphClosureBhmr(benchmark::State& state) {
  const Pattern p = study_pattern();
  const RGraph g(p);
  for (auto _ : state) {
    const ReachabilityClosure closure(g);
    benchmark::DoNotOptimize(closure.reach(0, g.num_nodes() - 1));
  }
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
}

void BM_CheckDefinitional(benchmark::State& state) {
  const Pattern p = study_pattern();
  const RdtAnalyses analyses(p);
  (void)analyses.closure();
  for (auto _ : state) {
    const CheckResult r = check_rdt_definitional(analyses);
    benchmark::DoNotOptimize(r.paths_checked);
  }
  state.counters["nodes"] = static_cast<double>(p.total_ckpts());
}

void BM_JunctionFamilies(benchmark::State& state) {
  const Pattern p = study_pattern();
  const RdtAnalyses analyses(p);
  const ChainAnalysis& chains = analyses.chains();
  for (auto _ : state) {
    const JunctionReport r = check_junction_families(analyses);
    benchmark::DoNotOptimize(r.cm.paths_checked);
  }
  state.counters["junctions"] =
      static_cast<double>(chains.noncausal_junctions().size());
}

void BM_FullRdtReport(benchmark::State& state) {
  const Trace trace = make_trace(6, static_cast<double>(state.range(0)));
  const Pattern p = replay(trace, ProtocolKind::kNoForce).pattern;
  for (auto _ : state) {
    const RdtReport r = analyze_rdt(p);
    benchmark::DoNotOptimize(r.definitional.ok);
  }
}

void BM_RecoveryLineFixpoint(benchmark::State& state) {
  const Trace trace = make_trace(8, static_cast<double>(state.range(0)));
  const Pattern p = replay(trace, ProtocolKind::kNoForce).pattern;
  const GlobalCkpt upper = last_durable(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_consistent_leq(p, upper));
  }
}

void BM_RecoveryLineRGraph(benchmark::State& state) {
  const Trace trace = make_trace(8, static_cast<double>(state.range(0)));
  const Pattern p = replay(trace, ProtocolKind::kNoForce).pattern;
  const GlobalCkpt upper = last_durable(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recovery_line_rgraph(p, upper));
  }
}

// Captures a replay's pattern stream as a feedable event list.
class StreamRecorder final : public PatternListener {
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

// A BHMR replay's pattern stream (n = 8, the study's random environment:
// the serving benchmarks' operating point), with `lost_share` of its
// deliveries removed by a seeded coin.
std::vector<StreamEvent> serve_stream(double lost_share) {
  StreamRecorder recorder;
  replay(make_trace(8, 16384.0), ProtocolKind::kBhmr, {.online = &recorder});
  Rng rng(5);
  std::erase_if(recorder.ops, [&](const StreamEvent& e) {
    return e.kind == EventKind::kDeliver && lost_share > 0.0 &&
           rng.bernoulli(lost_share);
  });
  return std::move(recorder.ops);
}

// One recovery_line() on a standalone bounded engine after every 15
// 64-event batches: serve_live's spacing (a query per session per 1 ms
// against 64 µs frames at 1M events/s). Only the query is timed; the
// engine restarts from reset() when the stream runs out. The lossy stream
// drops serve_live's 0.1% of deliveries.
void BM_OnlineRecoveryQuery(benchmark::State& state, double lost_share) {
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kBatchesPerQuery = 15;
  const std::vector<StreamEvent> ops = serve_stream(lost_share);
  const std::span<const StreamEvent> all(ops);
  const EngineOptions options{8, RetentionPolicy::bounded(65536)};
  OnlineEngine engine(options);
  std::size_t at = 0;
  for (auto _ : state) {
    for (std::size_t b = 0; b < kBatchesPerQuery; ++b) {
      if (at + kBatch > all.size()) {
        engine.reset(options);
        at = 0;
      }
      engine.feed(all.subspan(at, kBatch));
      at += kBatch;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const RecoveryResult r = engine.recovery_line();
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(r.value.total_rollback);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.counters["events"] = static_cast<double>(ops.size());
}

// One zreach() per 15 64-event batches on the same bounded n = 8 engine
// and lossless stream as BM_OnlineRecoveryQuery. pick(engine, src) names
// the pair, the sources cycling over the processes. Only the query is
// timed: one walk of the published logs. hits counts the queries that
// found a Z-path, answered those that were not kInvalid.
template <typename Pick>
void time_zreach(benchmark::State& state, Pick pick) {
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kBatchesPerQuery = 15;
  const std::vector<StreamEvent> ops = serve_stream(0.0);
  const std::span<const StreamEvent> all(ops);
  const EngineOptions options{8, RetentionPolicy::bounded(65536)};
  OnlineEngine engine(options);
  std::size_t at = 0;
  ProcessId src = 0;
  long long hits = 0;
  long long answered = 0;
  for (auto _ : state) {
    for (std::size_t b = 0; b < kBatchesPerQuery; ++b) {
      if (at + kBatch > all.size()) {
        engine.reset(options);
        at = 0;
      }
      engine.feed(all.subspan(at, kBatch));
      at += kBatch;
    }
    src = (src + 1) % options.num_processes;
    const auto [from, to] = pick(engine, src);
    const auto t0 = std::chrono::steady_clock::now();
    const ZreachResult r = engine.zreach(from, to);
    const auto t1 = std::chrono::steady_clock::now();
    hits += r.value ? 1 : 0;
    answered += r.ok() ? 1 : 0;
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.counters["hits"] = static_cast<double>(hits);
  state.counters["answered"] = static_cast<double>(answered);
}

// From the oldest retained checkpoint of one process to the last durable
// checkpoint of the next; nearly every query finds a Z-path early.
void BM_OnlineZreach(benchmark::State& state) {
  time_zreach(state, [](const OnlineEngine& engine, ProcessId src) {
    const ProcessId dst = (src + 1) % engine.num_processes();
    return std::pair{CkptId{src, engine.first_retained(src)},
                     CkptId{dst, engine.current_interval(dst) - 1}};
  });
}

// The miss case: from C_{p,h+1} back to C_{p,h}, h = first_retained(p).
// Such a Z-path would be a Z-cycle through C_{p,h}, and BHMR's patterns
// are RDT, so they have none: every answer is false (hits reads 0), and
// each answered query walks every state C_{p,h+1} reaches, nearly the
// whole retained window. The walk's worst case.
void BM_OnlineZreachMiss(benchmark::State& state) {
  time_zreach(state, [](const OnlineEngine& engine, ProcessId src) {
    const CkptIndex h = engine.first_retained(src);
    return std::pair{CkptId{src, h + 1}, CkptId{src, h}};
  });
}

// The serving engine's configuration: n = 8 under bounded(65536).
constexpr long long kServeCadence = 65536;

// Feed cost on a standalone bounded engine in 64-event batches, one batch
// per iteration, with the policy's automatic compaction amortised in. The
// per_event counter is the mean time of one event. The engine restarts
// from reset() (untimed) when the stream runs out.
void BM_OnlineFeed(benchmark::State& state) {
  constexpr std::size_t kBatch = 64;
  const std::vector<StreamEvent> ops = serve_stream(0.0);
  const std::span<const StreamEvent> all(ops);
  const EngineOptions options{8, RetentionPolicy::bounded(kServeCadence)};
  OnlineEngine engine(options);
  std::size_t at = 0;
  for (auto _ : state) {
    if (at + kBatch > all.size()) {
      state.PauseTiming();
      engine.reset(options);
      at = 0;
      state.ResumeTiming();
    }
    engine.feed(all.subspan(at, kBatch));
    at += kBatch;
  }
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatch,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["compactions"] =
      static_cast<double>(engine.retention_stats().compactions);
}

// One compaction pass after a full cadence: the engine is fed 65,536
// events with the automatic cadence off (untimed), then compact() alone is
// timed. The engine restarts from reset() when the stream runs out.
void BM_OnlineCompact(benchmark::State& state) {
  const std::vector<StreamEvent> ops = serve_stream(0.0);
  const std::span<const StreamEvent> all(ops);
  const EngineOptions options{8, RetentionPolicy::bounded(0)};
  OnlineEngine engine(options);
  const auto cadence = static_cast<std::size_t>(kServeCadence);
  std::size_t at = 0;
  for (auto _ : state) {
    if (at + cadence > all.size()) {
      engine.reset(options);
      at = 0;
    }
    engine.feed(all.subspan(at, cadence));
    at += cadence;
    const auto t0 = std::chrono::steady_clock::now();
    const bool evicted = engine.compact();
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(evicted);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.counters["evicted_checkpoints"] =
      static_cast<double>(engine.retention_stats().evicted_checkpoints);
}

// The first `events` events of the serving stream (no losses) as 64-event
// wire frames whose piggyback section carries each send's control data,
// encoded by BHMR's declared codec. One frame list per session id; every
// session gets the same events and sections, so the one generator-side
// encoder's channel shadows match each session codec's.
struct IngestFrames {
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;  // [session][k]
  std::size_t events_per_session = 0;
};

IngestFrames ingest_frames(int sessions, std::size_t events) {
  constexpr std::size_t kBatch = 64;
  std::vector<StreamEvent> ops = serve_stream(0.0);
  ops.resize(std::min(events, ops.size()));
  const std::span<const StreamEvent> all(ops);
  const std::vector<serve::PiggybackSection> sections =
      serve::build_piggyback_sections(all, ProtocolKind::kBhmr, 8, kBatch);
  IngestFrames out;
  out.frames.resize(static_cast<std::size_t>(sessions));
  out.events_per_session = ops.size();
  for (int s = 0; s < sessions; ++s) {
    for (std::size_t f = 0; f < sections.size(); ++f) {
      const std::size_t at = f * kBatch;
      serve::encode_frame(static_cast<serve::SessionId>(s + 1),
                          all.subspan(at, std::min(kBatch, all.size() - at)),
                          sections[f],
                          out.frames[static_cast<std::size_t>(s)].emplace_back());
    }
  }
  return out;
}

// ServePool ingest at serve_ingest's operating point: 2 shards, 16
// sessions, n = 8, bounded(65536), two cadences of pre-encoded frames per
// session submitted round-robin from this thread. Only submit-all plus
// drain() is timed; opening the sessions (recycled engines after the first
// iteration) and closing them are not. per_event is the timed wall time
// over the events submitted.
void BM_ServeIngest(benchmark::State& state) {
  constexpr int kSessions = 16;
  const IngestFrames in =
      ingest_frames(kSessions, 2 * static_cast<std::size_t>(kServeCadence));
  const auto& frames = in.frames;
  serve::ServePool pool(
      {.shards = 2,
       .num_processes = 8,
       .retention = RetentionPolicy::bounded(kServeCadence)});
  double timed_s = 0.0;
  for (auto _ : state) {
    for (serve::SessionId id = 1; id <= kSessions; ++id) pool.open_session(id);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t f = 0; f < frames.front().size(); ++f)
      for (const auto& session : frames) pool.submit(session[f]);
    pool.drain();
    const auto t1 = std::chrono::steady_clock::now();
    for (serve::SessionId id = 1; id <= kSessions; ++id) pool.close_session(id);
    pool.drain();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    timed_s += s;
    state.SetIterationTime(s);
  }
  const serve::ShardStats shard0 = pool.shard_stats(0);
  state.counters["per_event"] =
      timed_s * 1e9 /
      (static_cast<double>(state.iterations()) * kSessions *
       static_cast<double>(in.events_per_session));
  state.counters["frames_per_batch"] =
      static_cast<double>(shard0.frames) / static_cast<double>(shard0.batches);
}

}  // namespace

BENCHMARK_CAPTURE(BM_ProtocolReplay, nras, ProtocolKind::kNras)
    ->Arg(4)->Arg(16)->Arg(64);
BENCHMARK_CAPTURE(BM_ProtocolReplay, fdas, ProtocolKind::kFdas)
    ->Arg(4)->Arg(16)->Arg(64);
BENCHMARK_CAPTURE(BM_ProtocolReplay, bhmr, ProtocolKind::kBhmr)
    ->Arg(4)->Arg(16)->Arg(64);
BENCHMARK_CAPTURE(BM_ReplayDeclaredCodec, fdas, ProtocolKind::kFdas);
BENCHMARK_CAPTURE(BM_ReplayDeclaredCodec, bhmr, ProtocolKind::kBhmr);
BENCHMARK_CAPTURE(BM_ReplayDeclaredCodec, bhmr-v2, ProtocolKind::kBhmrC1Only);
BENCHMARK_CAPTURE(BM_CodecEncode, flat, PiggybackCodecKind::kFlat);
BENCHMARK_CAPTURE(BM_CodecEncode, delta, PiggybackCodecKind::kDelta);
BENCHMARK_CAPTURE(BM_CodecEncode, sparse, PiggybackCodecKind::kSparse);
BENCHMARK_CAPTURE(BM_CodecDecode, flat, PiggybackCodecKind::kFlat);
BENCHMARK_CAPTURE(BM_CodecDecode, delta, PiggybackCodecKind::kDelta);
BENCHMARK_CAPTURE(BM_CodecDecode, sparse, PiggybackCodecKind::kSparse);
BENCHMARK(BM_TdvReplay)->Arg(100)->Arg(400);
BENCHMARK(BM_ChainAnalysis)->Arg(100)->Arg(400);
BENCHMARK(BM_RGraphClosure)->Arg(100)->Arg(400);
BENCHMARK(BM_ChainAnalysisBhmr);
BENCHMARK(BM_RGraphClosureBhmr);
BENCHMARK(BM_CheckDefinitional);
BENCHMARK(BM_JunctionFamilies);
BENCHMARK(BM_FullRdtReport)->Arg(50)->Arg(150);
BENCHMARK(BM_RecoveryLineFixpoint)->Arg(100)->Arg(400);
BENCHMARK(BM_RecoveryLineRGraph)->Arg(100)->Arg(400);
// A fixed query count: with manual time, --benchmark_min_time would count
// only the timed queries and feed tens of millions of untimed events.
BENCHMARK_CAPTURE(BM_OnlineRecoveryQuery, lossless, 0.0)
    ->UseManualTime()->Iterations(3000);
BENCHMARK_CAPTURE(BM_OnlineRecoveryQuery, lossy, 0.001)
    ->UseManualTime()->Iterations(3000);
BENCHMARK(BM_OnlineZreach)->UseManualTime()->Iterations(3000);
BENCHMARK(BM_OnlineZreachMiss)->UseManualTime()->Iterations(3000);
BENCHMARK(BM_OnlineFeed);
// Fixed like the recovery query: each timed pass feeds a cadence untimed.
BENCHMARK(BM_OnlineCompact)->UseManualTime()->Iterations(200);
BENCHMARK(BM_ServeIngest)->UseManualTime();

BENCHMARK_MAIN();
