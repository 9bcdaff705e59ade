#include "sim/replay.hpp"

#include <algorithm>
#include <string>

#include "ccp/audit.hpp"
#include "ccp/builder.hpp"
#include "core/tdv.hpp"
#include "obs/hooks.hpp"
#include "protocols/registry.hpp"
#include "sim/protocol_driver.hpp"
#include "util/check.hpp"

namespace rdt {

namespace {

// Audit-tier postconditions over a finished replay: the TDVs the protocol
// instances saved on the fly must equal the offline TdvAnalysis replay of
// the materialized pattern, and — for the RDT-ensuring protocols — every
// saved vector, read as the minimum global checkpoint of Corollary 4.5,
// must be consistent (the no-orphan postcondition).
void audit_replay_postconditions(const ReplayResult& result) {
  if constexpr (!kAuditsEnabled) return;
  const bool any_tdvs =
      std::any_of(result.saved_tdvs.begin(), result.saved_tdvs.end(),
                  [](const std::vector<Tdv>& row) { return !row.empty(); });
  if (!any_tdvs) return;

  const Pattern& p = result.pattern;
  const TdvAnalysis offline(p);
  const auto& rdt_kinds = rdt_protocol_kinds();
  const bool ensures_rdt =
      std::find(rdt_kinds.begin(), rdt_kinds.end(), result.kind) !=
      rdt_kinds.end();

  for (ProcessId i = 0; i < p.num_processes(); ++i) {
    const auto& row = result.saved_tdvs[static_cast<std::size_t>(i)];
    for (std::size_t x = 0; x < row.size(); ++x) {
      const CkptId c{i, static_cast<CkptIndex>(x)};
      RDT_AUDIT(row[x] == offline.at_ckpt(c),
                "protocol-saved TDV disagrees with the offline TdvAnalysis");
      if (ensures_rdt) {
        GlobalCkpt g;
        g.indices = row[x];
        g.indices[static_cast<std::size_t>(i)] = c.index;
        audit_consistent_global_ckpt(
            p, g, "a saved TDV of an RDT-ensuring protocol (Corollary 4.5)");
      }
    }
  }
}

// In an observability build with a session active, fold a finished replay's
// counters into the session registry, named per protocol id plus forcing
// predicate ("replay.bhmr.forced.c1", ...). Once per replay — the hot loop
// itself touches no registry state.
void flush_replay_metrics(const ReplayResult& result) {
  if constexpr (!obs::kObsEnabled) return;
  obs::ObsSession* session = obs::ObsSession::current();
  if (session == nullptr) return;
  auto& m = session->metrics();
  const std::string prefix =
      "replay." + ProtocolRegistry::instance().info(result.kind).id;
  m.add(m.counter(prefix + ".replays"), 1);
  m.add(m.counter(prefix + ".messages"), result.messages);
  m.add(m.counter(prefix + ".ckpt.basic"), result.basic);
  m.add(m.counter(prefix + ".ckpt.forced"), result.forced);
  for (std::size_t r = 1; r < kNumForceReasons; ++r) {
    if (result.forced_by_reason[r] == 0) continue;
    m.add(m.counter(prefix + ".forced." +
                    to_cstring(static_cast<ForceReason>(r))),
          result.forced_by_reason[r]);
  }
}

}  // namespace

ReplayResult replay(const Trace& trace, ProtocolKind kind,
                    const ReplayOptions& options) {
  RDT_REQUIRE(trace.num_processes >= 1, "empty trace");
  const ProtocolInfo& info = ProtocolRegistry::instance().info(kind);
  RDT_TRACE_SPAN("replay", "replay", "protocol", info.id.c_str());

  // Audit builds always materialize: the postconditions cross-check the
  // protocols' on-line state against the offline pattern analysis. An online
  // subscriber forces it too — the stream is the pattern being recorded.
  const bool materialize = options.materialize_pattern || kAuditsEnabled ||
                           options.online != nullptr;
  const auto num_messages = static_cast<std::size_t>(trace.num_messages());

  // Sizing the arena first rejects a process count the codec does not
  // accept before any protocol instance is built.
  PayloadArena local_arena;
  ProtocolDriver driver(
      kind, trace.num_processes, num_messages,
      options.wire_codec.value_or(info.codec_for(trace.num_processes)),
      options.arena ? *options.arena : local_arena, options.observer,
      /*save_tdv_history=*/materialize);

  PatternBuilder builder(trace.num_processes);  // cheap when unused
  builder.set_listener(options.online);

  ReplayResult result;
  result.kind = kind;
  result.pattern_built = materialize;
  result.messages = trace.num_messages();
  if (materialize) result.forced_ckpts.reserve(num_messages);

  for (const TraceOp& op : trace.ops) {
    const ProcessId p = op.process;
    switch (op.kind) {
      case TraceOpKind::kSend: {
        const TraceMessage& m = trace.messages[static_cast<std::size_t>(op.msg)];
        RDT_ASSERT(m.sender == p);
        const bool forced = driver.send(p, m.receiver, op.msg);
        if (!materialize) break;
        const MsgId id = builder.send(p, m.receiver);
        RDT_REQUIRE(id == op.msg, "a Trace numbers its messages in send order");
        if (forced) result.forced_ckpts.push_back({p, builder.checkpoint(p)});
        break;
      }
      case TraceOpKind::kDeliver: {
        const TraceMessage& m = trace.messages[static_cast<std::size_t>(op.msg)];
        RDT_ASSERT(m.receiver == p);
        const bool forced = driver.deliver(m.sender, p, op.msg);
        if (!materialize) break;
        if (forced) result.forced_ckpts.push_back({p, builder.checkpoint(p)});
        builder.deliver(op.msg);
        break;
      }
      case TraceOpKind::kBasicCkpt:
        driver.basic_checkpoint(p);
        if (materialize) builder.checkpoint(p);
        break;
    }
  }

  // The flat size is a per-replay constant, and every trace message is sent.
  result.flat_bits_total = info.shape.flat_bits(trace.num_processes) *
                           static_cast<unsigned long long>(num_messages);
  result.wire_bits_total = driver.wire_bits_total();
  result.forced_by_reason = driver.forced_by_reason();
  if (materialize) {
    result.pattern = builder.build();
    result.saved_tdvs.resize(static_cast<std::size_t>(trace.num_processes));
  }
  for (ProcessId i = 0; i < trace.num_processes; ++i) {
    const CicProtocol& p = driver.protocol(i);
    result.basic += p.basic_count();
    result.forced += p.forced_count();
    if (materialize && p.transmits_tdv()) {
      auto& row = result.saved_tdvs[static_cast<std::size_t>(i)];
      row.reserve(static_cast<std::size_t>(p.current_interval()));
      for (CkptIndex x = 0; x < p.current_interval(); ++x)
        row.push_back(p.saved_tdv(x));
    }
  }
  if constexpr (kAuditsEnabled) audit_replay_postconditions(result);
  flush_replay_metrics(result);
  return result;
}

}  // namespace rdt
