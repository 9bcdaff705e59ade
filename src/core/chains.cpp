#include "core/chains.hpp"

#include <algorithm>
#include <chrono>

#include "util/check.hpp"
#include "util/scc.hpp"

namespace rdt {

ChainAnalysis::ChainAnalysis(const Pattern& pattern) : pattern_(&pattern) {
  const auto nodes = static_cast<std::size_t>(pattern.total_ckpts());
  const auto msgs = static_cast<std::size_t>(pattern.num_messages());
  const auto n = static_cast<std::size_t>(pattern.num_processes());
  causal_starts_.assign(msgs, BitVector(nodes));
  simple_causal_starts_.assign(msgs, BitVector(nodes));

  // Sweep the computation once in a causality-consistent order. Per process
  // we keep
  //  * acc_causal — the union of causal_starts over every message delivered
  //    so far (any such delivery may precede a later send, forming a causal
  //    junction);
  //  * acc_simple — the same union restricted to the current interval's
  //    deliveries (simple junctions must not cross a checkpoint);
  //  * open_sends — sends of the current interval, each of which forms a
  //    non-causal junction with every later delivery in the interval.
  std::vector<BitVector> acc_causal(n, BitVector(nodes));
  std::vector<BitVector> acc_simple(n, BitVector(nodes));
  std::vector<std::vector<MsgId>> open_sends(n);

  for (const EventRef& e : pattern.topological_order()) {
    const auto p = static_cast<std::size_t>(e.process);
    const Event& ev = pattern.event(e);
    switch (ev.kind) {
      case EventKind::kSend: {
        const Message& m = pattern.message(ev.msg);
        const auto self = static_cast<std::size_t>(
            pattern.node_id({m.sender, m.send_interval}));
        auto& cs = causal_starts_[static_cast<std::size_t>(ev.msg)];
        cs = acc_causal[p];
        cs.set(self);
        auto& ss = simple_causal_starts_[static_cast<std::size_t>(ev.msg)];
        ss = acc_simple[p];
        ss.set(self);
        open_sends[p].push_back(ev.msg);
        break;
      }
      case EventKind::kDeliver: {
        for (MsgId out : open_sends[p])
          noncausal_.push_back({ev.msg, out, e.process});
        acc_causal[p].merge(causal_starts_[static_cast<std::size_t>(ev.msg)]);
        acc_simple[p].merge(
            simple_causal_starts_[static_cast<std::size_t>(ev.msg)]);
        break;
      }
      case EventKind::kCheckpoint:
        acc_simple[p].reset();
        open_sends[p].clear();
        break;
      case EventKind::kInternal:
        break;
    }
  }

  // Per-process maxima of the start bitsets (O(1) doubling queries later).
  // Node ids are process-major, so the highest start of P_k is the highest
  // set bit inside k's node range: one backward word scan per range.
  max_causal_start_.assign(msgs * n, 0);
  max_simple_start_.assign(msgs * n, 0);
  const auto collect = [&](const BitVector& bits, CkptIndex* out) {
    for (ProcessId k = 0; k < pattern.num_processes(); ++k) {
      const auto lo = static_cast<std::size_t>(pattern.node_id({k, 0}));
      const auto hi = lo + static_cast<std::size_t>(pattern.num_ckpts(k));
      const std::size_t top = bits.find_last(lo, hi);
      if (top != hi)
        out[static_cast<std::size_t>(k)] = static_cast<CkptIndex>(top - lo);
    }
  };
  for (std::size_t m = 0; m < msgs; ++m) {
    collect(causal_starts_[m], &max_causal_start_[m * n]);
    collect(simple_causal_starts_[m], &max_simple_start_[m * n]);
  }

  // The junction-graph CSR. Messages carry increasing send positions per
  // sender (PatternBuilder appends events in order), so iterating by id
  // yields position-sorted per-process send lists for free.
  sends_by_proc_.resize(n);
  for (const Message& m : pattern.messages())
    sends_by_proc_[static_cast<std::size_t>(m.sender)].push_back(m.id);

  // Successor ranges. Every junction successor of m is a send of its
  // receiver r: non-causal ones are the sends of interval deliver_interval(m)
  // before the delivery, causal ones every send after it. Sends before the
  // delivery lie in intervals <= deliver_interval(m), so both sets together
  // form the contiguous suffix starting at r's first send of that interval.
  succ_begin_.assign(msgs, 0);
  succ_causal_begin_.assign(msgs, 0);
  for (const Message& m : pattern.messages()) {
    const auto& sends = sends_by_proc_[static_cast<std::size_t>(m.receiver)];
    const auto interval_lo = std::partition_point(
        sends.begin(), sends.end(), [&](MsgId s) {
          return pattern.message(s).send_interval < m.deliver_interval;
        });
    const auto after_delivery = std::partition_point(
        interval_lo, sends.end(), [&](MsgId s) {
          return pattern.message(s).send_pos < m.deliver_pos;
        });
    const auto id = static_cast<std::size_t>(m.id);
    succ_begin_[id] =
        static_cast<std::size_t>(interval_lo - sends.begin());
    succ_causal_begin_[id] =
        static_cast<std::size_t>(after_delivery - sends.begin());
    edges_ += static_cast<long long>(sends.size() - succ_begin_[id]);
    causal_edges_ +=
        static_cast<long long>(sends.size() - succ_causal_begin_[id]);
  }

  if constexpr (kAuditsEnabled) {
    // Every recorded non-causal junction must satisfy its own definition.
    for (const NonCausalJunction& j : noncausal_) {
      RDT_AUDIT(noncausal_junction(j.incoming, j.outgoing),
                "recorded non-causal junction violates Definition 3.1");
      RDT_AUDIT(pattern.message(j.incoming).receiver == j.at,
                "non-causal junction recorded at the wrong process");
    }
  }
}

bool ChainAnalysis::junction(MsgId a, MsgId b) const {
  return causal_junction(a, b) || noncausal_junction(a, b);
}

bool ChainAnalysis::causal_junction(MsgId a, MsgId b) const {
  const Message& ma = pattern_->message(a);
  const Message& mb = pattern_->message(b);
  return ma.receiver == mb.sender && ma.deliver_pos < mb.send_pos;
}

bool ChainAnalysis::noncausal_junction(MsgId a, MsgId b) const {
  const Message& ma = pattern_->message(a);
  const Message& mb = pattern_->message(b);
  return ma.receiver == mb.sender && mb.send_pos < ma.deliver_pos &&
         ma.deliver_interval == mb.send_interval;
}

const BitVector& ChainAnalysis::causal_starts(MsgId m) const {
  RDT_REQUIRE(m >= 0 && m < pattern_->num_messages(), "message id out of range");
  return causal_starts_[static_cast<std::size_t>(m)];
}

const BitVector& ChainAnalysis::simple_causal_starts(MsgId m) const {
  RDT_REQUIRE(m >= 0 && m < pattern_->num_messages(), "message id out of range");
  return simple_causal_starts_[static_cast<std::size_t>(m)];
}

bool ChainAnalysis::causal_start_at_or_after(MsgId m, ProcessId k,
                                             CkptIndex z) const {
  return max_causal_start(m, k) >= std::max<CkptIndex>(z, 1);
}

bool ChainAnalysis::simple_causal_start_at_or_after(MsgId m, ProcessId k,
                                                    CkptIndex z) const {
  return max_simple_start(m, k) >= std::max<CkptIndex>(z, 1);
}

CkptIndex ChainAnalysis::max_causal_start(MsgId m, ProcessId k) const {
  RDT_REQUIRE(m >= 0 && m < pattern_->num_messages(), "message id out of range");
  RDT_REQUIRE(k >= 0 && k < pattern_->num_processes(), "process id out of range");
  const auto n = static_cast<std::size_t>(pattern_->num_processes());
  return max_causal_start_[static_cast<std::size_t>(m) * n +
                           static_cast<std::size_t>(k)];
}

CkptIndex ChainAnalysis::max_simple_start(MsgId m, ProcessId k) const {
  RDT_REQUIRE(m >= 0 && m < pattern_->num_messages(), "message id out of range");
  RDT_REQUIRE(k >= 0 && k < pattern_->num_processes(), "process id out of range");
  const auto n = static_cast<std::size_t>(pattern_->num_processes());
  return max_simple_start_[static_cast<std::size_t>(m) * n +
                           static_cast<std::size_t>(k)];
}

std::pair<std::size_t, std::size_t> ChainAnalysis::succ_range(
    MsgId m, bool causal_only) const {
  const auto id = static_cast<std::size_t>(m);
  const auto& sends = sends_by_proc_[static_cast<std::size_t>(
      pattern_->message(m).receiver)];
  return {causal_only ? succ_causal_begin_[id] : succ_begin_[id], sends.size()};
}

void ChainAnalysis::build_zreach(bool causal_only) const {
  const auto t0 = std::chrono::steady_clock::now();
  const int msgs = pattern_->num_messages();
  ZReachTable& table = zreach_[causal_only ? 1 : 0];

  // Condense the implicit CSR; component ids come out reverse-topological.
  const int num_comps = strongly_connected_components(
      msgs, [&](MsgId v) { return succ_range(v, causal_only); },
      [&](MsgId v, std::size_t i) {
        return sends_by_proc_[static_cast<std::size_t>(
            pattern_->message(v).receiver)][i];
      },
      table.comp);

  // One reverse-topological word-parallel sweep: a component reaches its
  // members' own delivery intervals plus everything its successor
  // components reach — and those rows are already final.
  std::vector<std::vector<MsgId>> members(static_cast<std::size_t>(num_comps));
  for (MsgId m = 0; m < msgs; ++m)
    members[static_cast<std::size_t>(table.comp[static_cast<std::size_t>(m)])]
        .push_back(m);
  table.rows.assign(static_cast<std::size_t>(num_comps),
                    BitVector(static_cast<std::size_t>(pattern_->total_ckpts())));
  int largest = 0;
  for (int c = 0; c < num_comps; ++c) {
    BitVector& row = table.rows[static_cast<std::size_t>(c)];
    const auto& group = members[static_cast<std::size_t>(c)];
    largest = std::max(largest, static_cast<int>(group.size()));
    for (MsgId m : group) {
      const Message& msg = pattern_->message(m);
      row.set(static_cast<std::size_t>(
          pattern_->node_id({msg.receiver, msg.deliver_interval})));
      const auto& sends =
          sends_by_proc_[static_cast<std::size_t>(msg.receiver)];
      const auto [begin, end] = succ_range(m, causal_only);
      for (std::size_t i = begin; i < end; ++i) {
        const int sc = table.comp[static_cast<std::size_t>(sends[i])];
        if (sc != c) row.merge(table.rows[static_cast<std::size_t>(sc)]);
      }
    }
  }
  table.largest_scc = largest;
  table.sweep_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - t0)
          .count();

  if constexpr (kAuditsEnabled) {
    // Cross-validate the condensed reachability table against find_chain's
    // independent BFS over the CSR adjacency, for every interval pair. The
    // table is read directly (not through zreach(), whose call_once we are
    // inside). Bounded to small patterns: the sweep is quadratic in the
    // checkpoint count.
    if (pattern_->total_ckpts() <= 64 && msgs <= 256) {
      const auto table_says = [&](const IntervalId& from, const IntervalId& to) {
        const auto target =
            static_cast<std::size_t>(pattern_->node_id({to.process, to.index}));
        const auto& sends =
            sends_by_proc_[static_cast<std::size_t>(from.process)];
        const auto lo = std::partition_point(
            sends.begin(), sends.end(), [&](MsgId s) {
              return pattern_->message(s).send_interval < from.index;
            });
        for (auto it = lo; it != sends.end() &&
                           pattern_->message(*it).send_interval == from.index;
             ++it)
          if (table.rows[static_cast<std::size_t>(
                             table.comp[static_cast<std::size_t>(*it)])]
                  .get(target))
            return true;
        return false;
      };
      for (ProcessId k = 0; k < pattern_->num_processes(); ++k)
        for (CkptIndex z = 1; z <= pattern_->last_ckpt(k); ++z)
          for (ProcessId j = 0; j < pattern_->num_processes(); ++j)
            for (CkptIndex y = 1; y <= pattern_->last_ckpt(j); ++y) {
              const IntervalId from{k, z};
              const IntervalId to{j, y};
              RDT_AUDIT(table_says(from, to) ==
                            find_chain(from, to, causal_only).has_value(),
                        "SCC-condensed Z-path reachability disagrees with the "
                        "BFS witness search");
            }
    }
  }
}

const ChainAnalysis::ZReachTable& ChainAnalysis::zreach(bool causal_only) const {
  std::call_once(zreach_once_[causal_only ? 1 : 0],
                 [&] { build_zreach(causal_only); });
  return zreach_[causal_only ? 1 : 0];
}

ChainAnalysis::ZReachStats ChainAnalysis::zreach_stats() const {
  const ZReachTable& table = zreach(/*causal_only=*/false);
  ZReachStats stats;
  stats.edges = edges_;
  stats.causal_edges = causal_edges_;
  stats.sccs = static_cast<int>(table.rows.size());
  stats.largest_scc = table.largest_scc;
  stats.sweep_ms = table.sweep_ms;
  return stats;
}

std::optional<std::vector<MsgId>> ChainAnalysis::find_chain(
    const IntervalId& from, const IntervalId& to, bool causal_only) const {
  RDT_REQUIRE(from.index >= 1 && from.index <= pattern_->last_ckpt(from.process),
              "source interval out of range");
  RDT_REQUIRE(to.index >= 1 && to.index <= pattern_->last_ckpt(to.process),
              "target interval out of range");

  // BFS over the junction-graph CSR; a message is a goal when its delivery
  // lands exactly in the target interval. Because each node's successors are
  // a suffix of its receiver's send list, a per-process skip structure
  // (pointer jumping over already-enqueued sends) makes the whole search
  // near-linear instead of O(M) per dequeued message.
  const auto msgs = static_cast<std::size_t>(pattern_->num_messages());
  std::vector<MsgId> parent(msgs, kNoMsg);
  std::vector<char> visited(msgs, 0);
  std::vector<std::vector<std::size_t>> skip(sends_by_proc_.size());
  for (std::size_t p = 0; p < skip.size(); ++p) {
    skip[p].resize(sends_by_proc_[p].size() + 1);
    for (std::size_t i = 0; i < skip[p].size(); ++i) skip[p][i] = i;
  }
  // Smallest index >= i whose send is not yet enqueued (with path
  // compression); enqueueing send i sets skip[i] = i + 1.
  const auto next_unvisited = [](std::vector<std::size_t>& sk, std::size_t i) {
    std::size_t root = i;
    while (sk[root] != root) root = sk[root];
    while (sk[i] != root) {
      const std::size_t up = sk[i];
      sk[i] = root;
      i = up;
    }
    return root;
  };

  std::vector<MsgId> queue;
  {
    const auto p = static_cast<std::size_t>(from.process);
    const auto& sends = sends_by_proc_[p];
    const auto lo = std::partition_point(
        sends.begin(), sends.end(), [&](MsgId s) {
          return pattern_->message(s).send_interval < from.index;
        });
    const auto hi = std::partition_point(lo, sends.end(), [&](MsgId s) {
      return pattern_->message(s).send_interval == from.index;
    });
    for (auto it = lo; it != hi; ++it) {
      const auto id = static_cast<std::size_t>(*it);
      visited[id] = 1;
      skip[p][static_cast<std::size_t>(it - sends.begin())] =
          static_cast<std::size_t>(it - sends.begin()) + 1;
      queue.push_back(*it);
    }
  }

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const MsgId cur = queue[head];
    const Message& mc = pattern_->message(cur);
    if (mc.receiver == to.process && mc.deliver_interval == to.index) {
      std::vector<MsgId> chain;
      for (MsgId m = cur; m != kNoMsg; m = parent[static_cast<std::size_t>(m)])
        chain.push_back(m);
      std::reverse(chain.begin(), chain.end());
      return chain;
    }
    const auto r = static_cast<std::size_t>(mc.receiver);
    const auto& sends = sends_by_proc_[r];
    const auto [begin, end] = succ_range(cur, causal_only);
    for (std::size_t i = next_unvisited(skip[r], begin); i < end;
         i = next_unvisited(skip[r], i + 1)) {
      const MsgId next = sends[i];
      visited[static_cast<std::size_t>(next)] = 1;
      skip[r][i] = i + 1;
      parent[static_cast<std::size_t>(next)] = cur;
      queue.push_back(next);
    }
  }
  return std::nullopt;
}

bool ChainAnalysis::zpath_between_intervals(const IntervalId& from,
                                            const IntervalId& to,
                                            bool causal_only) const {
  RDT_REQUIRE(from.index >= 1 && from.index <= pattern_->last_ckpt(from.process),
              "source interval out of range");
  RDT_REQUIRE(to.index >= 1 && to.index <= pattern_->last_ckpt(to.process),
              "target interval out of range");
  const ZReachTable& table = zreach(causal_only);
  const auto target =
      static_cast<std::size_t>(pattern_->node_id({to.process, to.index}));
  const auto& sends =
      sends_by_proc_[static_cast<std::size_t>(from.process)];
  const auto lo = std::partition_point(
      sends.begin(), sends.end(), [&](MsgId s) {
        return pattern_->message(s).send_interval < from.index;
      });
  for (auto it = lo; it != sends.end() &&
                     pattern_->message(*it).send_interval == from.index;
       ++it)
    if (table.rows[static_cast<std::size_t>(
                       table.comp[static_cast<std::size_t>(*it)])]
            .get(target))
      return true;
  return false;
}

}  // namespace rdt
