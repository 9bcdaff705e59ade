#include "core/characterizations.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <vector>

#include "rgraph/zigzag.hpp"
#include "util/check.hpp"

namespace rdt {

std::string RdtViolation::describe() const {
  std::ostringstream os;
  os << "dependency " << from << " -> " << to << " is not on-line trackable";
  if (junction) {
    os << " (witness: non-causal junction at P" << junction->at << ": m"
       << junction->outgoing << " sent before m" << junction->incoming
       << " was delivered)";
  }
  return os.str();
}

const ChainAnalysis& RdtAnalyses::chains() const {
  std::call_once(chains_once_, [&] { chains_.emplace(*pattern_); });
  return *chains_;
}

const ReachabilityClosure& RdtAnalyses::closure() const {
  std::call_once(closure_once_, [&] {
    rgraph_.emplace(*pattern_);
    closure_.emplace(*rgraph_);
  });
  return *closure_;
}

namespace {

// popcount(a & b) over two spans of equal width.
std::size_t count_and(ConstBitSpan a, ConstBitSpan b) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < a.num_words(); ++w)
    total += static_cast<std::size_t>(
        __builtin_popcountll(a.words()[w] & b.words()[w]));
  return total;
}

// Lowest set bit of a & ~b, or a.size() when a is a subset of b.
std::size_t first_and_not(ConstBitSpan a, ConstBitSpan b) {
  for (std::size_t w = 0; w < a.num_words(); ++w)
    if (const std::uint64_t rest = a.words()[w] & ~b.words()[w]; rest != 0)
      return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(rest));
  return a.size();
}

// Charges `checked` paths, `satisfied` of them holding, to `result`; on
// the first violation `witness()` names the failing path.
template <typename Witness>
void charge(CheckResult& result, long long checked, long long satisfied,
            Witness&& witness) {
  result.paths_checked += checked;
  result.paths_satisfied += satisfied;
  if (satisfied != checked && result.ok) {
    result.ok = false;
    result.witness = witness();
  }
}

// Charges every set bit of `paths` as one path, satisfied iff it lies in
// `ok`. The witness is the lowest failing bit, passed to `witness(node)` —
// the path a bit-by-bit scan in ascending node order would report first.
template <typename Witness>
void charge_set(CheckResult& result, ConstBitSpan paths, ConstBitSpan ok,
                Witness&& witness) {
  charge(result, static_cast<long long>(paths.count()),
         static_cast<long long>(count_and(paths, ok)),
         [&] { return witness(first_and_not(paths, ok)); });
}

}  // namespace

// Along each P_j, TDV_{j,y}[i] never decreases as y grows, so the targets
// C_{i,x} can track form one suffix of every process's node range: y >= x
// on P_i itself, y >= the first y with TDV_{j,y}[i] >= x elsewhere. Those
// suffix starts only grow with x, so one cursor per target process covers
// all of P_i's rows, and each row is charged with two masked popcounts.
CheckResult check_rdt_definitional(const RdtAnalyses& a) {
  const Pattern& p = a.pattern();
  const ReachabilityClosure& closure = a.closure();
  const TdvAnalysis& tdv = a.tdv();
  const int n = p.num_processes();
  if constexpr (kAuditsEnabled)
    for (ProcessId j = 0; j < n; ++j)
      for (CkptIndex y = 1; y <= p.last_ckpt(j); ++y)
        for (ProcessId i = 0; i < n; ++i)
          RDT_AUDIT(tdv.at_ckpt({j, y})[static_cast<std::size_t>(i)] >=
                        tdv.at_ckpt({j, y - 1})[static_cast<std::size_t>(i)],
                    "saved TDVs decrease along a process");

  CheckResult result;
  BitVector trackable(static_cast<std::size_t>(p.total_ckpts()));
  std::vector<CkptIndex> first(static_cast<std::size_t>(n));
  for (ProcessId i = 0; i < n; ++i) {
    std::fill(first.begin(), first.end(), 0);
    for (CkptIndex x = 0; x <= p.last_ckpt(i); ++x) {
      trackable.reset();
      for (ProcessId j = 0; j < n; ++j) {
        CkptIndex& y = first[static_cast<std::size_t>(j)];
        if (j == i) {
          y = x;
        } else {
          while (y <= p.last_ckpt(j) &&
                 tdv.at_ckpt({j, y})[static_cast<std::size_t>(i)] < x)
            ++y;
        }
        const auto lo = static_cast<std::size_t>(p.node_id({j, 0}));
        trackable.set_range(lo + static_cast<std::size_t>(y),
                            lo + static_cast<std::size_t>(p.num_ckpts(j)));
      }
      const CkptId from{i, x};
      charge_set(result, closure.msg_reach_row(p.node_id(from)), trackable,
                 [&](std::size_t v) {
                   return RdtViolation{from, p.node_ckpt(static_cast<int>(v)),
                                       std::nullopt};
                 });
    }
  }
  return result;
}

namespace {

enum class Family { kMm, kCm, kPcm };
enum class Doubling { kAny, kVisible };

struct JunctionQuery {
  Family family;
  Doubling mode;
  CheckResult* out;
};

// Shared engine for the junction-based checkers. For every non-causal
// junction (m_c delivered at P_i after m' was sent to P_j in the same
// interval) and every admissible start checkpoint C_{k,z} of the chain
// prefix ending at m_c, the induced path C_{k,z} -> C_{j,y} must be doubled
// (resp. visibly doubled). Evaluating all queries in one sweep lets the
// families share the per-junction doubled-start masks and the visible-
// doubling scan, which dominate the cost; each query's counters and first
// witness are exactly what a standalone run would produce.
//
// For a fixed target C_{j,y} a start C_{k,z} is doubled iff z is at most a
// per-process limit (y on P_j itself, TDV_{j,y}[k] for plain doubling, the
// best visible start for visible doubling), so the doubled starts are one
// prefix of every process's node range and a CM or PCM start set is
// charged with two masked popcounts.
void run_junction_queries(const RdtAnalyses& a,
                          const std::vector<JunctionQuery>& queries) {
  const Pattern& p = a.pattern();
  const ChainAnalysis& chains = a.chains();
  const TdvAnalysis& tdv = a.tdv();
  const int n = p.num_processes();
  const auto nn = static_cast<std::size_t>(n);

  // Per doubling mode, for the current junction's target: limit[k] is the
  // highest doubled start index on P_k, and mask the same as node ranges
  // (built only when a CM or PCM query reads it).
  struct Doubled {
    bool want = false;
    bool want_mask = false;
    std::vector<CkptIndex> limit;
    BitVector mask;
  };
  Doubled doubled[2];  // [Doubling::kAny], [Doubling::kVisible]
  for (const JunctionQuery& q : queries) {
    Doubled& d = doubled[static_cast<int>(q.mode)];
    d.want = true;
    d.want_mask |= q.family != Family::kMm;
    d.limit.resize(nn);
  }
  for (Doubled& d : doubled)
    if (d.want_mask) d.mask = BitVector(static_cast<std::size_t>(p.total_ckpts()));
  Doubled& any = doubled[static_cast<int>(Doubling::kAny)];
  Doubled& visible = doubled[static_cast<int>(Doubling::kVisible)];

  // Messages to P_j from P_s, in send order, at index j * n + s, plus the
  // sender's own clock entry at every send, so the happened-before test
  // against a junction's delivery is one comparison.
  std::vector<std::vector<MsgId>> sent_to(visible.want ? nn * nn : 0);
  std::vector<std::int64_t> send_stamp;
  if (visible.want) {
    send_stamp.resize(static_cast<std::size_t>(p.num_messages()));
    for (const Message& m : p.messages()) {  // ids ascend in send order
      sent_to[static_cast<std::size_t>(m.receiver) * nn +
              static_cast<std::size_t>(m.sender)]
          .push_back(m.id);
      send_stamp[static_cast<std::size_t>(m.id)] =
          p.clock(m.send_event()).get(m.sender);
    }
    if constexpr (kAuditsEnabled)
      for (const auto& sends : sent_to)
        for (std::size_t i = 1; i < sends.size(); ++i)
          for (ProcessId k = 0; k < n; ++k)
            RDT_AUDIT(chains.max_causal_start(sends[i - 1], k) <=
                          chains.max_causal_start(sends[i], k),
                      "causal start maxima decrease along a sender's sends");
  }

  for (const NonCausalJunction& jn : chains.noncausal_junctions()) {
    const Message& mc = p.message(jn.incoming);
    const Message& mp = p.message(jn.outgoing);
    const ProcessId j = mp.receiver;
    const CkptIndex y = mp.deliver_interval;
    const CkptId target{j, y};

    if (any.want) any.limit = tdv.at_ckpt(target);

    // Visible doublings available at this junction: visible.limit[k] is the
    // highest z' such that a causal chain from C_{k,z'} reaches P_j at or
    // before C_{j,y} with its last send m2 in the causal past of the
    // decision point deliver(m_c). Along one sender's sends the start sets
    // only grow (each is the sender's accumulated deliveries plus its
    // current interval), so through sender s the best m2 is simply its last
    // send to P_j that precedes the decision point — a prefix of the send
    // list, as clock stamps increase along a process — and is delivered in
    // an interval <= y.
    if (visible.want) {
      std::fill(visible.limit.begin(), visible.limit.end(), 0);
      const VectorClock& at_decision = p.clock(mc.deliver_event());
      // happened_before(send(m2), deliver(m_c)).
      const auto precedes_decision = [&](MsgId m2) {
        const Message& msg = p.message(m2);
        return msg.sender == mc.receiver
                   ? msg.send_pos < mc.deliver_pos
                   : at_decision.get(msg.sender) >=
                         send_stamp[static_cast<std::size_t>(m2)];
      };
      for (ProcessId s = 0; s < n; ++s) {
        const auto& sends = sent_to[static_cast<std::size_t>(j) * nn +
                                    static_cast<std::size_t>(s)];
        auto end = std::partition_point(sends.begin(), sends.end(),
                                        precedes_decision);
        while (end != sends.begin() &&
               p.message(*std::prev(end)).deliver_interval > y)
          --end;
        if (end == sends.begin()) continue;
        const MsgId last = *std::prev(end);
        for (ProcessId k = 0; k < n; ++k) {
          CkptIndex& best = visible.limit[static_cast<std::size_t>(k)];
          best = std::max(best, chains.max_causal_start(last, k));
        }
      }
    }

    // Doubling on P_j itself is positional (P_j's own order is visible);
    // the doubled starts of every process form the prefix C_{k,0..limit}.
    for (Doubled& d : doubled) {
      if (!d.want) continue;
      d.limit[static_cast<std::size_t>(j)] = y;
      if (!d.want_mask) continue;
      d.mask.reset();
      for (ProcessId k = 0; k < n; ++k) {
        const auto lo = static_cast<std::size_t>(p.node_id({k, 0}));
        const CkptIndex top =
            std::min(d.limit[static_cast<std::size_t>(k)], p.last_ckpt(k));
        d.mask.set_range(lo, lo + static_cast<std::size_t>(top) + 1);
      }
    }

    for (const JunctionQuery& q : queries) {
      const Doubled& d = doubled[static_cast<int>(q.mode)];
      if (q.family == Family::kMm) {
        // MM checks the one start of the two-message chain.
        const CkptId start{mc.sender, mc.send_interval};
        const bool ok =
            start.index <= d.limit[static_cast<std::size_t>(start.process)];
        charge(*q.out, 1, ok ? 1 : 0,
               [&] { return RdtViolation{start, target, jn}; });
        continue;
      }
      charge_set(*q.out,
                 q.family == Family::kCm
                     ? chains.causal_starts(jn.incoming)
                     : chains.simple_causal_starts(jn.incoming),
                 d.mask, [&](std::size_t start) {
                   return RdtViolation{p.node_ckpt(static_cast<int>(start)),
                                       target, jn};
                 });
    }
  }
}

CheckResult check_junctions(const RdtAnalyses& a, Family family, Doubling mode) {
  CheckResult result;
  run_junction_queries(a, {{family, mode, &result}});
  return result;
}

}  // namespace

CheckResult check_cm_doubled(const RdtAnalyses& a) {
  return check_junctions(a, Family::kCm, Doubling::kAny);
}

CheckResult check_pcm_doubled(const RdtAnalyses& a) {
  return check_junctions(a, Family::kPcm, Doubling::kAny);
}

CheckResult check_mm_doubled(const RdtAnalyses& a) {
  return check_junctions(a, Family::kMm, Doubling::kAny);
}

CheckResult check_cm_visibly_doubled(const RdtAnalyses& a) {
  return check_junctions(a, Family::kCm, Doubling::kVisible);
}

CheckResult check_pcm_visibly_doubled(const RdtAnalyses& a) {
  return check_junctions(a, Family::kPcm, Doubling::kVisible);
}

JunctionReport check_junction_families(const RdtAnalyses& a) {
  JunctionReport report;
  run_junction_queries(a, {{Family::kCm, Doubling::kAny, &report.cm},
                           {Family::kPcm, Doubling::kAny, &report.pcm},
                           {Family::kMm, Doubling::kAny, &report.mm},
                           {Family::kCm, Doubling::kVisible, &report.vcm},
                           {Family::kPcm, Doubling::kVisible, &report.vpcm}});
  return report;
}

CheckResult check_no_z_cycle(const RdtAnalyses& a) {
  const Pattern& p = a.pattern();
  const ReachabilityClosure& closure = a.closure();
  CheckResult result;
  for (int node = 0; node < p.total_ckpts(); ++node) {
    const CkptId c = p.node_ckpt(node);
    ++result.paths_checked;
    if (!on_zigzag_cycle(closure, c)) {
      ++result.paths_satisfied;
    } else if (result.ok) {
      result.ok = false;
      result.witness = RdtViolation{c, c, std::nullopt};
    }
  }
  return result;
}

}  // namespace rdt
