#include "core/tdv.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rdt {

TdvMachine::TdvMachine(int num_processes) { reset(num_processes); }

void TdvMachine::reset(int num_processes) {
  RDT_REQUIRE(num_processes >= 1, "need at least one process");
  n_ = static_cast<std::size_t>(num_processes);
  // S0: the initial checkpoint C_{i,0} saves the all-zero vector, then the
  // own entry becomes 1 — the index of I_{i,1}.
  current_.assign(n_ * n_, 0);
  for (std::size_t i = 0; i < n_; ++i) current_[i * n_ + i] = 1;
}

void TdvMachine::send(ProcessId sender, std::span<CkptIndex> piggyback) const {
  RDT_CHECK(piggyback.size() == n_,
            "piggyback TDV size disagrees with the machine's process count");
  const std::span<const CkptIndex> tdv = at(sender);
  std::copy(tdv.begin(), tdv.end(), piggyback.begin());
}

void TdvMachine::deliver(ProcessId receiver,
                         std::span<const CkptIndex> piggyback) {
  RDT_CHECK(piggyback.size() == n_,
            "piggybacked TDV size disagrees with the machine's process count");
  CkptIndex* tdv = current_.data() + static_cast<std::size_t>(receiver) * n_;
  for (std::size_t k = 0; k < n_; ++k)
    tdv[k] = std::max(tdv[k], piggyback[k]);
}

void TdvMachine::checkpoint(ProcessId p, std::span<CkptIndex> saved) {
  send(p, saved);
  ++current_[static_cast<std::size_t>(p) * n_ + static_cast<std::size_t>(p)];
}

TdvAnalysis::TdvAnalysis(const Pattern& pattern) : pattern_(&pattern) {
  const auto n = static_cast<std::size_t>(pattern.num_processes());
  ckpt_tdv_.assign(static_cast<std::size_t>(pattern.total_ckpts()), Tdv(n, 0));
  msg_tdv_.assign(static_cast<std::size_t>(pattern.num_messages()), Tdv(n, 0));

  // Batch = fold of the incremental step over the topological event order.
  // The machine starts past the initial checkpoints, whose saved vectors
  // are the all-zero ones the rows start out as.
  TdvMachine machine(pattern.num_processes());

  for (const EventRef& e : pattern.topological_order()) {
    const Event& ev = pattern.event(e);
    switch (ev.kind) {
      case EventKind::kSend:
        machine.send(e.process, msg_tdv_[static_cast<std::size_t>(ev.msg)]);
        break;
      case EventKind::kDeliver:
        machine.deliver(e.process, msg_tdv_[static_cast<std::size_t>(ev.msg)]);
        break;
      case EventKind::kCheckpoint:
        machine.checkpoint(e.process,
                           ckpt_tdv_[static_cast<std::size_t>(
                               pattern.node_id({e.process, ev.ckpt}))]);
        break;
      case EventKind::kInternal:
        break;
    }
  }

  if constexpr (kAuditsEnabled) audit_tdv_analysis(*this);
}

void audit_tdv_analysis(const TdvAnalysis& analysis) {
  if constexpr (!kAuditsEnabled) return;
  const Pattern& pattern = analysis.pattern();
  const auto n = static_cast<std::size_t>(pattern.num_processes());

  // The pre-split batch loop, verbatim: inline snapshot / merge / save with
  // no TdvMachine in sight — an independent derivation of every vector.
  std::vector<Tdv> ckpt_tdv(static_cast<std::size_t>(pattern.total_ckpts()));
  std::vector<Tdv> msg_tdv(static_cast<std::size_t>(pattern.num_messages()));
  std::vector<Tdv> current(n, Tdv(n, 0));
  for (ProcessId i = 0; i < pattern.num_processes(); ++i) {
    ckpt_tdv[static_cast<std::size_t>(pattern.node_id({i, 0}))] =
        current[static_cast<std::size_t>(i)];
    current[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 1;
  }
  for (const EventRef& e : pattern.topological_order()) {
    Tdv& tdv = current[static_cast<std::size_t>(e.process)];
    const Event& ev = pattern.event(e);
    switch (ev.kind) {
      case EventKind::kSend:
        msg_tdv[static_cast<std::size_t>(ev.msg)] = tdv;
        break;
      case EventKind::kDeliver: {
        const Tdv& piggy = msg_tdv[static_cast<std::size_t>(ev.msg)];
        for (std::size_t k = 0; k < n; ++k) tdv[k] = std::max(tdv[k], piggy[k]);
        break;
      }
      case EventKind::kCheckpoint:
        ckpt_tdv[static_cast<std::size_t>(
            pattern.node_id({e.process, ev.ckpt}))] = tdv;
        ++tdv[static_cast<std::size_t>(e.process)];
        break;
      case EventKind::kInternal:
        break;
    }
  }

  for (int node = 0; node < pattern.total_ckpts(); ++node)
    RDT_AUDIT(analysis.at_ckpt(pattern.node_ckpt(node)) ==
                  ckpt_tdv[static_cast<std::size_t>(node)],
              "machine-folded checkpoint TDV disagrees with the direct batch "
              "replay");
  for (MsgId m = 0; m < pattern.num_messages(); ++m)
    RDT_AUDIT(analysis.on_msg(m) == msg_tdv[static_cast<std::size_t>(m)],
              "machine-folded message TDV disagrees with the direct batch "
              "replay");
}

const Tdv& TdvAnalysis::at_ckpt(const CkptId& c) const {
  return ckpt_tdv_[static_cast<std::size_t>(pattern_->node_id(c))];
}

const Tdv& TdvAnalysis::on_msg(MsgId m) const {
  RDT_REQUIRE(m >= 0 && m < pattern_->num_messages(), "message id out of range");
  return msg_tdv_[static_cast<std::size_t>(m)];
}

bool TdvAnalysis::trackable(const CkptId& from, const CkptId& to) const {
  if (from.process == to.process) return from.index <= to.index;
  return at_ckpt(to)[static_cast<std::size_t>(from.process)] >= from.index;
}

GlobalCkpt TdvAnalysis::min_global_ckpt(const CkptId& c) const {
  GlobalCkpt g;
  g.indices = at_ckpt(c);
  g.indices[static_cast<std::size_t>(c.process)] = c.index;
  return g;
}

}  // namespace rdt
