#include "protocols/adaptive.hpp"

#include "obs/hooks.hpp"
#include "protocols/bhmr.hpp"
#include "util/check.hpp"

namespace rdt {

AdaptiveProtocol::AdaptiveProtocol(int num_processes, ProcessId self)
    : CicProtocol(num_processes, self),
      simple_(static_cast<std::size_t>(num_processes)),
      causal_(static_cast<std::size_t>(num_processes),
              static_cast<std::size_t>(num_processes)) {
  // Same (S0) state as full BHMR: simple[i] true, causal diagonal true.
  simple_.set(static_cast<std::size_t>(self));
  causal_.set_diagonal(true);
}

ForceReason AdaptiveProtocol::force_reason(const PiggybackView& msg,
                                           ProcessId) const {
  if (mode_ == Mode::kLean) {
    // FDAS's predicate; proven to fire whenever BHMR's C1 v C2 would.
    return after_first_send() && brings_new_dependency(msg)
               ? ForceReason::kNewDependency
               : ForceReason::kNone;
  }
  bhmr::require_shape(msg, static_cast<std::size_t>(n_), /*with_simple=*/true);
  if (bhmr::c1(msg, tdv_, sent_to())) return ForceReason::kC1;
  const auto self = static_cast<std::size_t>(self_);
  return msg.tdv[self] == tdv_[self] && !msg.simple.get(self)
             ? ForceReason::kC2
             : ForceReason::kNone;
}

void AdaptiveProtocol::fill_payload(const PiggybackSlot& out) const {
  ++window_sends_;
  if (mode_ == Mode::kRich) {
    out.simple.assign(simple_);
    out.causal.assign(causal_.view());
    return;
  }
  // Lean mode: claim no knowledge. Receivers treat the zero planes as
  // "nothing is trackable / no chain is simple" and force more often —
  // the sound direction — while the delta codec transmits a near-empty
  // payload on a stable channel.
  out.simple.reset();
  for (std::size_t r = 0; r < out.causal.rows(); ++r) out.causal.row(r).reset();
}

void AdaptiveProtocol::merge_payload(const PiggybackView& msg,
                                     ProcessId sender) {
  bhmr::require_shape(msg, static_cast<std::size_t>(n_), /*with_simple=*/true);
  // Full BHMR bookkeeping in both modes (against the pre-merge TDV) so a
  // later switch to kRich is sound.
  bhmr::merge(msg, tdv_, static_cast<std::size_t>(self_),
              static_cast<std::size_t>(sender), /*with_simple=*/true, simple_,
              causal_);
  ++window_delivers_;
  maybe_switch();
}

void AdaptiveProtocol::reset_on_checkpoint(bool /*forced*/) {
  bhmr::reset_on_checkpoint(static_cast<std::size_t>(self_), simple_, causal_);
}

void AdaptiveProtocol::maybe_switch() {
  if (window_sends_ + window_delivers_ < kWindow) return;
  // Observed traffic shape over the closing window.
  const bool send_heavy = window_sends_ >= kSendHeavyRatio * window_delivers_;
  const std::size_t known = causal_.count();
  const auto cells =
      static_cast<long long>(causal_.rows() * causal_.cols());
  const bool sparse = static_cast<long long>(known) * kSparseDivisor < cells;
  const Mode want = (send_heavy || sparse) ? Mode::kLean : Mode::kRich;
  if (want != mode_) {
    mode_ = want;
    if (want == Mode::kLean) {
      ++to_lean_;
      RDT_COUNT("protocol.adaptive.to_lean");
    } else {
      ++to_rich_;
      RDT_COUNT("protocol.adaptive.to_rich");
    }
  }
  window_sends_ = 0;
  window_delivers_ = 0;
}

}  // namespace rdt
