// BhmrProtocol's word-parallel bookkeeping against the per-bit statements
// of the paper's Figure 6. The reference below keeps its own copy of a
// process's control state (TDV, sent_to, simple, causal) and updates it one
// bit at a time, exactly as the figure reads; random send / deliver /
// checkpoint sequences then drive both side by side for every variant at
// process counts on both sides of the 64-bit word boundaries. After every
// event the forcing predicate, simple_state() and causal_state() must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "protocols/bhmr.hpp"
#include "protocol_net.hpp"

namespace rdt {
namespace {

using Variant = BhmrProtocol::Variant;

// One process of the paper's protocol, bit by bit.
class ReferenceBhmr {
 public:
  ReferenceBhmr(int n, ProcessId self, Variant variant)
      : n_(static_cast<std::size_t>(n)),
        self_(static_cast<std::size_t>(self)),
        variant_(variant),
        tdv_(n_, 0),
        sent_to_(n_),
        simple_(n_),
        causal_(n_, n_) {
    tdv_[self_] = 1;
    simple_.set(self_);
    if (variant_ != Variant::kC1Only) causal_.set_diagonal(true);
  }

  const BitVector& simple() const { return simple_; }
  const BitMatrix& causal() const { return causal_; }
  const Tdv& tdv() const { return tdv_; }

  void on_send(std::size_t dest) { sent_to_.set(dest); }

  ForceReason force_reason(const PiggybackView& msg) const {
    if (predicate_c1(msg)) return ForceReason::kC1;
    switch (variant_) {
      case Variant::kFull:
        return msg.tdv[self_] == tdv_[self_] && !msg.simple.get(self_)
                   ? ForceReason::kC2
                   : ForceReason::kNone;
      case Variant::kNoSimple: {
        if (msg.tdv[self_] != tdv_[self_]) return ForceReason::kNone;
        for (std::size_t k = 0; k < msg.tdv.size(); ++k)
          if (msg.tdv[k] > tdv_[k]) return ForceReason::kC2;
        return ForceReason::kNone;
      }
      case Variant::kC1Only:
        return ForceReason::kNone;
    }
    return ForceReason::kNone;
  }

  void on_deliver(const PiggybackView& msg, std::size_t sender) {
    merge_payload(msg, sender);
    for (std::size_t k = 0; k < n_; ++k) tdv_[k] = std::max(tdv_[k], msg.tdv[k]);
  }

  void checkpoint() {
    ++tdv_[self_];
    sent_to_.reset();
    reset_on_checkpoint();
  }

 private:
  bool predicate_c1(const PiggybackView& msg) const {
    for (std::size_t j = sent_to_.find_next(0); j < sent_to_.size();
         j = sent_to_.find_next(j + 1)) {
      for (std::size_t k = 0; k < msg.tdv.size(); ++k)
        if (msg.tdv[k] > tdv_[k] && !msg.causal.get(k, j)) return true;
    }
    return false;
  }

  void merge_payload(const PiggybackView& msg, std::size_t sender) {
    const bool has_simple = variant_ == Variant::kFull;
    for (std::size_t k = 0; k < n_; ++k) {
      if (msg.tdv[k] > tdv_[k]) {
        if (has_simple) simple_.set(k, msg.simple.get(k));
        for (std::size_t j = 0; j < n_; ++j) causal_.set(k, j, msg.causal.get(k, j));
      } else if (msg.tdv[k] == tdv_[k]) {
        if (has_simple) simple_.set(k, simple_.get(k) && msg.simple.get(k));
        for (std::size_t j = 0; j < n_; ++j)
          if (msg.causal.get(k, j)) causal_.set(k, j, true);
      }
    }
    if (has_simple) simple_.set(self_);
    causal_.set(sender, self_, true);
    for (std::size_t l = 0; l < n_; ++l)
      if (causal_.get(l, sender)) causal_.set(l, self_, true);
    if (variant_ == Variant::kC1Only) causal_.set(self_, self_, false);
  }

  void reset_on_checkpoint() {
    for (std::size_t j = 0; j < n_; ++j) {
      if (j == self_) continue;
      simple_.set(j, false);
      causal_.set(self_, j, false);
    }
  }

  std::size_t n_;
  std::size_t self_;
  Variant variant_;
  Tdv tdv_;
  BitVector sent_to_;
  BitVector simple_;
  BitMatrix causal_;
};

struct InFlight {
  ProcessId src = 0;
  ProcessId dest = 0;
  MsgId id = 0;  // the payload's arena slot
};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kFull: return "full";
    case Variant::kNoSimple: return "no-simple";
    case Variant::kC1Only: return "c1-only";
  }
  return "?";
}

void expect_same_state(const BhmrProtocol& p, const ReferenceBhmr& ref,
                       const std::string& where) {
  ASSERT_EQ(p.tdv(), ref.tdv()) << where;
  ASSERT_TRUE(p.simple_state() == ref.simple()) << where << ": simple differs";
  ASSERT_TRUE(p.causal_state() == ref.causal()) << where << ": causal differs";
}

// Drives n protocol instances and their references through `events`
// random events. Deliveries take any in-flight message (channels are not
// FIFO), and one delivery in four carries a synthetic payload — TDV entries
// one below, at or one above the receiver's, and random bit planes — to
// reach predicate states real runs visit rarely.
// Returns how often each ForceReason fired.
std::vector<int> drive(Variant variant, int n, int events, std::uint64_t seed) {
  std::vector<int> fired(kNumForceReasons, 0);
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::unique_ptr<BhmrProtocol>> procs;
  std::vector<ReferenceBhmr> refs;
  for (ProcessId i = 0; i < n; ++i) {
    procs.push_back(std::make_unique<BhmrProtocol>(n, i, variant));
    // Synthetic payloads may name intervals no process has reached, which
    // the per-checkpoint TDV history rightly refuses; it is not under test.
    procs.back()->set_save_tdv_history(false);
    refs.emplace_back(n, i, variant);
  }
  // Every event stores at most one payload, each in a fresh slot.
  PayloadArena payloads = test::payload_slots(
      n, procs[0]->payload_shape(), static_cast<std::size_t>(events));
  MsgId next_id = 0;
  std::mt19937_64 rng(seed);
  auto pick = [&](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  std::vector<InFlight> in_flight;
  for (int e = 0; e < events; ++e) {
    const std::string where = std::string(variant_name(variant)) + " n=" +
                              std::to_string(n) + " event " + std::to_string(e);
    const std::size_t roll = pick(10);
    if (n >= 2 && roll < 4) {  // send
      const auto src = static_cast<ProcessId>(pick(un));
      auto dest = static_cast<ProcessId>(pick(un - 1));
      if (dest >= src) ++dest;
      const InFlight m{src, dest, next_id++};
      procs[static_cast<std::size_t>(src)]->on_send(dest, payloads.slot(m.id));
      refs[static_cast<std::size_t>(src)].on_send(static_cast<std::size_t>(dest));
      in_flight.push_back(m);
      expect_same_state(*procs[static_cast<std::size_t>(src)],
                        refs[static_cast<std::size_t>(src)], where);
    } else if (n >= 2 && roll < 8 && (!in_flight.empty() || roll == 7)) {
      InFlight m;
      if (roll == 7) {  // synthetic payload
        m.dest = static_cast<ProcessId>(pick(un));
        m.src = static_cast<ProcessId>(pick(un - 1));
        if (m.src >= m.dest) ++m.src;
        m.id = next_id++;
        const PiggybackSlot synthetic = payloads.slot(m.id);
        const Tdv& local = procs[static_cast<std::size_t>(m.dest)]->tdv();
        for (std::size_t k = 0; k < un; ++k)
          synthetic.tdv[k] = std::max<CkptIndex>(
              0, local[k] + static_cast<CkptIndex>(pick(3)) - 1);
        if (!synthetic.simple.empty())
          for (std::size_t k = 0; k < un; ++k) synthetic.simple.set(k, pick(2) != 0);
        for (std::size_t r = 0; r < un; ++r)
          for (std::size_t c = 0; c < un; ++c)
            synthetic.causal.set(r, c, pick(3) != 0);
      } else {
        const std::size_t i = pick(in_flight.size());
        m = in_flight[i];
        in_flight[i] = in_flight.back();
        in_flight.pop_back();
      }
      BhmrProtocol& p = *procs[static_cast<std::size_t>(m.dest)];
      ReferenceBhmr& ref = refs[static_cast<std::size_t>(m.dest)];
      const PiggybackView view = payloads.view(m.id);
      const ForceReason reason = p.force_reason(view, m.src);
      EXPECT_EQ(reason, ref.force_reason(view)) << where;
      ++fired[static_cast<std::size_t>(reason)];
      if (reason != ForceReason::kNone) {
        p.on_forced_checkpoint(reason);
        ref.checkpoint();
        expect_same_state(p, ref, where + " (forced checkpoint)");
      }
      p.on_deliver(view, m.src);
      ref.on_deliver(view, static_cast<std::size_t>(m.src));
      expect_same_state(p, ref, where + " (delivery)");
    } else {  // basic checkpoint
      const std::size_t i = pick(un);
      procs[i]->on_basic_checkpoint();
      refs[i].checkpoint();
      expect_same_state(*procs[i], refs[i], where + " (basic checkpoint)");
    }
    if (::testing::Test::HasFailure()) break;
  }
  return fired;
}

class BhmrReference : public ::testing::TestWithParam<Variant> {};

TEST_P(BhmrReference, WordParallelBookkeepingMatchesFigure6) {
  std::vector<int> fired(kNumForceReasons, 0);
  for (const int n : {1, 2, 7, 63, 64, 65, 130}) {
    const int events = n >= 63 ? 600 : 3000;
    const std::vector<int> at_n =
        drive(GetParam(), n, events, 0x5eed0000u + static_cast<std::uint64_t>(n));
    if (HasFailure()) return;
    for (std::size_t r = 0; r < fired.size(); ++r) fired[r] += at_n[r];
  }
  // The sequences reach every predicate the variant has.
  EXPECT_GT(fired[static_cast<std::size_t>(ForceReason::kC1)], 0);
  if (GetParam() != Variant::kC1Only) {
    EXPECT_GT(fired[static_cast<std::size_t>(ForceReason::kC2)], 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, BhmrReference,
                         ::testing::Values(Variant::kFull, Variant::kNoSimple,
                                           Variant::kC1Only),
                         [](const auto& param) {
                           std::string name = variant_name(param.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace rdt
