// Transitive Dependency Vectors (TDV) — Section 3.3 of the paper.
//
// Each process P_i maintains TDV_i[1..n]; TDV_i[i] is the index of the
// current checkpoint interval, and TDV_i[j] records the highest checkpoint
// interval of P_j the current local state causally depends on through
// message chains. Vectors are piggybacked on every message and merged
// (component-wise max) at delivery; taking checkpoint C_{i,x} saves the
// current vector as TDV_{i,x} and bumps the own entry.
//
// TdvAnalysis replays this mechanism offline over a finished Pattern and
// exposes:
//  * the vector saved at every checkpoint and piggybacked on every message;
//  * the *on-line trackability* relation: the R-path C_{i,x} -> C_{j,y} is
//    on-line trackable iff i == j && x <= y, or TDV_{j,y}[i] >= x — i.e. a
//    causal message chain from an interval of P_i at or after I_{i,x}
//    reaches P_j at or before C_{j,y}.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "ccp/consistency.hpp"
#include "ccp/pattern.hpp"
#include "util/check.hpp"
#include "util/mem_accounting.hpp"

namespace rdt {

// An integer dependency vector; entry j refers to a checkpoint interval
// index of P_j.
using Tdv = std::vector<CkptIndex>;

// The saved-TDV history of one process, windowed for prefix compaction.
//
// The online engine keeps TDV_{p,x} for every frozen checkpoint C_{p,x}
// because a junction targeting C_{p,x} can be discovered arbitrarily late —
// but only while C_{p,x} is strictly above the recovery line: a junction
// verdict's frozen target always carries an in-edge from a still-volatile
// node, so it is invalid in the current sweep and therefore above the line.
// Once the line passes x the row can never be read again, and
// release_through() drops it.
//
// Window layout: one flat buffer of fixed-stride rows (stride = the process
// count) for indices (base(), base()+size()]; the saved vector of C_{p,x}
// starts at rows_[(x - base() - 1) * stride()]. base() starts at 0 (C_{p,0}
// saves the all-zero vector, which the engine never stores) and only grows.
// Releasing rows keeps the buffer's capacity, so once the window has grown
// to its steady-state depth append() never allocates.
class SavedTdvWindow {
 public:
  std::size_t stride() const { return stride_; }
  CkptIndex base() const { return base_; }
  std::size_t size() const { return stride_ == 0 ? 0 : rows_.size() / stride_; }
  // Highest index with a resident row (== the process's durable index when
  // the engine keeps the window current).
  CkptIndex last_index() const {
    return base_ + static_cast<CkptIndex>(size());
  }

  bool contains(CkptIndex x) const { return x > base_ && x <= last_index(); }

  // The stride() entries of the row saved at C_{p,x}.
  const CkptIndex* at(CkptIndex x) const {
    RDT_CHECK(contains(x), "saved-TDV row is not resident in the window");
    return rows_.data() + static_cast<std::size_t>(x - base_ - 1) * stride_;
  }

  // Append the row for index last_index()+1 (zero-filled) for the caller to
  // write.
  std::span<CkptIndex> append() {
    rows_.resize(rows_.size() + stride_);
    return {rows_.data() + rows_.size() - stride_, stride_};
  }

  // Drop every resident row with index <= stable and advance the base;
  // returns how many rows were dropped.
  std::size_t release_through(CkptIndex stable) {
    if (stable <= base_) return 0;
    const auto drop =
        std::min(static_cast<std::size_t>(stable - base_), size());
    rows_.erase(rows_.begin(),
                rows_.begin() + static_cast<std::ptrdiff_t>(drop * stride_));
    base_ += static_cast<CkptIndex>(drop);
    return drop;
  }

  // Back to an empty window at base 0 over rows of `stride` (>= 1) entries.
  // The buffer keeps its capacity unless that exceeds `max_rows` rows, in
  // which case it is freed.
  void reset(std::size_t stride, std::size_t max_rows) {
    rows_.clear();
    if (rows_.capacity() / stride > max_rows)
      std::vector<CkptIndex>{}.swap(rows_);
    stride_ = stride;
    base_ = 0;
  }

  std::size_t resident_bytes() const { return mem::vec_bytes(rows_); }

 private:
  std::vector<CkptIndex> rows_;
  std::size_t stride_ = 0;
  CkptIndex base_ = 0;
};

// The pure incremental TDV step — exactly the per-event transition the
// paper's protocols run (S0/S1/S2 of Figure 6), with no pattern and no
// event order of its own. One machine holds the live TDV_i of every
// process, as the rows of one flat n x n buffer; the caller drives it event
// by event in any order consistent with happened-before:
//   * send(i, out)        — snapshot TDV_i into `out` (the piggyback);
//   * deliver(j, piggy)   — TDV_j := max(TDV_j, piggy) componentwise;
//   * checkpoint(i, out)  — save TDV_i into `out`, then bump the own entry.
// Every vector argument is an n-entry span the caller owns (a payload slot,
// a saved-TDV row). The constructor performs the paper's initialization:
// all zero, the implicit initial checkpoint C_{i,0} saves the zero vector
// (the caller records that directly), and the own entry becomes 1 — the
// index of I_{i,1}. TdvAnalysis is the batch wrapper that folds these steps
// over a finished Pattern's topological order; the online engine feeds the
// same machine one event at a time.
class TdvMachine {
 public:
  explicit TdvMachine(int num_processes);

  // Back to the constructor's initial state over `num_processes` processes,
  // reusing the buffer's capacity.
  void reset(int num_processes);

  int num_processes() const { return static_cast<int>(n_); }

  // The live vector TDV_i (own entry = current interval index).
  std::span<const CkptIndex> at(ProcessId i) const {
    return {current_.data() + static_cast<std::size_t>(i) * n_, n_};
  }

  // Snapshot the sender's vector into `piggyback`.
  void send(ProcessId sender, std::span<CkptIndex> piggyback) const;

  // Merge a piggybacked vector into the receiver's (componentwise max).
  void deliver(ProcessId receiver, std::span<const CkptIndex> piggyback);

  // Save the vector of C_{p, current interval} into `saved`, then advance
  // the own entry to the new interval's index.
  void checkpoint(ProcessId p, std::span<CkptIndex> saved);

  // Heap bytes of the live rows (util/mem_accounting.hpp).
  std::size_t resident_bytes() const { return mem::vec_bytes(current_); }

 private:
  std::size_t n_ = 0;
  std::vector<CkptIndex> current_;  // row i = TDV_i, stride n_
};

class TdvAnalysis {
 public:
  explicit TdvAnalysis(const Pattern& pattern);
  // The analysis keeps a reference to the pattern; a temporary would dangle.
  explicit TdvAnalysis(Pattern&&) = delete;

  const Pattern& pattern() const { return *pattern_; }

  // The vector saved when C_{p,x} was taken (own entry equals x).
  const Tdv& at_ckpt(const CkptId& c) const;
  // The vector piggybacked on message m (value of the sender's TDV at send).
  const Tdv& on_msg(MsgId m) const;

  // On-line trackability of the R-path from -> to (Definition 3.3 in TDV
  // form). Returns true for same-process paths with from.index <= to.index.
  bool trackable(const CkptId& from, const CkptId& to) const;

  // The paper's Corollary 4.5: TDV_{i,x}, read as a global checkpoint,
  // is the minimum consistent global checkpoint containing C_{i,x}
  // (guaranteed when the pattern satisfies RDT).
  GlobalCkpt min_global_ckpt(const CkptId& c) const;

 private:
  const Pattern* pattern_;
  // ckpt_tdv_[node_id(c)] = vector saved at c.
  std::vector<Tdv> ckpt_tdv_;
  std::vector<Tdv> msg_tdv_;
};

// Audit-tier (RDT_AUDIT) cross-validation: re-derives every saved and
// piggybacked vector with the pre-split batch replay loop (inline
// snapshot/merge/save, no TdvMachine) and compares them entry for entry.
// No-op unless the build defines RDT_AUDITS; invoked automatically by the
// TdvAnalysis constructor in audit builds.
void audit_tdv_analysis(const TdvAnalysis& analysis);

}  // namespace rdt
