// Construction options and the structured query surface of OnlineEngine.
//
// PR 9's retention redesign makes some questions unanswerable on purpose:
// once the recovery line has passed a checkpoint, a retention-enabled engine
// may fold it into a per-process frontier summary and release the storage.
// The paper licenses exactly this — the TDV saved at a checkpoint IS the
// minimum consistent global checkpoint containing it (Corollary 4.5), so
// nothing at or behind the line can ever participate in a future rollback,
// a future junction verdict, or a Z-path query between live checkpoints.
//
// Two consequences shape this header:
//  * EngineOptions is the one construction/reset parameter: a process
//    count plus a RetentionPolicy (keep-everything by default, so
//    EngineOptions{n} is the plain engine over n processes).
//  * Queries about evicted state cannot be answered with a bare bool — a
//    "false" that actually means "I no longer know" is a lie. QueryResult
//    carries the answer together with a QueryStatus that distinguishes a
//    real answer from "behind the retention horizon" and from "not a valid
//    checkpoint id at all" (which used to throw).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace rdt {

// Outcome class of a horizon-aware query.
enum class QueryStatus : std::uint8_t {
  kOk = 0,       // `value` is the answer, bit-identical to a keep-all engine
  kEvicted = 1,  // the question names state behind the retention horizon
  kInvalid = 2,  // the question names a checkpoint the stream never produced
};

// An answer plus its status. `value` is meaningful only when ok(): an
// evicted or invalid result carries a default-constructed value, never a
// guess. No implicit bool conversion on purpose — `zreach(a, b).value`
// and `zreach(a, b).ok()` are different questions and the call site must
// pick one.
template <typename T>
struct QueryResult {
  QueryStatus status = QueryStatus::kInvalid;
  T value{};

  bool ok() const { return status == QueryStatus::kOk; }
  bool evicted() const { return status == QueryStatus::kEvicted; }

  static QueryResult make(T v) {
    return QueryResult{QueryStatus::kOk, std::move(v)};
  }
  static QueryResult evicted_result() {
    return QueryResult{QueryStatus::kEvicted, T{}};
  }
  static QueryResult invalid_result() {
    return QueryResult{QueryStatus::kInvalid, T{}};
  }

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

// When and how aggressively an engine compacts. The default policy keeps
// the full history — bit-for-bit the pre-retention engine, every query kOk.
struct RetentionPolicy {
  // Master switch. When false every other knob is inert and compact() is a
  // no-op returning false.
  bool enabled = false;

  // Auto-compaction cadence: try a compaction pass after this many observed
  // events (0 = manual compact() calls only). A pass whose recovery sweep
  // finds fewer than min_evictable_checkpoints evictable checkpoints skips
  // the rebuild, so the cadence bounds sweep frequency, not churn.
  long long compact_every_events = 1 << 20;
  int min_evictable_checkpoints = 64;

  // Caps applied by compact() and reset() so a pathological stream cannot
  // permanently inflate a recycled engine: the row capacity surviving a
  // reset (message table, parked sends, snapshot slab slots, and each
  // process's saved-TDV window), and closure rows pooled across a
  // compaction's graph rebuild.
  std::size_t max_reset_message_capacity = std::size_t{1} << 16;
  std::size_t max_pooled_reach_rows = 256;

  static RetentionPolicy keep_all() { return {}; }
  static RetentionPolicy bounded(long long every_events = 1 << 20) {
    RetentionPolicy policy;
    policy.enabled = true;
    policy.compact_every_events = every_events;
    return policy;
  }

  friend bool operator==(const RetentionPolicy&,
                         const RetentionPolicy&) = default;
};

// The OnlineEngine construction/reset parameters.
struct EngineOptions {
  int num_processes = 2;
  RetentionPolicy retention{};

  friend bool operator==(const EngineOptions&, const EngineOptions&) = default;
};

// Cumulative retention counters plus the engine's current resident-byte
// accounting. Counters survive reset() (they are lifetime metrics, like the
// recovery-sweep counter); resident_bytes is a point-in-time snapshot
// refreshed at every compaction, every reset, and periodically during
// feeding, and parked_sends is the live count.
struct RetentionStats {
  bool enabled = false;
  long long compactions = 0;           // rebuild passes that evicted state
  long long evicted_checkpoints = 0;   // R-graph nodes folded into summaries
  long long evicted_edges = 0;         // edges dropped with their head
  long long evicted_saved_tdvs = 0;    // saved-TDV rows dropped
  // Message rows released: delivered rows dropped from the window's front
  // once their send interval closed, plus parked rows erased at their late
  // delivery.
  long long evicted_messages = 0;
  long long late_edges_collapsed = 0;  // deliveries whose send was evicted
  // Current (not cumulative) number of sends parked outside the message
  // window: undelivered, with their send interval closed. One row each,
  // for a lost message or one still in flight. reset() zeroes it.
  long long parked_sends = 0;
  std::size_t resident_bytes = 0;

  friend bool operator==(const RetentionStats&,
                         const RetentionStats&) = default;
};

}  // namespace rdt
