// Shared stream fixtures for the online-engine and serving tests: a
// recorder that captures a replay's append stream as StreamEvents, and the
// lossy variant of a recorded stream.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ccp/builder.hpp"
#include "online/engine.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"

namespace rdt::test {

// Captures a builder's append stream as a replayable event list.
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

inline std::vector<StreamEvent> record_replay(const Trace& trace,
                                              ProtocolKind kind) {
  Recorder recorder;
  replay(trace, kind, {.online = &recorder});
  return recorder.ops;
}

// Share of deliveries the lossy stream variants remove.
inline constexpr double kLostDeliveryShare = 0.01;

// Removes a seeded kLostDeliveryShare of the deliveries, and at least one
// when there are any, so that a short stream is still lossy: those sends
// stay in flight forever, like a lost message or a crashed receiver.
// Returns the number removed.
inline long long drop_deliveries(std::vector<StreamEvent>& ops,
                                 std::uint64_t seed) {
  std::vector<std::size_t> deliveries;
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (ops[i].kind == EventKind::kDeliver) deliveries.push_back(i);
  if (deliveries.empty()) return 0;
  const auto lost = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(deliveries.size()) *
                                  kLostDeliveryShare));
  Rng rng(seed);
  rng.shuffle(deliveries);
  deliveries.resize(lost);
  std::sort(deliveries.begin(), deliveries.end());
  std::vector<StreamEvent> kept;
  kept.reserve(ops.size() - lost);
  std::size_t next = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (next < lost && deliveries[next] == i) {
      ++next;
      continue;
    }
    kept.push_back(ops[i]);
  }
  ops = std::move(kept);
  return static_cast<long long>(lost);
}

}  // namespace rdt::test
