// Hand-driven protocol scenarios over the runtime's own ProtocolDriver:
// each send is carried by the kind's declared codec into a fixed-capacity
// PayloadArena, so a scenario controls the exact event order and still runs
// the code a replay runs.
#pragma once

#include <cstddef>

#include "sim/protocol_driver.hpp"

namespace rdt::test {

class Net {
 public:
  static constexpr std::size_t kMessages = 1024;

  Net(ProtocolKind kind, int n)
      : driver_(kind, n, kMessages,
                ProtocolRegistry::instance().info(kind).codec_for(n), arena_,
                /*observer=*/nullptr, /*save_tdv_history=*/true) {}

  const CicProtocol& at(ProcessId p) const { return driver_.protocol(p); }
  // Sends the next message; a checkpoint-after-send kind checkpoints here.
  MsgId send(ProcessId from, ProcessId to) {
    driver_.send(from, to, next_);
    return next_++;
  }
  // Returns whether a forced checkpoint was taken before the delivery.
  bool deliver(MsgId m, ProcessId from, ProcessId to) {
    return driver_.deliver(from, to, m);
  }
  void checkpoint(ProcessId p) { driver_.basic_checkpoint(p); }
  // The payload message m carries, as its sender wrote it.
  PiggybackView view(MsgId m) const { return arena_.view(m); }

 private:
  PayloadArena arena_;  // before driver_, which resets it
  ProtocolDriver driver_;
  MsgId next_ = 0;
};

// `count` zeroed message slots carved for `shape`, for tests that write
// payloads by hand.
inline PayloadArena payload_slots(int n, PayloadShape shape, std::size_t count) {
  PayloadArena arena;
  arena.reset(n, shape, count, PiggybackCodecKind::kFlat);
  return arena;
}

}  // namespace rdt::test
