// Shared stream fixtures for the online-engine, serving and replay tests: a
// recorder that captures a replay's append stream as StreamEvents, the
// lossy and delayed-delivery variants of a recorded stream, and the small
// environment families the equivalence suites sweep.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ccp/builder.hpp"
#include "online/engine.hpp"
#include "sim/environments.hpp"
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

// Share of deliveries the lossy and delayed stream variants touch.
inline constexpr double kLostDeliveryShare = 0.01;

// Positions of a seeded `share` of the deliveries, and at least one when
// there are any, in stream order.
inline std::vector<std::size_t> pick_deliveries(
    const std::vector<StreamEvent>& ops, std::uint64_t seed, double share) {
  std::vector<std::size_t> deliveries;
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (ops[i].kind == EventKind::kDeliver) deliveries.push_back(i);
  if (deliveries.empty()) return deliveries;
  const auto picked = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(deliveries.size()) *
                                  share));
  Rng rng(seed);
  rng.shuffle(deliveries);
  deliveries.resize(picked);
  std::sort(deliveries.begin(), deliveries.end());
  return deliveries;
}

// Removes a seeded `share` of the deliveries, and at least one when there
// are any, so that a short stream is still lossy: those sends stay in
// flight forever, like a lost message or a crashed receiver. Returns the
// number removed.
inline long long drop_deliveries(std::vector<StreamEvent>& ops,
                                 std::uint64_t seed,
                                 double share = kLostDeliveryShare) {
  const std::vector<std::size_t> lost = pick_deliveries(ops, seed, share);
  std::vector<StreamEvent> kept;
  kept.reserve(ops.size() - lost.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (next < lost.size() && lost[next] == i) {
      ++next;
      continue;
    }
    kept.push_back(ops[i]);
  }
  ops = std::move(kept);
  return static_cast<long long>(lost.size());
}

// Moves a seeded kLostDeliveryShare of the deliveries, and at least one
// when there are any, between min_delay and 2 * min_delay events later (or
// to the end of the stream): a slow link whose message arrives long after
// its sender moved on. Every send is still delivered. Returns the number
// moved.
inline long long delay_deliveries(std::vector<StreamEvent>& ops,
                                  std::uint64_t seed, std::size_t min_delay) {
  const std::vector<std::size_t> moved =
      pick_deliveries(ops, seed, kLostDeliveryShare);
  // Sort key: the position an event lands at; a moved delivery goes just
  // before the event originally at its new position.
  std::vector<std::pair<std::size_t, std::size_t>> keys(ops.size());
  Rng rng(seed + 1);
  std::size_t next = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    keys[i] = {i, i};
    if (next < moved.size() && moved[next] == i) {
      ++next;
      keys[i].first =
          std::min(ops.size(), i + min_delay + rng.index(min_delay + 1));
    }
  }
  std::stable_sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  std::vector<StreamEvent> out;
  out.reserve(ops.size());
  for (const auto& key : keys) out.push_back(ops[key.second]);
  ops = std::move(out);
  return static_cast<long long>(moved.size());
}

// A named trace family: seed -> trace.
struct Env {
  std::string name;
  std::function<Trace(std::uint64_t)> generate;
};

inline std::vector<Env> small_environments() {
  std::vector<Env> envs;
  envs.push_back({"random", [](std::uint64_t seed) {
                    RandomEnvConfig cfg;
                    cfg.num_processes = 6;
                    cfg.duration = 80.0;
                    cfg.basic_ckpt_mean = 8.0;
                    cfg.seed = seed;
                    return random_environment(cfg);
                  }});
  envs.push_back({"group", [](std::uint64_t seed) {
                    GroupEnvConfig cfg;
                    cfg.num_groups = 3;
                    cfg.group_size = 3;
                    cfg.overlap = 1;
                    cfg.duration = 80.0;
                    cfg.basic_ckpt_mean = 8.0;
                    cfg.seed = seed;
                    return group_environment(cfg);
                  }});
  envs.push_back({"client_server", [](std::uint64_t seed) {
                    ClientServerEnvConfig cfg;
                    cfg.num_servers = 5;
                    cfg.num_requests = 60;
                    cfg.basic_ckpt_mean = 8.0;
                    cfg.seed = seed;
                    return client_server_environment(cfg);
                  }});
  return envs;
}

}  // namespace rdt::test
