#include "des/simulator.hpp"

#include <queue>

#include "obs/hooks.hpp"
#include "protocols/registry.hpp"
#include "util/check.hpp"

namespace rdt::des {

namespace {

enum class EvKind { kStart, kDeliver, kTimer, kBasicCkpt };

struct Ev {
  double time = 0.0;
  long long seq = 0;  // FIFO tiebreak for determinism
  EvKind kind = EvKind::kStart;
  ProcessId process = -1;
  // kDeliver:
  AppData data = 0;
  MsgId msg = kNoMsg;  // index into the recorded trace's messages
  // kTimer:
  int timer_id = 0;
};

struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

class Runtime;

// Per-process Context implementation; actions funnel back to the Runtime.
class ProcessContext final : public Context {
 public:
  ProcessContext(Runtime& runtime, ProcessId self)
      : runtime_(&runtime), self_(self) {}

  ProcessId self() const override { return self_; }
  int num_processes() const override;
  double now() const override;
  void send(ProcessId to, AppData data) override;
  void take_checkpoint() override;
  void set_timer(double delay, int id) override;
  double random() override;

 private:
  Runtime* runtime_;
  ProcessId self_;
};

class Runtime {
 public:
  Runtime(int num_processes, const AppFactory& factory, const SimConfig& config)
      : config_(config), rng_(config.seed) {
    RDT_REQUIRE(num_processes >= 1, "need at least one process");
    RDT_REQUIRE(config.horizon > 0, "horizon must be positive");
    RDT_REQUIRE(config.delay_mean > 0 && config.delay_min >= 0,
                "invalid channel delays");
    fifo_last_.assign(static_cast<std::size_t>(num_processes),
                      std::vector<double>(static_cast<std::size_t>(num_processes), 0.0));
    trace_.num_processes = num_processes;
    for (ProcessId i = 0; i < num_processes; ++i) {
      apps_.push_back(factory(i));
      RDT_REQUIRE(apps_.back() != nullptr, "app factory returned null");
      contexts_.emplace_back(*this, i);
      app_rngs_.push_back(rng_.split());
      push({0.0, next_seq(), EvKind::kStart, i});
      if (config.basic_ckpt_mean > 0)
        push({rng_.exponential(config.basic_ckpt_mean), next_seq(),
              EvKind::kBasicCkpt, i});
    }
  }

  SimResult run() {
    RDT_TRACE_SPAN("des", "des.run", "protocol",
                   ProtocolRegistry::instance().info(config_.protocol)
                       .id.c_str());
    while (!queue_.empty()) {
      const Ev ev = queue_.top();
      queue_.pop();
      now_ = ev.time;
      switch (ev.kind) {
        case EvKind::kStart:
          current_ = ev.process;
          apps_[static_cast<std::size_t>(ev.process)]->start(
              contexts_[static_cast<std::size_t>(ev.process)]);
          current_ = -1;
          break;
        case EvKind::kDeliver:
          record(TraceOpKind::kDeliver, ev.process, ev.msg);
          if (ev.time <= config_.horizon) {
            // Application activity only before the cool-down.
            current_ = ev.process;
            apps_[static_cast<std::size_t>(ev.process)]->on_message(
                contexts_[static_cast<std::size_t>(ev.process)],
                trace_.messages[static_cast<std::size_t>(ev.msg)].sender,
                ev.data);
            current_ = -1;
          }
          break;
        case EvKind::kTimer:
          if (ev.time <= config_.horizon) {
            ++result_timers_;
            current_ = ev.process;
            apps_[static_cast<std::size_t>(ev.process)]->on_timer(
                contexts_[static_cast<std::size_t>(ev.process)], ev.timer_id);
            current_ = -1;
          }
          break;
        case EvKind::kBasicCkpt:
          if (ev.time <= config_.horizon) {
            record(TraceOpKind::kBasicCkpt, ev.process);
            push({ev.time + rng_.exponential(config_.basic_ckpt_mean),
                  next_seq(), EvKind::kBasicCkpt, ev.process});
          }
          break;
      }
    }

    // The recorded run, replayed under the configured protocol: no protocol
    // decision reaches an application or the RNG, so the replay sees
    // exactly the events the run produced.
    return {replay(trace_, config_.protocol,
                   {.observer = config_.observer, .online = config_.online}),
            result_timers_, now_};
  }

  // --- Context services ------------------------------------------------------
  int num_processes() const { return static_cast<int>(apps_.size()); }
  double now() const { return now_; }

  void app_send(ProcessId from, ProcessId to, AppData data) {
    RDT_REQUIRE(from == current_,
                "send() may only be called from the running process's callback");
    RDT_REQUIRE(to >= 0 && to < num_processes() && to != from,
                "send() needs another process's id");
    double arrive = now_ + config_.delay_min + rng_.exponential(config_.delay_mean);
    if (config_.fifo_channels) {
      auto& last = fifo_last_[static_cast<std::size_t>(from)]
                             [static_cast<std::size_t>(to)];
      arrive = std::max(arrive, last + 1e-9);
      last = arrive;
    }
    const auto id = static_cast<MsgId>(trace_.messages.size());
    trace_.messages.push_back({from, to, now_, arrive});
    record(TraceOpKind::kSend, from, id);
    push({arrive, next_seq(), EvKind::kDeliver, to, data, id});
  }

  void app_checkpoint(ProcessId p) {
    RDT_REQUIRE(p == current_,
                "take_checkpoint() may only be called from the running "
                "process's callback");
    record(TraceOpKind::kBasicCkpt, p);
  }

  void app_timer(ProcessId p, double delay, int id) {
    RDT_REQUIRE(p == current_,
                "set_timer() may only be called from the running process's "
                "callback");
    RDT_REQUIRE(delay >= 0, "negative timer delay");
    Ev ev{now_ + delay, next_seq(), EvKind::kTimer, p};
    ev.timer_id = id;
    push(ev);
  }

  double app_random(ProcessId p) {
    return app_rngs_[static_cast<std::size_t>(p)].uniform();
  }

 private:
  long long next_seq() { return seq_++; }
  void push(const Ev& ev) { queue_.push(ev); }

  // Appends an op in processing order, so ties at equal times keep the
  // order the run produced them in.
  void record(TraceOpKind kind, ProcessId p, MsgId msg = kNoMsg) {
    trace_.ops.push_back({kind, now_, p, msg});
  }

  SimConfig config_;
  Rng rng_;
  std::vector<Rng> app_rngs_;
  Trace trace_;
  std::vector<std::unique_ptr<ProcessApp>> apps_;
  std::vector<ProcessContext> contexts_;
  std::priority_queue<Ev, std::vector<Ev>, EvLater> queue_;
  std::vector<std::vector<double>> fifo_last_;
  double now_ = 0.0;
  long long seq_ = 0;
  long long result_timers_ = 0;
  ProcessId current_ = -1;  // process whose callback is running
};

int ProcessContext::num_processes() const { return runtime_->num_processes(); }
double ProcessContext::now() const { return runtime_->now(); }
void ProcessContext::send(ProcessId to, AppData data) {
  runtime_->app_send(self_, to, data);
}
void ProcessContext::take_checkpoint() { runtime_->app_checkpoint(self_); }
void ProcessContext::set_timer(double delay, int id) {
  runtime_->app_timer(self_, delay, id);
}
double ProcessContext::random() { return runtime_->app_random(self_); }

}  // namespace

SimResult run_simulation(int num_processes, const AppFactory& factory,
                         const SimConfig& config) {
  Runtime runtime(num_processes, factory, config);
  return runtime.run();
}

}  // namespace rdt::des
