// Shared plumbing for the experiment binaries: the protocol set the papers'
// simulation study compares, the standard environment presets, command-line
// parsing (parse_bench_args — every binary understands --seeds/--threads/
// --json/--trace the same way), header banners, a formatter for mean ± 95%
// confidence cells, and a machine-readable benchmark report (--json) with an
// optional chrome://tracing span capture (--trace).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "obs/session.hpp"
#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace rdt::bench {

// ---------------------------------------------------------------------------
// Command line. Every experiment binary accepts the same core flags —
//   --seeds N     sweep width (each binary picks its own default)
//   --threads N   worker threads (defaults to the hardware concurrency)
//   --json PATH   write the rdt-bench-v2 report
//   --trace PATH  capture an observability session, write a chrome trace
// — plus whatever experiment-specific flags it reads via flag_or()/has().
// ---------------------------------------------------------------------------

class BenchArgs {
 public:
  BenchArgs(int argc, char** argv) : argc_(argc), argv_(argv) {}

  bool has(const std::string& flag) const {
    for (int i = 1; i < argc_; ++i)
      if (argv_[i] == flag) return true;
    return false;
  }
  int flag_or(const std::string& flag, int fallback) const {
    const char* v = value_of(flag);
    return v != nullptr ? std::atoi(v) : fallback;
  }
  double flag_or(const std::string& flag, double fallback) const {
    const char* v = value_of(flag);
    return v != nullptr ? std::atof(v) : fallback;
  }
  std::string flag_or(const std::string& flag, std::string fallback) const {
    const char* v = value_of(flag);
    return v != nullptr ? std::string(v) : std::move(fallback);
  }

  int seeds(int fallback) const { return flag_or("--seeds", fallback); }
  int threads() const {
    return flag_or(
        "--threads",
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  }
  std::string json_path() const { return flag_or("--json", std::string()); }
  std::string trace_path() const { return flag_or("--trace", std::string()); }

 private:
  const char* value_of(const std::string& flag) const {
    for (int i = 1; i + 1 < argc_; ++i)
      if (argv_[i] == flag) return argv_[i + 1];
    return nullptr;
  }

  int argc_;
  char** argv_;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  return {argc, argv};
}

// ---------------------------------------------------------------------------
// Standard environments. The study's canonical operating points (duration
// 400, basic-checkpoint period 10): 8-process uniform random traffic, four
// 4-process groups overlapping in one member, and 8-server request chains.
// Experiment binaries start from these presets and override the knob they
// sweep, so every binary means the same thing by "the random environment".
// ---------------------------------------------------------------------------

inline RandomEnvConfig random_env_preset() {
  RandomEnvConfig cfg;
  cfg.num_processes = 8;
  cfg.duration = 400.0;
  cfg.basic_ckpt_mean = 10.0;
  return cfg;
}

inline GroupEnvConfig group_env_preset() {
  GroupEnvConfig cfg;
  cfg.num_groups = 4;
  cfg.group_size = 4;
  cfg.overlap = 1;
  cfg.duration = 400.0;
  cfg.basic_ckpt_mean = 10.0;
  return cfg;
}

inline ClientServerEnvConfig client_server_env_preset() {
  ClientServerEnvConfig cfg;
  cfg.num_servers = 8;
  cfg.num_requests = 250;
  cfg.basic_ckpt_mean = 10.0;
  return cfg;
}

// The three presets as named seed-to-trace generators, for binaries that
// iterate over all environment families.
struct EnvPreset {
  std::string name;
  std::function<Trace(std::uint64_t seed)> generate;
};

inline const std::vector<EnvPreset>& env_presets() {
  static const std::vector<EnvPreset> presets = {
      {"random",
       [](std::uint64_t seed) {
         RandomEnvConfig cfg = random_env_preset();
         cfg.seed = seed;
         return random_environment(cfg);
       }},
      {"group",
       [](std::uint64_t seed) {
         GroupEnvConfig cfg = group_env_preset();
         cfg.seed = seed;
         return group_environment(cfg);
       }},
      {"client_server", [](std::uint64_t seed) {
         ClientServerEnvConfig cfg = client_server_env_preset();
         cfg.seed = seed;
         return client_server_environment(cfg);
       }}};
  return presets;
}

// The dependency-tracking protocols the study sweeps (baseline first). CBR
// is included as the classic upper bound; NRAS as the piggyback-free one;
// the adaptive meta-protocol closes the list as the lattice traveller.
inline const std::vector<ProtocolKind>& study_protocols() {
  static const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kCbr,          ProtocolKind::kNras,
      ProtocolKind::kFdi,          ProtocolKind::kFdas,
      ProtocolKind::kBhmrC1Only,   ProtocolKind::kBhmrNoSimple,
      ProtocolKind::kBhmr,         ProtocolKind::kAdaptive};
  return kinds;
}

inline std::string pm(const Summary& s, int precision = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << s.mean << " ±"
     << std::setprecision(precision) << s.ci95;
  return os.str();
}

inline void banner(const std::string& experiment, const std::string& what) {
  std::cout << "==================================================================\n"
            << experiment << " — " << what << '\n'
            << "metric R = forced checkpoints / basic checkpoints "
               "(lower is better)\n"
            << "==================================================================\n";
}

// ---------------------------------------------------------------------------
// Minimal JSON emitter (no third-party dependency). Objects preserve
// insertion order so reports diff cleanly run to run.
// ---------------------------------------------------------------------------

class JsonValue;
using JsonMember = std::pair<std::string, JsonValue>;
using JsonObject = std::vector<JsonMember>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}            // NOLINT(*-explicit-*)
  JsonValue(bool b) : v_(b) {}                          // NOLINT(*-explicit-*)
  JsonValue(double d) : v_(d) {}                        // NOLINT(*-explicit-*)
  JsonValue(int i) : v_(static_cast<long long>(i)) {}   // NOLINT(*-explicit-*)
  JsonValue(long long i) : v_(i) {}                     // NOLINT(*-explicit-*)
  JsonValue(unsigned long long u) : v_(u) {}            // NOLINT(*-explicit-*)
  JsonValue(const char* s) : v_(std::string(s)) {}      // NOLINT(*-explicit-*)
  JsonValue(std::string s) : v_(std::move(s)) {}        // NOLINT(*-explicit-*)
  JsonValue(JsonObject o) : v_(std::move(o)) {}         // NOLINT(*-explicit-*)
  JsonValue(JsonArray a) : v_(std::move(a)) {}          // NOLINT(*-explicit-*)

  void dump(std::ostream& os) const {
    std::visit([&os](const auto& x) { dump_one(os, x); }, v_);
  }

 private:
  static void dump_one(std::ostream& os, std::nullptr_t) { os << "null"; }
  static void dump_one(std::ostream& os, bool b) {
    os << (b ? "true" : "false");
  }
  static void dump_one(std::ostream& os, double d) {
    if (!std::isfinite(d)) {  // JSON has no nan/inf
      os << "null";
      return;
    }
    std::ostringstream tmp;
    tmp << std::setprecision(std::numeric_limits<double>::max_digits10) << d;
    os << tmp.str();
  }
  static void dump_one(std::ostream& os, long long i) { os << i; }
  static void dump_one(std::ostream& os, unsigned long long u) { os << u; }
  static void dump_one(std::ostream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
      switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\t': os << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
               << static_cast<int>(c) << std::dec << std::setfill(' ');
          } else {
            os << c;
          }
      }
    }
    os << '"';
  }
  static void dump_one(std::ostream& os, const JsonObject& o) {
    os << '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i > 0) os << ',';
      dump_one(os, o[i].first);
      os << ':';
      o[i].second.dump(os);
    }
    os << '}';
  }
  static void dump_one(std::ostream& os, const JsonArray& a) {
    os << '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) os << ',';
      a[i].dump(os);
    }
    os << ']';
  }

  std::variant<std::nullptr_t, bool, double, long long, unsigned long long,
               std::string, JsonObject, JsonArray>
      v_;
};

inline JsonValue to_json(const Summary& s) {
  return JsonObject{{"count", static_cast<long long>(s.count)},
                    {"mean", s.mean},
                    {"stddev", s.stddev},
                    {"ci95", s.ci95},
                    {"min", s.min},
                    {"max", s.max}};
}

inline JsonValue to_json(const ProtocolStats& s) {
  // wire_bits_per_message is measured through the protocol's declared
  // codec; flat_bits_per_message keeps the analytic flat-plane figure as
  // the labeled comparison column (the pre-codec reports' constant).
  return JsonObject{{"protocol", to_string(s.kind)},
                    {"codec",
                     to_cstring(ProtocolRegistry::instance().info(s.kind).codec)},
                    {"r_forced_per_basic", to_json(s.r_forced_per_basic)},
                    {"forced_per_message", to_json(s.forced_per_message)},
                    {"wire_bits_per_message", to_json(s.wire_bits)},
                    {"flat_bits_per_message", to_json(s.flat_bits)},
                    {"total_messages", s.total_messages},
                    {"total_basic", s.total_basic},
                    {"total_forced", s.total_forced}};
}

// ---------------------------------------------------------------------------
// BenchReport — machine-readable run record, schema "rdt-bench-v2" (v2
// replaced the flat piggyback_bits_per_message constant with measured
// wire_bits_per_message + the flat_bits_per_message comparison column):
//   { "schema": "rdt-bench-v2", "experiment": ..., "wall_seconds": ...,
//     "sections": [ { "name": ..., "params": {...},
//                     "protocols": [...] | "metrics": {...} } ] }
// Construct it first thing in main() with the parsed BenchArgs (or argc/
// argv); it consumes `--json <path>` and `--trace <path>`. Without --json
// the report methods are no-ops, so the human-readable tables stay the
// default output. With --trace, an observability session spans the whole
// run: the instrumented layers (replay, sweep scheduler, DES) record spans
// and counters into it, finish() writes the chrome://tracing JSON to the
// given path, and the counter/histogram totals also land in the --json
// report as an "observability" section. The fine-grained hooks are compiled
// in only under -DRDT_OBS=ON; a default build warns and produces an empty
// capture. finish() (or the destructor) stamps the wall time and writes the
// files.
// ---------------------------------------------------------------------------

class BenchReport {
 public:
  BenchReport(std::string experiment, const BenchArgs& args)
      : experiment_(std::move(experiment)),
        path_(args.json_path()),
        trace_path_(args.trace_path()),
        start_(Clock::now()) {
    if (trace_path_.empty()) return;
    if (!obs::kObsEnabled)
      std::cerr << "bench: --trace requested but observability hooks are "
                   "compiled out; rebuild with -DRDT_OBS=ON for a non-empty "
                   "capture\n";
    session_ = std::make_unique<obs::ObsSession>();
  }
  BenchReport(std::string experiment, int argc, char** argv)
      : BenchReport(std::move(experiment), BenchArgs(argc, argv)) {}
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() { finish(); }

  bool enabled() const { return !path_.empty(); }

  // The active observability session, when --trace was given.
  obs::ObsSession* session() const { return session_.get(); }

  // Record one sweep's aggregated per-protocol statistics under `section`
  // with the sweep's identifying parameters (environment knobs, seed count).
  void add_sweep(const std::string& section, JsonObject params,
                 std::span<const ProtocolStats> stats) {
    if (!enabled()) return;
    JsonArray protocols;
    protocols.reserve(stats.size());
    for (const ProtocolStats& s : stats) protocols.push_back(to_json(s));
    sections_.push_back(JsonObject{{"name", section},
                                   {"params", std::move(params)},
                                   {"protocols", std::move(protocols)}});
  }

  // Record free-form metrics (e.g. wall-clock comparisons) under `section`.
  void add_metrics(const std::string& section, JsonValue metrics) {
    if (!enabled()) return;
    sections_.push_back(
        JsonObject{{"name", section}, {"metrics", std::move(metrics)}});
  }

  // Write the report (and the chrome trace, when --trace was given).
  // Idempotent; called by the destructor as a backstop.
  void finish() {
    if (finished_) return;
    finished_ = true;
    export_trace();
    if (!enabled()) return;
    const double wall =
        std::chrono::duration<double>(Clock::now() - start_).count();
    const JsonValue root = JsonObject{{"schema", "rdt-bench-v2"},
                                      {"experiment", experiment_},
                                      {"wall_seconds", wall},
                                      {"sections", std::move(sections_)}};
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "bench: cannot write JSON report to " << path_ << '\n';
      return;
    }
    root.dump(out);
    out << '\n';
    std::cout << "JSON report written to " << path_ << '\n';
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Deactivate the session (workers have joined by the time finish() runs —
  // the sweeps are synchronous), write the chrome trace, and append the
  // counter/histogram totals to the --json report as an "observability"
  // section.
  void export_trace() {
    if (session_ == nullptr) return;
    session_->deactivate();
    const obs::MetricsSnapshot snap = session_->metrics().snapshot();
    if (enabled()) {
      JsonObject counters;
      counters.reserve(snap.counters.size());
      for (const auto& [name, total] : snap.counters)
        counters.emplace_back(name, total);
      JsonObject histograms;
      histograms.reserve(snap.histograms.size());
      for (const obs::HistogramSnapshot& h : snap.histograms) {
        JsonArray bounds(h.bounds.begin(), h.bounds.end());
        JsonArray counts(h.counts.begin(), h.counts.end());
        histograms.emplace_back(h.name,
                                JsonObject{{"bounds", std::move(bounds)},
                                           {"counts", std::move(counts)},
                                           {"count", h.count},
                                           {"sum", h.sum},
                                           {"min", h.min},
                                           {"max", h.max}});
      }
      sections_.push_back(JsonObject{
          {"name", "observability"},
          {"metrics",
           JsonObject{
               {"hooks_compiled_in", obs::kObsEnabled},
               {"trace_path", trace_path_},
               {"trace_events", static_cast<long long>(session_->trace().size())},
               {"counters", std::move(counters)},
               {"histograms", std::move(histograms)}}}});
    }
    std::ofstream out(trace_path_);
    if (!out) {
      std::cerr << "bench: cannot write trace to " << trace_path_ << '\n';
      return;
    }
    session_->write_chrome_trace(out);
    std::cout << "chrome trace written to " << trace_path_
              << " (load via chrome://tracing or ui.perfetto.dev)\n";
  }

  std::string experiment_;
  std::string path_;
  std::string trace_path_;
  std::unique_ptr<obs::ObsSession> session_;
  Clock::time_point start_;
  JsonArray sections_;
  bool finished_ = false;
};

}  // namespace rdt::bench
