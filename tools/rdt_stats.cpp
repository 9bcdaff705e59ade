// rdt-stats — inspect the JSON the experiment harness writes.
//
//   rdt-stats trace <trace.json>    validate an rdt-trace-v1 chrome trace,
//                                   summarize spans / counters / histograms
//   rdt-stats bench <report.json>   validate an rdt-bench-v2 report, list
//                                   its sections (and the observability
//                                   section's counters when present)
//
// Both commands exit 0 only when the file parses AND matches its schema, so
// CI can use them as validators; `-` reads stdin. The span summary groups
// complete events by (category, name) — the per-protocol replay spans the
// instrumentation emits make the grouping a per-protocol time budget.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace rdt;

// Thrown for bad invocations; main() maps it to exit code 2. (The tools
// avoid std::exit: it skips destructors and trips concurrency-mt-unsafe.)
struct UsageError {};

[[noreturn]] void usage() {
  std::cerr << "usage: rdt-stats <command> <file.json>\n"
               "  trace <trace.json>    rdt-trace-v1 (chrome://tracing)\n"
               "  bench <report.json>   rdt-bench-v2\n";
  throw UsageError{};
}

std::string slurp(const std::string& path) {
  std::ostringstream buf;
  if (path == "-") {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open the file");
    buf << in.rdbuf();
  }
  return buf.str();
}

// Schema failures are invalid_argument, same as parse failures: main()
// reports both identically.
[[noreturn]] void schema_error(const std::string& what) {
  throw std::invalid_argument("schema violation: " + what);
}

void print_counters(const json::Value& counters) {
  if (counters.as_object().empty()) return;
  std::cout << "\ncounters:\n";
  Table table({"counter", "total"});
  for (const auto& [name, total] : counters.as_object())
    table.begin_row().add(name).add(total.as_int());
  table.print(std::cout);
}

void print_histograms(const json::Value& histograms) {
  if (histograms.as_object().empty()) return;
  std::cout << "\nhistograms:\n";
  Table table({"histogram", "count", "sum", "min", "max", "mean"});
  for (const auto& [name, h] : histograms.as_object()) {
    const long long count = h.at("count").as_int();
    const long long sum = h.at("sum").as_int();
    // bounds/counts must agree: counts has one extra overflow bucket, and
    // the bucket counts must add up to the total count.
    const auto& bounds = h.at("bounds").as_array();
    const auto& counts = h.at("counts").as_array();
    if (counts.size() != bounds.size() + 1)
      schema_error("histogram '" + name + "' needs bounds+1 bucket counts");
    long long bucket_total = 0;
    for (const json::Value& c : counts) bucket_total += c.as_int();
    if (bucket_total != count)
      schema_error("histogram '" + name + "' bucket counts do not sum to count");
    table.begin_row()
        .add(name)
        .add(count)
        .add(sum)
        .add(h.at("min").as_int())
        .add(h.at("max").as_int())
        .add(count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                       : 0.0,
             1);
  }
  table.print(std::cout);
}

int cmd_trace(const std::string& path) {
  const json::Value doc = json::parse(slurp(path));
  const std::string& schema =
      doc.at("otherData").at("schema").as_string();
  if (schema != "rdt-trace-v1")
    schema_error("expected schema rdt-trace-v1, got '" + schema + "'");

  // Spans: every event the session writes is a complete ("ph":"X") event
  // with a non-negative duration.
  struct SpanStats {
    long long count = 0;
    long long total_us = 0;
    long long max_us = 0;
  };
  std::map<std::pair<std::string, std::string>, SpanStats> by_name;
  const auto& events = doc.at("traceEvents").as_array();
  for (const json::Value& ev : events) {
    if (ev.at("ph").as_string() != "X")
      schema_error("trace events must be complete (ph == \"X\")");
    const long long dur = ev.at("dur").as_int();
    if (ev.at("ts").as_int() < 0 || dur < 0)
      schema_error("span timestamps must be non-negative");
    SpanStats& s = by_name[{ev.at("cat").as_string(), ev.at("name").as_string()}];
    s.count += 1;
    s.total_us += dur;
    s.max_us = std::max(s.max_us, dur);
  }

  std::cout << "trace: " << events.size() << " span(s)";
  if (events.empty())
    std::cout << " (observability hooks compiled out, or nothing traced)";
  std::cout << '\n';
  if (!by_name.empty()) {
    Table table({"cat", "span", "count", "total us", "max us"});
    for (const auto& [key, s] : by_name)
      table.begin_row()
          .add(key.first)
          .add(key.second)
          .add(s.count)
          .add(s.total_us)
          .add(s.max_us);
    table.print(std::cout);
  }

  const json::Value& metrics = doc.at("metrics");
  print_counters(metrics.at("counters"));
  print_histograms(metrics.at("histograms"));
  return 0;
}

int cmd_bench(const std::string& path) {
  const json::Value doc = json::parse(slurp(path));
  const std::string& schema = doc.at("schema").as_string();
  if (schema != "rdt-bench-v2")
    schema_error("expected schema rdt-bench-v2, got '" + schema + "'");

  const double wall = doc.at("wall_seconds").as_double();
  if (wall <= 0) schema_error("wall_seconds must be positive");
  std::cout << "experiment: " << doc.at("experiment").as_string() << " (" << wall << " s)\n";
  // A section carries either a per-protocol sweep ("protocols" array) or
  // free-form "metrics"; the observability section is of the second form.
  const auto& sections = doc.at("sections").as_array();
  if (sections.empty()) schema_error("a report needs at least one section");
  Table table({"section", "payload"});
  const json::Value* observability = nullptr;
  for (const json::Value& section : sections) {
    const std::string& name = section.at("name").as_string();
    if (const json::Value* protocols = section.find("protocols"))
      table.begin_row().add(name).add(
          std::to_string(protocols->as_array().size()) + " protocol(s)");
    else if (section.find("metrics") != nullptr)
      table.begin_row().add(name).add("metrics");
    else
      schema_error("section '" + name + "' has neither protocols nor metrics");
    if (name == "observability") observability = &section.at("metrics");
  }
  table.print(std::cout);

  if (observability != nullptr) {
    std::cout << "\nobservability: hooks "
              << (observability->at("hooks_compiled_in").as_bool()
                      ? "compiled in"
                      : "compiled out")
              << ", " << observability->at("trace_events").as_int()
              << " trace event(s)\n";
    print_counters(observability->at("counters"));
    print_histograms(observability->at("histograms"));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc != 3) usage();
    const std::string command = argv[1];
    if (command == "trace") return cmd_trace(argv[2]);
    if (command == "bench") return cmd_bench(argv[2]);
    usage();
  } catch (const UsageError&) {
    return 2;
  } catch (const std::exception& e) {
    // Only the commands throw std::exception, so argv[2] is present here.
    std::cerr << "rdt-stats: " << argv[2] << ": " << e.what() << '\n';
    return 1;
  }
}
