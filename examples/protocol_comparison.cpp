// Side-by-side protocol comparison on a chosen environment — an
// interactive, smaller sibling of the bench_* experiment binaries.
//
// Every protocol comes from the ProtocolRegistry, and the "ensures RDT"
// column contrasts the registry's *claim* with what the RDT checker
// *observes* on a replayed pattern — the visible characterization, checked.
//
// Usage: protocol_comparison [random|group|client-server] [seeds]
#include <functional>
#include <iostream>
#include <string>

#include "rdt.hpp"
#include "util/table.hpp"

using namespace rdt;

int main(int argc, char** argv) {
  const std::string env = argc > 1 ? argv[1] : "random";
  const int seeds = argc > 2 ? std::stoi(argv[2]) : 5;

  std::function<Trace(std::uint64_t)> generate;
  if (env == "random") {
    generate = [](std::uint64_t seed) {
      RandomEnvConfig cfg;
      cfg.num_processes = 8;
      cfg.duration = 200;
      cfg.basic_ckpt_mean = 10.0;
      cfg.seed = seed;
      return random_environment(cfg);
    };
  } else if (env == "group") {
    generate = [](std::uint64_t seed) {
      GroupEnvConfig cfg;
      cfg.num_groups = 4;
      cfg.group_size = 4;
      cfg.overlap = 1;
      cfg.duration = 200;
      cfg.basic_ckpt_mean = 10.0;
      cfg.seed = seed;
      return group_environment(cfg);
    };
  } else if (env == "client-server") {
    generate = [](std::uint64_t seed) {
      ClientServerEnvConfig cfg;
      cfg.num_servers = 8;
      cfg.num_requests = 150;
      cfg.basic_ckpt_mean = 10.0;
      cfg.seed = seed;
      return client_server_environment(cfg);
    };
  } else {
    std::cerr << "usage: " << argv[0]
              << " [random|group|client-server] [seeds]\n";
    return 1;
  }

  std::cout << "environment: " << env << ", " << seeds << " seed(s)\n\n";
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  std::vector<ProtocolKind> kinds;
  kinds.reserve(registry.all().size());
  for (const ProtocolInfo& info : registry.all()) kinds.push_back(info.kind);
  const auto stats = sweep(generate, kinds, seeds, /*threads=*/1);

  Table table({"protocol", "codec", "R = forced/basic", "forced/message",
               "wire bits/msg", "flat bits/msg", "ensures RDT"});
  for (const ProtocolStats& s : stats) {
    const ProtocolInfo& info = registry.info(s.kind);
    // Verify the registry's RDT claim on one replayed pattern per protocol.
    const ReplayResult one = replay(generate(1), s.kind);
    const bool observed = satisfies_rdt(one.pattern);
    table.begin_row()
        .add(info.id)
        .add(to_cstring(info.codec))
        .add(s.r_forced_per_basic.mean, 3)
        .add(s.forced_per_message.mean, 3)
        .add(s.wire_bits.mean, 1)
        .add(s.flat_bits.mean, 0)
        .add(info.ensures_rdt ? (observed ? "yes" : "CLAIMED, VIOLATED")
                              : (observed ? "no (held here)" : "no"));
  }
  table.print(std::cout);
  std::cout << "\nno-force takes no forced checkpoints and (generally) "
               "violates RDT;\nevery other protocol guarantees it at "
               "decreasing cost from CBR down to BHMR.\nBCS prevents useless "
               "checkpoints but claims no RDT guarantee.\n";
  return 0;
}
