// One-call facade over the characterization hierarchy: runs every checker
// on a pattern and reports the results side by side. This is what the
// examples, the integration tests and experiment E7 consume.
#pragma once

#include <iosfwd>
#include <string>

#include "core/characterizations.hpp"

namespace rdt {

struct RdtReport {
  CheckResult definitional;   // Definition 3.4 via R-graph + TDV
  CheckResult cm;             // all CM-paths doubled       (<=> RDT)
  CheckResult pcm;            // all prime CM-paths doubled (<=> RDT)
  CheckResult mm;             // all MM-paths doubled       (<=> RDT, Wang)
  CheckResult vcm;            // all CM-paths visibly doubled  (sufficient)
  CheckResult vpcm;           // all prime CM-paths visibly doubled (<=> VCM)
  CheckResult no_z_cycle;     // no zigzag cycles            (necessary)

  // The ground truth the others are measured against.
  bool satisfies_rdt() const { return definitional.ok; }

  // Human-readable multi-line summary.
  std::string summary() const;
};

std::ostream& operator<<(std::ostream& os, const RdtReport& report);

// Runs all checkers. Cost: O(C^2) bits of closure memory, where C is the
// total checkpoint count; the closure and every checker run a machine word
// (64 checkpoints) at a time — O((C + E) * C / 64) for the closure over E
// R-graph edges, O(C * (n + C / 64)) for the definitional check, and per
// non-causal junction O(n + C / 64) plus an O(n * (n + log M))
// visible-doubling scan over M messages. Intended for analysis and
// validation, not for the inner loop of a simulation. The five
// junction-based families run as one fused pass (check_junction_families).
RdtReport analyze_rdt(const Pattern& pattern);
// Same on analyses the caller already built (and can keep reusing).
RdtReport analyze_rdt(const RdtAnalyses& analyses);

// Just the definitional check (cheapest path to a yes/no answer; never
// builds the chain analysis).
bool satisfies_rdt(const Pattern& pattern);
bool satisfies_rdt(const RdtAnalyses& analyses);

}  // namespace rdt
