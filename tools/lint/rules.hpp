// rdt-lint — the project-specific rules no generic tool knows.
//
// Clang's thread-safety analysis proves the mutex contracts; clang-tidy and
// the sanitizers cover the generic C++ hazards. What is left is exactly the
// set of invariants this codebase invented for itself — the seqlock write
// bracket, the annotated-mutex house rule, the hot-path observability
// macros, BitSpan's trimmed-tail representation, the structured zreach
// answer, the measured piggyback column — and those only a bespoke checker
// can see. The checks are textual
// (comment/string-stripped, token-boundary aware), deliberately so: they
// run on any file in milliseconds with no compile database, and each rule
// targets a pattern precise enough that text is sufficient.
//
// Every rule can be suppressed on a single line with
//     // rdt-lint: allow(<rule-id>)
// and a TU can opt *into* the hot-path rules with
//     // rdt-lint: hot-path
// (see docs/analysis.md, "Concurrency contract", for the contract each rule
// enforces and why).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rdt::lint {

// One diagnostic: `path:line: [rule] message`.
struct Finding {
  std::string path;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

// A file handed to the linter. `path` is used for reporting and for the
// path-based rule scoping (hot-path TU list, allowlisted seams).
struct FileInput {
  std::string path;
  std::string text;
};

// Static description of one rule, for --list-rules and the fixture tests.
struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

// All rules, in the order they run.
const std::vector<RuleInfo>& rules();

// Lint one file. `sibling_header` is the same-basename .hpp next to a .cpp
// (empty when absent): the ticket-atomics rule needs the class's member
// declarations, which live in the header. Findings come back in line order.
std::vector<Finding> lint_file(const FileInput& file,
                               const FileInput& sibling_header);

// Replaces comment bodies and string/char literal contents with spaces,
// preserving every byte offset and newline, so token searches cannot match
// inside prose. Exposed for the unit tests.
std::string strip_comments_and_strings(std::string_view text);

}  // namespace rdt::lint
