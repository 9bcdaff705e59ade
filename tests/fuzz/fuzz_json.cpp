// libFuzzer harness for the util/json DOM parser — the reading half of the
// rdt-bench-v2 / rdt-trace-v1 pipeline (tools/rdt_stats feeds it files from
// disk, i.e. untrusted bytes). Same contract as the other parsers:
// arbitrary input either parses into a Value or throws std::invalid_argument;
// logic_error, bad_alloc, deep-recursion crashes and signals are bugs.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "util/json.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  // Reports and traces are small; bound pathological inputs.
  if (size > (1u << 20)) return 0;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  try {
    const rdt::json::Value v = rdt::json::parse(text);
    // Exercise the typed accessors' error paths too.
    (void)v.find("schema");
    if (v.is_object()) (void)v.as_object().size();
    if (v.is_array()) (void)v.as_array().size();
  } catch (const std::invalid_argument&) {
    // Malformed input, correctly rejected.
  }
  return 0;
}
