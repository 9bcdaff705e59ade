#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>

namespace rdt::lint {

namespace {

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Finds `needle` in `hay` at or after `from`, requiring word boundaries on
// both sides (so "std::mutex" never matches inside "AnnotatedMutexes").
std::size_t find_token(std::string_view hay, std::string_view needle,
                       std::size_t from) {
  for (std::size_t pos = hay.find(needle, from); pos != std::string_view::npos;
       pos = hay.find(needle, pos + 1)) {
    const bool left_ok = pos == 0 || !is_word(hay[pos - 1]);
    const std::size_t end = pos + needle.size();
    const bool right_ok = end >= hay.size() || !is_word(hay[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string_view::npos;
}

int line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<int>(
                 std::count(text.begin(), text.begin() + static_cast<long>(pos),
                            '\n'));
}

// The raw (unstripped) source line containing `pos` — where the inline
// suppression comments live.
std::string_view raw_line(std::string_view raw, std::size_t pos) {
  const std::size_t begin = raw.rfind('\n', pos);
  const std::size_t start = begin == std::string_view::npos ? 0 : begin + 1;
  std::size_t end = raw.find('\n', pos);
  if (end == std::string_view::npos) end = raw.size();
  return raw.substr(start, end - start);
}

bool suppressed(std::string_view raw, std::size_t pos, std::string_view rule) {
  const std::string_view line = raw_line(raw, pos);
  const std::size_t at = line.find("rdt-lint: allow(");
  if (at == std::string_view::npos) return false;
  const std::string_view rest = line.substr(at + 16);
  return rest.substr(0, rule.size()) == rule &&
         rest.size() > rule.size() && rest[rule.size()] == ')';
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool path_contains(std::string_view path, std::string_view part) {
  return path.find(part) != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// bare-mutex: outside util/thread_annotations.hpp (and the linter itself,
// whose rule tables spell the forbidden names), synchronization goes through
// rdt::AnnotatedMutex / rdt::MutexLock so Clang's thread-safety analysis can
// see every acquire. std::call_once/std::once_flag stay allowed: TSA has no
// model for them and the lazy caches in core/ depend on their semantics.
constexpr std::array<std::string_view, 10> kBareMutexNeedles = {
    "std::mutex",        "std::recursive_mutex",
    "std::timed_mutex",  "std::recursive_timed_mutex",
    "std::shared_mutex", "std::shared_timed_mutex",
    "std::lock_guard",   "std::unique_lock",
    "std::scoped_lock",  "std::shared_lock",
};

bool bare_mutex_exempt(std::string_view path) {
  return ends_with(path, "util/thread_annotations.hpp") ||
         ends_with(path, "tools/rdt_lint.cpp") ||
         path_contains(path, "tools/lint/");
}

void rule_bare_mutex(const FileInput& file, std::string_view stripped,
                     std::vector<Finding>& out) {
  if (bare_mutex_exempt(file.path)) return;
  for (const std::string_view needle : kBareMutexNeedles) {
    for (std::size_t pos = find_token(stripped, needle, 0);
         pos != std::string_view::npos;
         pos = find_token(stripped, needle, pos + 1)) {
      if (suppressed(file.text, pos, "bare-mutex")) continue;
      out.push_back({file.path, line_of(stripped, pos), "bare-mutex",
                     std::string(needle) +
                         " is banned: use rdt::AnnotatedMutex / rdt::MutexLock "
                         "(util/thread_annotations.hpp) so TSA sees the lock"});
    }
  }
}

// ---------------------------------------------------------------------------
// obs-hot-path: the per-event TUs must not talk to the observability layer
// directly — they go through obs/hooks.hpp (RDT_COUNT / RDT_TRACE_SPAN and
// the ObsSession accessors), which compile to nothing when RDT_OBS is off.
// Naming MetricsRegistry/TraceLog, or including their headers, in a hot TU
// reintroduces an unconditional dependency the hooks layer exists to hide.
constexpr std::array<std::string_view, 5> kHotPathTUs = {
    "sim/replay.cpp",
    "sim/protocol_driver.hpp",
    "sim/runner.cpp",
    "des/simulator.cpp",
    "online/engine.cpp",
};

bool is_hot_path(const FileInput& file) {
  for (const std::string_view tu : kHotPathTUs)
    if (ends_with(file.path, tu)) return true;
  return file.text.find("rdt-lint: hot-path") != std::string::npos;
}

void rule_obs_hot_path(const FileInput& file, std::string_view stripped,
                       std::vector<Finding>& out) {
  if (!is_hot_path(file)) return;
  // The stripper blanks string-literal contents, so the include paths are
  // searched in the raw text; #include only ever appears at line starts in
  // this codebase, which keeps the raw search safe.
  for (const std::string_view inc :
       {std::string_view("#include \"obs/metrics.hpp\""),
        std::string_view("#include \"obs/trace_log.hpp\"")}) {
    for (std::size_t pos = file.text.find(inc); pos != std::string::npos;
         pos = file.text.find(inc, pos + 1)) {
      if (suppressed(file.text, pos, "obs-hot-path")) continue;
      out.push_back({file.path, line_of(file.text, pos), "obs-hot-path",
                     "hot-path TU includes an observability header directly; "
                     "include \"obs/hooks.hpp\" instead"});
    }
  }
  for (const std::string_view name :
       {std::string_view("MetricsRegistry"), std::string_view("TraceLog")}) {
    for (std::size_t pos = find_token(stripped, name, 0);
         pos != std::string_view::npos;
         pos = find_token(stripped, name, pos + 1)) {
      if (suppressed(file.text, pos, "obs-hot-path")) continue;
      out.push_back({file.path, line_of(stripped, pos), "obs-hot-path",
                     std::string(name) +
                         " named in a hot-path TU; use the RDT_COUNT / "
                         "RDT_TRACE_SPAN macros or the ObsSession accessors"});
    }
  }
}

// ---------------------------------------------------------------------------
// ticket-atomics: every member the feeder mutates in a TU that brackets its
// writes with a seqlock WriteTicket must be atomic (readers load it
// race-free), a PublishedLog or PublishedHeads (util/published_log.hpp:
// release/acquire publication), a mutex, or on
// the audited feeder-private allowlist below (state readers never touch).
// A plain member mutated in such a TU is exactly the bug the seqlock write
// bracket exists to prevent: a torn read on the lock-free query path.

// Feeder-private state, audited: guarded by feed_mu_ (or rc_.mu for rc_)
// and never read by the lock-free query path. Each entry is a deliberate,
// reviewed exemption — extend only with the matching GUARDED_BY annotation.
constexpr std::array<std::string_view, 13> kTicketAllowlist = {
    "machine_",    // feeder-private TDV machine, GUARDED_BY(feed_mu_)
    "clocks_",     // feeder-private vector clocks, GUARDED_BY(feed_mu_)
    "state_",      // per-process state + publish marks, GUARDED_BY(feed_mu_)
    "msgs_",       // feeder-private message table, GUARDED_BY(feed_mu_)
    "slab_",       // piggyback snapshot slab, GUARDED_BY(feed_mu_)
    "node_marks_", // per-node edge-log marks, GUARDED_BY(feed_mu_)
    "node_ids_",   // feeder-side node table, GUARDED_BY(feed_mu_)
    "rc_",         // reader cache, all fields GUARDED_BY(rc_.mu)
    "retention_",  // retention policy, set at init/reset, GUARDED_BY(feed_mu_)
    "msgs_base_",  // message-window base, GUARDED_BY(feed_mu_)
    "events_since_compact_",    // compaction cadence, GUARDED_BY(feed_mu_)
    "events_since_mem_probe_",  // accounting cadence, GUARDED_BY(feed_mu_)
    "shadow_",     // audit-only keep-all twin, GUARDED_BY(feed_mu_)
};

enum class MemberClass { kPlain, kAtomic, kLog, kMutex };

struct Member {
  std::string name;
  MemberClass cls = MemberClass::kPlain;
};

// Heuristic member-declaration scan over stripped text: a line ending in
// ';' whose declarator is a trailing-underscore identifier (the codebase's
// member convention) optionally followed by an RDT_* annotation and an
// initializer. Good enough because the convention is universal here.
void collect_members(std::string_view stripped, std::vector<Member>& out) {
  std::size_t start = 0;
  while (start < stripped.size()) {
    std::size_t end = stripped.find('\n', start);
    if (end == std::string_view::npos) end = stripped.size();
    std::string_view line = stripped.substr(start, end - start);
    start = end + 1;
    // Trim and demand a declaration-looking line.
    while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                line.front())) != 0)
      line.remove_prefix(1);
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back())) != 0)
      line.remove_suffix(1);
    if (line.empty() || line.back() != ';') continue;
    if (line.find('(') != std::string_view::npos &&
        line.find("RDT_") == std::string_view::npos)
      continue;  // function declaration (annotation parens are fine)
    // Find the declarator: the first identifier ending in '_' whose next
    // token is ';', an initializer, or an RDT_* annotation.
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (!is_word(line[i]) || (i > 0 && is_word(line[i - 1]))) continue;
      std::size_t j = i;
      while (j < line.size() && is_word(line[j])) ++j;
      if (line[j - 1] != '_' || j - i < 2) continue;
      std::size_t k = j;
      while (k < line.size() &&
             std::isspace(static_cast<unsigned char>(line[k])) != 0)
        ++k;
      const bool decl = k < line.size() &&
                        (line[k] == ';' || line[k] == '=' || line[k] == '{' ||
                         line.substr(k, 4) == "RDT_");
      if (!decl || i == 0) continue;  // need a type before the name
      const std::string_view type = line.substr(0, i);
      Member m;
      m.name = std::string(line.substr(i, j - i));
      // First declaration wins (the sibling header is scanned first, so a
      // statement mis-parsed as a declaration cannot reclassify a member).
      if (std::any_of(out.begin(), out.end(),
                      [&](const Member& x) { return x.name == m.name; }))
        break;
      if (type.find("atomic") != std::string_view::npos ||
          type.find("PubProc") != std::string_view::npos)
        m.cls = MemberClass::kAtomic;  // PubProc: a struct of atomics
      else if (type.find("PublishedLog") != std::string_view::npos ||
               type.find("PublishedHeads") != std::string_view::npos)
        m.cls = MemberClass::kLog;
      else if (type.find("Mutex") != std::string_view::npos ||
               type.find("mutex") != std::string_view::npos)
        m.cls = MemberClass::kMutex;
      out.push_back(std::move(m));
      break;
    }
  }
}

// Method names that mutate their object.
constexpr std::array<std::string_view, 16> kMutators = {
    "push_back", "emplace_back", "pop_back", "clear",  "resize", "reserve",
    "assign",    "insert",       "erase",    "reset",  "emplace", "swap",
    "tick",      "merge",        "store",    "exchange",
};

bool is_mutator(std::string_view name) {
  if (std::find(kMutators.begin(), kMutators.end(), name) != kMutators.end())
    return true;
  return name.substr(0, 6) == "fetch_";
}

// Does the occurrence of a member at [pos, pos+len) mutate it? Walks the
// postfix chain (subscripts, field/method accesses) and then inspects the
// trailing operator, plus a prefix ++/-- check.
bool is_mutation(std::string_view s, std::size_t pos, std::size_t len,
                 bool atomic_like) {
  // Prefix increment/decrement.
  std::size_t b = pos;
  while (b > 0 && std::isspace(static_cast<unsigned char>(s[b - 1])) != 0) --b;
  if (b >= 2 && ((s[b - 1] == '+' && s[b - 2] == '+') ||
                 (s[b - 1] == '-' && s[b - 2] == '-')))
    return true;
  // A type directly before the token makes this a declarator — an
  // initializer (`int count_ = 0;`) is not a mutation.
  if (b > 0 && (is_word(s[b - 1]) || s[b - 1] == '>' || s[b - 1] == ']' ||
                s[b - 1] == '&' || s[b - 1] == '*'))
    return false;

  std::size_t i = pos + len;
  auto skip_ws = [&] {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0)
      ++i;
  };
  for (;;) {
    skip_ws();
    if (i < s.size() && s[i] == '[') {  // subscript: still the same lvalue
      int depth = 0;
      while (i < s.size()) {
        if (s[i] == '[') ++depth;
        if (s[i] == ']' && --depth == 0) {
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    if (i < s.size() && s[i] == '.') {
      ++i;
      skip_ws();
      const std::size_t m0 = i;
      while (i < s.size() && is_word(s[i])) ++i;
      const std::string_view method = s.substr(m0, i - m0);
      skip_ws();
      if (i < s.size() && s[i] == '(')
        return is_mutator(method) && !atomic_like;
      continue;  // plain field access: keep walking the chain
    }
    break;
  }
  if (i >= s.size()) return false;
  if (s[i] == '+' || s[i] == '-') {
    if (i + 1 < s.size() && s[i + 1] == s[i]) return true;       // postfix ++
    if (i + 1 < s.size() && s[i + 1] == '=') return !atomic_like;  // +=
    return false;
  }
  if ((s[i] == '*' || s[i] == '/' || s[i] == '%' || s[i] == '&' ||
       s[i] == '|' || s[i] == '^') &&
      i + 1 < s.size() && s[i + 1] == '=')
    return !atomic_like;
  if (s[i] == '=' && (i + 1 >= s.size() || s[i + 1] != '='))
    return !atomic_like;  // plain assignment (atomics assign via store())
  return false;
}

void rule_ticket_atomics(const FileInput& file, std::string_view stripped,
                         std::string_view header_stripped,
                         std::vector<Finding>& out) {
  if (find_token(stripped, "WriteTicket", 0) == std::string_view::npos) return;
  std::vector<Member> members;
  collect_members(header_stripped, members);
  collect_members(stripped, members);
  for (const Member& m : members) {
    const bool allowlisted =
        std::find(kTicketAllowlist.begin(), kTicketAllowlist.end(), m.name) !=
        kTicketAllowlist.end();
    if (m.cls == MemberClass::kLog || m.cls == MemberClass::kMutex) continue;
    for (std::size_t pos = find_token(stripped, m.name, 0);
         pos != std::string_view::npos;
         pos = find_token(stripped, m.name, pos + 1)) {
      if (!is_mutation(stripped, pos, m.name.size(),
                       m.cls == MemberClass::kAtomic))
        continue;
      if (m.cls == MemberClass::kAtomic || allowlisted) continue;
      if (suppressed(file.text, pos, "ticket-atomics")) continue;
      out.push_back(
          {file.path, line_of(stripped, pos), "ticket-atomics",
           "member '" + m.name +
               "' is mutated in a WriteTicket TU but is neither atomic, a "
               "published log or heads array, nor on the audited "
               "feeder-private allowlist"});
    }
  }
}

// ---------------------------------------------------------------------------
// bitspan-trim: BitSpan's representation invariant is an all-zero tail
// beyond num_bits. The raw word kernels (bitkern::or_into &c.) do not
// re-establish it, so any function calling them must trim the tail or hold
// an audited tail_zero proof — otherwise popcounts and equality silently
// corrupt (the exact bug class the BitSpan::trim() seam closed).
constexpr std::array<std::string_view, 2> kRawOrKernels = {"or_into",
                                                           "or_into_changed"};

bool bitspan_exempt(std::string_view path) {
  return path_contains(path, "util/bit_kernels") ||
         ends_with(path, "util/bit_matrix.hpp");
}

// The outermost function-like brace block containing `pos` (lambdas and
// nested blocks stay inside it). Returns npos/npos when none.
std::pair<std::size_t, std::size_t> enclosing_function(std::string_view s,
                                                       std::size_t pos) {
  std::size_t best_open = std::string_view::npos;
  std::size_t best_close = std::string_view::npos;
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < s.size() && i <= pos; ++i) {
    if (s[i] == '{') stack.push_back(i);
    if (s[i] == '}' && !stack.empty()) stack.pop_back();
  }
  for (const std::size_t open : stack) {
    // Function-like: '{' preceded (modulo specifiers) by a ')' whose
    // matching '(' is not a control-flow head.
    std::size_t j = open;
    bool fn = false;
    for (;;) {
      while (j > 0 &&
             std::isspace(static_cast<unsigned char>(s[j - 1])) != 0)
        --j;
      if (j == 0) break;
      if (is_word(s[j - 1])) {
        std::size_t w = j;
        while (w > 0 && is_word(s[w - 1])) --w;
        const std::string_view word = s.substr(w, j - w);
        if (word == "const" || word == "noexcept" || word == "override" ||
            word == "final" || word == "mutable" || word == "try") {
          j = w;
          continue;
        }
        break;
      }
      if (s[j - 1] == ')') {
        int depth = 0;
        std::size_t k = j;
        while (k > 0) {
          --k;
          if (s[k] == ')') ++depth;
          if (s[k] == '(' && --depth == 0) break;
        }
        std::size_t w = k;
        while (w > 0 &&
               std::isspace(static_cast<unsigned char>(s[w - 1])) != 0)
          --w;
        std::size_t ws = w;
        while (ws > 0 && is_word(s[ws - 1])) --ws;
        const std::string_view head = s.substr(ws, w - ws);
        fn = head != "if" && head != "while" && head != "for" &&
             head != "switch" && head != "catch";
      }
      break;
    }
    if (fn) {
      // Find the matching close.
      int depth = 0;
      std::size_t close = std::string_view::npos;
      for (std::size_t k = open; k < s.size(); ++k) {
        if (s[k] == '{') ++depth;
        if (s[k] == '}' && --depth == 0) {
          close = k;
          break;
        }
      }
      best_open = open;
      best_close = close;
      break;  // outermost function-like block wins
    }
  }
  return {best_open, best_close};
}

void rule_bitspan_trim(const FileInput& file, std::string_view stripped,
                       std::vector<Finding>& out) {
  if (bitspan_exempt(file.path)) return;
  for (const std::string_view kernel : kRawOrKernels) {
    for (std::size_t pos = find_token(stripped, kernel, 0);
         pos != std::string_view::npos;
         pos = find_token(stripped, kernel, pos + 1)) {
      const auto [open, close] = enclosing_function(stripped, pos);
      if (open != std::string_view::npos) {
        const std::string_view body = stripped.substr(
            open, (close == std::string_view::npos ? stripped.size() : close) -
                      open);
        if (body.find("trim_tail") != std::string_view::npos ||
            find_token(body, "trim", 0) != std::string_view::npos ||
            body.find("tail_zero") != std::string_view::npos)
          continue;
      }
      if (suppressed(file.text, pos, "bitspan-trim")) continue;
      out.push_back({file.path, line_of(stripped, pos), "bitspan-trim",
                     std::string(kernel) +
                         " without trim_tail/tail_zero in the enclosing "
                         "function: the BitSpan tail invariant is unprotected"});
    }
  }
}

// ---------------------------------------------------------------------------
// bool-zreach: the retention-aware engine (online/options.hpp) replaced the
// raw `bool zreach(...)` query with the structured ZreachResult, whose
// status distinguishes an evicted operand from an invalid one. Declaring a
// zreach that returns plain bool reintroduces the surface that conflated
// "unreachable" with "unanswerable" — new code must return a QueryResult.
// (The batch-side `zreach(bool causal_only)` accessor is untouched: there
// `bool` is a parameter, not the return type preceding the name.)
void rule_bool_zreach(const FileInput& file, std::string_view stripped,
                      std::vector<Finding>& out) {
  for (std::size_t pos = find_token(stripped, "zreach", 0);
       pos != std::string_view::npos;
       pos = find_token(stripped, "zreach", pos + 1)) {
    // The token immediately before `zreach` must be the return type `bool`.
    std::size_t b = pos;
    while (b > 0 && std::isspace(static_cast<unsigned char>(stripped[b - 1])) != 0)
      --b;
    std::size_t w = b;
    while (w > 0 && is_word(stripped[w - 1])) --w;
    if (stripped.substr(w, b - w) != "bool") continue;
    // Only a declaration/definition counts: the name must open a parameter
    // list (a call site cannot start with `bool`, but stay precise anyway).
    std::size_t i = pos + 6;
    while (i < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[i])) != 0)
      ++i;
    if (i >= stripped.size() || stripped[i] != '(') continue;
    if (suppressed(file.text, pos, "bool-zreach")) continue;
    out.push_back({file.path, line_of(stripped, pos), "bool-zreach",
                   "zreach declared with a raw bool return; return "
                   "ZreachResult (online/options.hpp) so evicted/invalid "
                   "operands stay distinguishable"});
  }
}

// ---------------------------------------------------------------------------
// flat-piggyback: PR 10 made piggyback cost a measured quantity — replays
// route payloads through the declared PiggybackCodec and report what the
// encoder actually put on the wire. The analytic flat layout
// (flat_piggyback_bits, and the retired v1 report key
// piggyback_bits_per_message) survives only inside the codec/measurement
// layer as a labeled comparison column; reading it anywhere else resurrects
// the flat-256 lie the codecs were built to retire.
constexpr std::array<std::string_view, 2> kFlatPiggybackNeedles = {
    "flat_piggyback_bits", "piggyback_bits_per_message"};

bool flat_piggyback_exempt(std::string_view path) {
  return path_contains(path, "src/protocols/") ||
         path_contains(path, "src/sim/") || path_contains(path, "tools/lint/");
}

void rule_flat_piggyback(const FileInput& file, std::string_view stripped,
                         std::vector<Finding>& out) {
  if (flat_piggyback_exempt(file.path)) return;
  for (const std::string_view needle : kFlatPiggybackNeedles) {
    for (std::size_t pos = find_token(stripped, needle, 0);
         pos != std::string_view::npos;
         pos = find_token(stripped, needle, pos + 1)) {
      if (suppressed(file.text, pos, "flat-piggyback")) continue;
      out.push_back({file.path, line_of(stripped, pos), "flat-piggyback",
                     std::string(needle) +
                         " outside the codec layer: report measured wire "
                         "bits (piggyback_bits(kind, n), "
                         "ReplayResult::wire_bits_total) instead"});
    }
  }
}

}  // namespace

std::string strip_comments_and_strings(std::string_view text) {
  std::string out(text);
  std::size_t i = 0;
  const std::size_t n = text.size();
  auto blank = [&](std::size_t pos) {
    if (out[pos] != '\n') out[pos] = ' ';
  };
  while (i < n) {
    const char c = text[i];
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') blank(i++);
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      blank(i++);
      blank(i++);
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) blank(i++);
      if (i + 1 < n) {
        blank(i++);
        blank(i++);
      }
    } else if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      // Raw string literal: R"delim( ... )delim"
      std::size_t d = i + 2;
      while (d < n && text[d] != '(') ++d;
      std::string closer;  // built piecewise: GCC 12 -Wrestrict misfires on
      closer.push_back(')');  // the temporary-chain spelling
      closer.append(text.substr(i + 2, d - (i + 2)));
      closer.push_back('"');
      const std::size_t end = text.find(closer, d);
      const std::size_t stop =
          end == std::string_view::npos ? n : end + closer.size();
      while (i < stop) blank(i++);
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      blank(i++);
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) blank(i++);
        blank(i++);
      }
      if (i < n) blank(i++);
    } else {
      ++i;
    }
  }
  return out;
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"ticket-atomics",
       "members mutated in a WriteTicket TU must be atomic, PublishedLog, "
       "PublishedHeads, or audited feeder-private"},
      {"bare-mutex",
       "std::mutex/std::lock_guard are banned outside the annotated wrappers"},
      {"obs-hot-path",
       "hot-path TUs must use obs/hooks.hpp, never MetricsRegistry/TraceLog "
       "directly"},
      {"bitspan-trim",
       "raw or_into kernels need trim_tail/tail_zero in the enclosing "
       "function"},
      {"bool-zreach",
       "zreach must return ZreachResult, not a raw bool that conflates "
       "evicted and unreachable"},
      {"flat-piggyback",
       "outside the codec layer, piggyback cost is measured wire bits; the "
       "analytic flat column is a codec-layer comparison only"},
  };
  return kRules;
}

std::vector<Finding> lint_file(const FileInput& file,
                               const FileInput& sibling_header) {
  const std::string stripped = strip_comments_and_strings(file.text);
  const std::string header_stripped =
      strip_comments_and_strings(sibling_header.text);
  std::vector<Finding> out;
  rule_ticket_atomics(file, stripped, header_stripped, out);
  rule_bare_mutex(file, stripped, out);
  rule_obs_hot_path(file, stripped, out);
  rule_bitspan_trim(file, stripped, out);
  rule_bool_zreach(file, stripped, out);
  rule_flat_piggyback(file, stripped, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return a.line < b.line;
  });
  return out;
}

}  // namespace rdt::lint
