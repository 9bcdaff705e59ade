// rdt-lint's rule engine against the fixture corpus: every known-bad
// snippet must produce exactly its one expected diagnostic, every clean
// snippet none. The fixtures are .cc files (so the format/tidy jobs skip
// them) under tests/fixtures/lint/, compiled never, linted always.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint/rules.hpp"

namespace rdt::lint {
namespace {

namespace fs = std::filesystem;

const fs::path kFixtureDir = RDT_LINT_FIXTURE_DIR;

FileInput load(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return FileInput{path.generic_string(), std::move(ss).str()};
}

std::vector<Finding> lint(const fs::path& path) {
  return lint_file(load(path), FileInput{});
}

struct BadCase {
  const char* file;
  const char* rule;
};

// One entry per negative fixture: the file and the single rule id it must
// trip. A fixture tripping anything else (or twice) is a test failure.
constexpr BadCase kBadCases[] = {
    {"bad_ticket_plain_member.cc", "ticket-atomics"},
    {"bad_ticket_container.cc", "ticket-atomics"},
    {"bad_ticket_plain_heads.cc", "ticket-atomics"},
    {"bad_bare_mutex.cc", "bare-mutex"},
    {"bad_bare_lock_guard.cc", "bare-mutex"},
    {"bad_obs_include.cc", "obs-hot-path"},
    {"bad_obs_registry_call.cc", "obs-hot-path"},
    {"bad_bitspan_untrimmed.cc", "bitspan-trim"},
    {"bad_bitspan_raw_or.cc", "bitspan-trim"},
    {"bad_bool_zreach.cc", "bool-zreach"},
    {"bad_flat_piggyback.cc", "flat-piggyback"},
};

TEST(LintFixtures, EveryBadFixtureTripsExactlyItsRule) {
  for (const BadCase& c : kBadCases) {
    SCOPED_TRACE(c.file);
    const std::vector<Finding> findings = lint(kFixtureDir / "bad" / c.file);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, c.rule);
    EXPECT_GT(findings[0].line, 0);
    EXPECT_FALSE(findings[0].message.empty());
  }
}

TEST(LintFixtures, BadCorpusIsExhaustive) {
  // Every file in bad/ is in the table above — a fixture added without its
  // expectation would otherwise never be checked.
  std::size_t on_disk = 0;
  for (const auto& entry : fs::directory_iterator(kFixtureDir / "bad")) {
    if (entry.path().extension() != ".cc") continue;
    ++on_disk;
    bool known = false;
    for (const BadCase& c : kBadCases)
      known = known || entry.path().filename() == c.file;
    EXPECT_TRUE(known) << "fixture missing from kBadCases: " << entry.path();
  }
  EXPECT_EQ(on_disk, std::size(kBadCases));
}

TEST(LintFixtures, CleanCorpusProducesNoFindings) {
  std::size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(kFixtureDir / "clean")) {
    if (entry.path().extension() != ".cc") continue;
    ++checked;
    const std::vector<Finding> findings = lint(entry.path());
    EXPECT_TRUE(findings.empty())
        << entry.path() << " tripped [" << findings[0].rule << "] "
        << findings[0].message;
  }
  EXPECT_GE(checked, 6u);  // the corpus covers every rule's happy path
}

TEST(LintFixtures, EveryRuleHasANegativeFixture) {
  for (const RuleInfo& rule : rules()) {
    bool covered = false;
    for (const BadCase& c : kBadCases) covered = covered || rule.id == c.rule;
    EXPECT_TRUE(covered) << "rule without a negative fixture: " << rule.id;
  }
}

TEST(LintStrip, PreservesOffsetsAndNewlines) {
  const std::string src = "int a; // trailing std::mutex\n\"std::mutex\" x;\n";
  const std::string stripped = strip_comments_and_strings(src);
  ASSERT_EQ(stripped.size(), src.size());
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 2);
  EXPECT_EQ(stripped.find("std::mutex"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
}

TEST(LintStrip, HandlesBlockCommentsAndRawStrings) {
  const std::string src =
      "/* std::mutex */ int b;\nauto s = R\"(std::lock_guard)\";\n";
  const std::string stripped = strip_comments_and_strings(src);
  ASSERT_EQ(stripped.size(), src.size());
  EXPECT_EQ(stripped.find("std::mutex"), std::string::npos);
  EXPECT_EQ(stripped.find("std::lock_guard"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(LintRules, CommentsAndStringsNeverTrip) {
  FileInput file;
  file.path = "prose.cc";
  file.text =
      "// std::mutex is discussed here, never declared\n"
      "const char* kDoc = \"std::lock_guard<std::mutex>\";\n";
  EXPECT_TRUE(lint_file(file, FileInput{}).empty());
}

TEST(LintRules, InlineAllowSuppressesOnlyItsLine) {
  FileInput file;
  file.path = "two.cc";
  file.text =
      "std::mutex a;  // rdt-lint: allow(bare-mutex)\n"
      "std::mutex b;\n";
  const std::vector<Finding> findings = lint_file(file, FileInput{});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule, "bare-mutex");
}

TEST(LintRules, SiblingHeaderClassifiesMembers) {
  // The atomic declaration lives in the header; the mutation in the source
  // file is fine because the header classifies the member as atomic.
  FileInput header;
  header.path = "engine.hpp";
  header.text = "struct E {\n  std::atomic<int> hits_;\n  int misses_;\n};\n";
  FileInput source;
  source.path = "engine.cpp";
  source.text =
      "void E::f() {\n  const WriteTicket t(seq_);\n"
      "  hits_.store(1);\n  misses_ = 1;\n}\n";
  const std::vector<Finding> findings = lint_file(source, header);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "ticket-atomics");
  EXPECT_EQ(findings[0].line, 4);  // misses_, not hits_
}

TEST(LintRules, RuleTableIsStable) {
  // The ids are API: CI grep lines, suppression comments and the docs all
  // reference them by name.
  ASSERT_EQ(rules().size(), 6u);
  EXPECT_EQ(rules()[0].id, "ticket-atomics");
  EXPECT_EQ(rules()[1].id, "bare-mutex");
  EXPECT_EQ(rules()[2].id, "obs-hot-path");
  EXPECT_EQ(rules()[3].id, "bitspan-trim");
  EXPECT_EQ(rules()[4].id, "bool-zreach");
  EXPECT_EQ(rules()[5].id, "flat-piggyback");
}

}  // namespace
}  // namespace rdt::lint
