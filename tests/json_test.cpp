// util/json — the DOM parser behind tools/rdt_stats and the trace-export
// round-trip tests. Grammar coverage, typed-accessor contracts, and the
// rejection paths (the parser reads files from disk, i.e. untrusted input;
// tests mirror the fuzz harness's contract: parse or invalid_argument).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace rdt::json {
namespace {

TEST(Json, ScalarsAndLiterals) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse("-1e3").as_double(), -1000.0);
  EXPECT_DOUBLE_EQ(parse("2.5E-1").as_double(), 0.25);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse("  42  ").as_int(), 42);  // surrounding whitespace
}

TEST(Json, IntegerVersusDouble) {
  EXPECT_TRUE(parse("10").is_int());
  EXPECT_TRUE(parse("10.0").is_double());
  EXPECT_TRUE(parse("1e2").is_double());
  // as_double accepts integers (JSON has one number type)...
  EXPECT_DOUBLE_EQ(parse("10").as_double(), 10.0);
  // ...but as_int stays strict.
  EXPECT_THROW(parse("10.0").as_int(), std::invalid_argument);
  // Magnitude beyond long long falls back to double instead of failing.
  EXPECT_TRUE(parse("123456789012345678901234567890").is_double());
  EXPECT_EQ(parse("9223372036854775807").as_int(), 9223372036854775807ll);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  // Raw UTF-8 passes through; \u escapes decode to UTF-8, including the
  // BMP (U+00E9) and surrogate pairs (U+1F600).
  EXPECT_EQ(parse("\"A\xc3\xa9\"").as_string(), "A\xc3\xa9");
  EXPECT_EQ(parse(R"("A\u00e9")").as_string(), "A\xc3\xa9");
  EXPECT_EQ(parse("\"\xf0\x9f\x98\x80\"").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_THROW(parse(R"("\ud83d")"), std::invalid_argument);  // unpaired
  EXPECT_THROW(parse(R"("\ude00")"), std::invalid_argument);  // lone low
  EXPECT_THROW(parse(R"("\x41")"), std::invalid_argument);    // bad escape
  EXPECT_THROW(parse("\"a\nb\""), std::invalid_argument);  // raw control char
}

TEST(Json, ArraysAndObjects) {
  const Value v = parse(R"({"a":[1,2,3],"b":{"c":true},"a":null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.as_object().size(), 3u);  // duplicates preserved...
  EXPECT_EQ(v.at("a").as_array().size(), 3u);  // ...find() takes the first
  EXPECT_EQ(v.at("a").as_array()[2].as_int(), 3);
  EXPECT_EQ(v.at("b").at("c").as_bool(), true);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), std::invalid_argument);
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_TRUE(parse("{}").as_object().empty());
  // Member order is preserved (the writers rely on it for clean diffs).
  const Value ordered = parse(R"({"z":1,"a":2})");
  EXPECT_EQ(ordered.as_object()[0].first, "z");
  EXPECT_EQ(ordered.as_object()[1].first, "a");
}

TEST(Json, AccessorKindMismatchesThrow) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), std::invalid_argument);
  EXPECT_THROW(v.as_string(), std::invalid_argument);
  EXPECT_THROW(v.as_bool(), std::invalid_argument);
  EXPECT_THROW(parse("\"s\"").as_double(), std::invalid_argument);
  EXPECT_EQ(parse("1").find("k"), nullptr);  // find on non-object: absent
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "   ", "{", "[", "[1,]", "{\"a\":}", "{\"a\" 1}", "{a:1}",
        "[1] trailing", "tru", "nul", "01", "-", "1.", "2e+", "+1",
        "\"unterminated", "{\"a\":1,}", "[1 2]", "\x01"}) {
    EXPECT_THROW(parse(bad), std::invalid_argument) << '"' << bad << '"';
  }
  // Error messages carry the byte offset, pattern-parser style.
  try {
    parse("[1, oops]");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, DeepNestingIsBoundedNotFatal) {
  // Beyond the parser's depth limit: must throw, not overflow the stack.
  const std::string deep(100000, '[');
  EXPECT_THROW(parse(deep), std::invalid_argument);
  // A comfortably nested document still parses.
  std::string ok;
  for (int i = 0; i < 100; ++i) ok += '[';
  ok += '1';
  for (int i = 0; i < 100; ++i) ok += ']';
  EXPECT_EQ(parse(ok).as_array().size(), 1u);
}

// write_string is the one string writer behind bench reports and chrome
// traces; whatever it writes, parse() must read back byte for byte.
TEST(Json, WriteStringRoundTripsThroughParse) {
  std::string all_controls;
  for (int c = 0x01; c < 0x20; ++c) all_controls += static_cast<char>(c);
  const std::string cases[] = {"",
                               "plain",
                               "quote \" inside",
                               "back\\slash",
                               "line\nbreak",
                               "tab\tstop",
                               all_controls,
                               "mixed \"\\\n\t\x01\x1f end",
                               "A\xc3\xa9"};
  for (const std::string& s : cases) {
    std::ostringstream os;
    write_string(os, s);
    EXPECT_EQ(parse(os.str()).as_string(), s) << os.str();
  }
  // The escapes themselves are pinned: reports and traces stay byte-stable.
  std::ostringstream os;
  write_string(os, "\"\\\n\t\x01\x1f");
  EXPECT_EQ(os.str(), R"("\"\\\n\t\u0001\u001f")");
}

}  // namespace
}  // namespace rdt::json
