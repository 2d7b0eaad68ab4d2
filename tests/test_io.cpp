// Tests for the reporting substrate: table rendering (text, markdown,
// CSV), the JSON summary writer, the bench argument parser, and the
// token-record codec shared by checkpoints, manifests and frames.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/args.h"
#include "io/json.h"
#include "io/record.h"
#include "io/table.h"
#include "rng/xoshiro.h"

namespace {

using divpp::io::Args;
using divpp::io::Table;

TEST(TableTest, BuildsAndRendersText) {
  Table table({"n", "error"});
  table.begin_row().add_cell(std::int64_t{1024}).add_cell(0.125, 3);
  table.begin_row().add_cell(std::int64_t{2048}).add_cell(0.0625, 3);
  const std::string text = table.to_text();
  EXPECT_NE(text.find("n"), std::string::npos);
  EXPECT_NE(text.find("1024"), std::string::npos);
  EXPECT_NE(text.find("0.0625"), std::string::npos);
  EXPECT_EQ(table.rows(), 2);
  EXPECT_EQ(table.cell(0, 0), "1024");
}

TEST(TableTest, MarkdownShape) {
  Table table({"a", "b"});
  table.begin_row().add_cell("x").add_cell("y");
  const std::string md = table.to_markdown();
  EXPECT_EQ(md.rfind("| a | b |", 0), 0u);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| x | y |"), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecials) {
  Table table({"name", "value"});
  table.begin_row().add_cell("with,comma").add_cell("quote\"inside");
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(TableTest, UsageErrors) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table table({"one"});
  EXPECT_THROW(table.add_cell("no row yet"), std::logic_error);
  table.begin_row().add_cell("ok");
  EXPECT_THROW(table.add_cell("overflow"), std::logic_error);
  EXPECT_THROW((void)table.cell(0, 5), std::out_of_range);
  EXPECT_THROW((void)table.cell(3, 0), std::out_of_range);
}

TEST(TableTest, IncompleteRowDetectedOnNextBegin) {
  Table table({"a", "b"});
  table.begin_row().add_cell("only one");
  EXPECT_THROW(table.begin_row(), std::logic_error);
}

TEST(FormatDouble, RespectsPrecision) {
  EXPECT_EQ(divpp::io::format_double(3.14159, 3), "3.14");
  EXPECT_EQ(divpp::io::format_double(1000000.0, 4), "1e+06");
}

TEST(Banner, ContainsTitle) {
  const std::string b = divpp::io::banner("Experiment E3");
  EXPECT_NE(b.find("Experiment E3"), std::string::npos);
  EXPECT_NE(b.find("=="), std::string::npos);
}

TEST(ArgsTest, ParsesBothFlagSyntaxes) {
  const char* argv[] = {"prog", "--n=100", "--seed", "7", "--verbose"};
  const Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_EQ(args.get_int("seed", 0), 7);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("n"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.program(), "prog");
}

TEST(ArgsTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const Args args(1, argv);
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_EQ(args.get_string("s", "dflt"), "dflt");
  EXPECT_FALSE(args.get_bool("flag", false));
}

TEST(ArgsTest, ListsParse) {
  const char* argv[] = {"prog", "--ns=1,2,3", "--ws=1.5,2.5"};
  const Args args(3, argv);
  const auto ns = args.get_int_list("ns", {});
  ASSERT_EQ(ns.size(), 3u);
  EXPECT_EQ(ns[2], 3);
  const auto ws = args.get_double_list("ws", {});
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[1], 2.5);
  // Fallback list used when absent.
  const auto fallback = args.get_int_list("absent", {9});
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0], 9);
}

TEST(ArgsTest, RejectsMalformedFlags) {
  const char* argv[] = {"prog", "nodashes"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

// A supplied flag no accessor asked for is a typo: reject_unknown names
// it.  Every accessor counts as a read, present flag or not.
TEST(ArgsTest, UnknownFlagRejected) {
  const char* argv[] = {"prog", "--n=100", "--seeed=7", "--smoke"};
  const Args args(4, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  (void)args.get_int("seed", 1);
  EXPECT_TRUE(args.has("smoke"));
  try {
    args.reject_unknown();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "Args: unknown flag --seeed");
  }
  (void)args.get_int("seeed", 0);
  EXPECT_NO_THROW(args.reject_unknown());
}

// Parse failures must name the flag and the offending value — a bare
// std::stoll "stoll" message is useless in an experiment sweep.
TEST(ArgsTest, IntParseErrorNamesFlagAndValue) {
  const char* argv[] = {"prog", "--replicas"};  // bare flag -> "true"
  const Args args(2, argv);
  try {
    (void)args.get_int("replicas", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--replicas"), std::string::npos) << what;
    EXPECT_NE(what.find("'true'"), std::string::npos) << what;
  }
}

TEST(ArgsTest, DoubleParseErrorNamesFlagAndValue) {
  const char* argv[] = {"prog", "--delta=abc"};
  const Args args(2, argv);
  try {
    (void)args.get_double("delta", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--delta"), std::string::npos) << what;
    EXPECT_NE(what.find("'abc'"), std::string::npos) << what;
  }
}

TEST(ArgsTest, TrailingGarbageRejected) {
  const char* argv[] = {"prog", "--n=12abc", "--x=3.5zzz"};
  const Args args(3, argv);
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("x", 0.0), std::invalid_argument);
}

TEST(ArgsTest, ListParseErrorNamesFlag) {
  const char* argv[] = {"prog", "--ns=1,two,3", "--ws=1.5,x"};
  const Args args(3, argv);
  try {
    (void)args.get_int_list("ns", {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--ns"), std::string::npos) << what;
    EXPECT_NE(what.find("'two'"), std::string::npos) << what;
  }
  EXPECT_THROW((void)args.get_double_list("ws", {}), std::invalid_argument);
}

TEST(JsonTest, RendersInInsertionOrder) {
  divpp::io::Json json;
  json.set("bench", "e14").set("threads", 4).set("ok", true);
  EXPECT_EQ(json.to_string(), "{\"bench\":\"e14\",\"threads\":4,\"ok\":true}");
}

TEST(JsonTest, NestedObjectsAndArrays) {
  divpp::io::Json child;
  child.set("wall_seconds", 0.5);
  const std::vector<std::int64_t> counts = {1, 2, 3};
  divpp::io::Json json;
  json.set("timing", child).set("counts", std::span<const std::int64_t>(counts));
  EXPECT_EQ(json.to_string(),
            "{\"timing\":{\"wall_seconds\":0.5},\"counts\":[1,2,3]}");
}

TEST(JsonTest, EscapesStringsAndNonFiniteNumbers) {
  divpp::io::Json json;
  json.set("name", "a\"b\\c\n").set("nan", std::nan(""));
  EXPECT_EQ(json.to_string(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"nan\":null}");
}

TEST(JsonTest, QuoteEscapesEveryControlCharacter) {
  using divpp::io::json_quote;
  EXPECT_EQ(json_quote("q\"b\\"), "\"q\\\"b\\\\\"");
  EXPECT_EQ(json_quote("\n\r\t\b\f"), "\"\\n\\r\\t\\b\\f\"");
  // Remaining control bytes render as \u00XX; NUL included.
  EXPECT_EQ(json_quote(std::string(1, '\0')), "\"\\u0000\"");
  EXPECT_EQ(json_quote("\x01\x1f"), "\"\\u0001\\u001f\"");
  // Bytes >= 0x20 pass through (the writer is encoding-agnostic).
  EXPECT_EQ(json_quote("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
}

TEST(JsonTest, UnquoteRoundTripsEveryByte) {
  using divpp::io::json_quote;
  using divpp::io::json_unquote;
  // Every single byte 0..255 survives a quote/unquote round trip.
  for (int b = 0; b < 256; ++b) {
    const std::string raw(1, static_cast<char>(b));
    EXPECT_EQ(json_unquote(json_quote(raw)), raw) << "byte " << b;
  }
  // And mixed strings with quotes, backslashes, and embedded NULs.
  const std::string mixed = std::string("a\"b\\c\n\r\t\b\f") +
                            std::string(1, '\0') + "tail \xff";
  EXPECT_EQ(json_unquote(json_quote(mixed)), mixed);
  EXPECT_EQ(json_unquote("\"\""), "");
  EXPECT_EQ(json_unquote("\"a\\/b\""), "a/b");  // accepted, never emitted
}

TEST(JsonTest, UnquoteRejectsMalformedInput) {
  using divpp::io::json_unquote;
  EXPECT_THROW((void)json_unquote(""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("no quotes"), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"open"), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"dangling\\\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"bad\\q\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"\\u12\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"\\uZZZZ\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"\\u0100\""), std::invalid_argument)
      << "multi-byte code points are out of contract";
  EXPECT_THROW((void)json_unquote("\"raw\nnewline\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"inner\"quote\""), std::invalid_argument);
}

// ---- token records (io/record.h) ---------------------------------------

using divpp::io::RecordReader;
using divpp::io::RecordWriter;

std::string hex_token(double value) {
  return RecordWriter().hex_double(value).take();
}

double read_real(const std::string& text) {
  RecordReader in(text, "test");
  const double value = in.real("value");
  in.expect_end();
  return value;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

TEST(RecordCodec, HexfloatsMatchPrintfAndRoundTripBitExactly) {
  using limits = std::numeric_limits<double>;
  // Signed zeros, subnormals (to_chars alone would normalise them), the
  // extremes, infinities and NaNs, then random bit patterns.
  std::vector<double> corpus = {
      0.0, -0.0, 1.0, -1.0, 1.0 / 3.0, 0.1,
      limits::denorm_min(), -limits::denorm_min(), 2.0e-310, -3.7e-320,
      limits::min(), limits::max(), -limits::max(),
      limits::infinity(), -limits::infinity(),
      limits::quiet_NaN(), -limits::quiet_NaN()};
  divpp::rng::Xoshiro256 gen(2105);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = gen();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    corpus.push_back(value);
  }
  for (const double value : corpus) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "%a", value);
    const std::string written = hex_token(value);
    ASSERT_EQ(written, expected) << "bits " << bits_of(value);
    const double read = read_real(written);
    if (std::isnan(value)) {
      // %a spells every NaN "nan" or "-nan": only the sign survives.
      ASSERT_TRUE(std::isnan(read)) << written;
      ASSERT_EQ(std::signbit(read), std::signbit(value)) << written;
    } else {
      ASSERT_EQ(bits_of(read), bits_of(value)) << written;
    }
  }
}

TEST(RecordCodec, ReaderAcceptsDecimalsAndNaN) {
  EXPECT_EQ(read_real("2.5"), 2.5);
  EXPECT_EQ(read_real("-0x1.8p+1"), -3.0);
  EXPECT_TRUE(std::isnan(read_real("nan")));
  EXPECT_TRUE(std::isnan(read_real("-nan")));
  EXPECT_TRUE(std::signbit(read_real("-nan")));
  EXPECT_EQ(read_real("-inf"), -std::numeric_limits<double>::infinity());
}

TEST(RecordCodec, ReaderRejectsFormsNoWriterEmits) {
  const auto rejects_real = [](const std::string& text) {
    EXPECT_THROW((void)read_real(text), std::invalid_argument) << text;
  };
  rejects_real("0x-1p+0");   // sign after the prefix
  rejects_real("0x+1p+0");
  rejects_real("0xinf");
  rejects_real("+1");        // leading '+'
  rejects_real("\t1");       // a tab is not a separator
  rejects_real("1e999");     // out of double range
  rejects_real("1.5x");      // partial token
  rejects_real("0x");
  rejects_real("");          // truncated

  const auto int64_of = [](const std::string& text) {
    RecordReader in(text, "test");
    return in.int64("count");
  };
  EXPECT_EQ(int64_of("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW((void)int64_of("9223372036854775808"), std::invalid_argument);
  EXPECT_THROW((void)int64_of("+1"), std::invalid_argument);
  EXPECT_THROW((void)int64_of("\t1"), std::invalid_argument);
  EXPECT_THROW((void)int64_of("1.0"), std::invalid_argument);
  RecordReader ranged("7", "test");
  EXPECT_THROW((void)ranged.int64("count", 0, 6), std::invalid_argument);
  RecordReader unsigned_in("-1", "test");
  EXPECT_THROW((void)unsigned_in.uint64("seed"), std::invalid_argument);
  RecordReader long_word("00000000000000001", "test");
  EXPECT_THROW((void)long_word.hex_word("word"), std::invalid_argument);

  const auto quoted_of = [](const std::string& text) {
    RecordReader in(text, "test");
    return in.quoted("name");
  };
  EXPECT_THROW((void)quoted_of("\"open"), std::invalid_argument);
  EXPECT_THROW((void)quoted_of("\"dangling\\"), std::invalid_argument);
  EXPECT_THROW((void)quoted_of("bare"), std::invalid_argument);
  EXPECT_THROW((void)quoted_of(""), std::invalid_argument);
}

TEST(RecordCodec, WriterAndReaderAgreeOnEveryTokenKind) {
  RecordWriter out;
  out.word("head").integer(std::int64_t{-42}).integer(std::uint64_t{1} << 63);
  out.end_line().word("rng").hex_word(0xabcULL).hex_word(~0ULL);
  out.quoted("a \"b\" \\ c\n").end_line().word("end").end_line();
  const std::string text = out.take();
  EXPECT_EQ(text,
            "head -42 9223372036854775808\n"
            "rng 0000000000000abc ffffffffffffffff \"a \\\"b\\\" \\\\ c\\n\"\n"
            "end\n");

  RecordReader in(text, "test");
  in.keyword("head");
  EXPECT_EQ(in.int64("a"), -42);
  EXPECT_EQ(in.uint64("b"), std::uint64_t{1} << 63);
  EXPECT_FALSE(in.accept("nope"));
  EXPECT_TRUE(in.accept("rng"));
  EXPECT_EQ(in.hex_word("w"), 0xabcULL);
  EXPECT_EQ(in.hex_word("w"), ~0ULL);
  EXPECT_EQ(in.quoted("q"), "a \"b\" \\ c\n");
  EXPECT_THROW(in.keyword("begin"), std::invalid_argument);
  in.expect_end();  // the failed keyword consumed "end"

  RecordReader trailing("end junk", "ctx");
  trailing.keyword("end");
  try {
    trailing.expect_end();
    FAIL() << "trailing token accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind("ctx: ", 0), 0U) << error.what();
  }
}

}  // namespace
