#ifndef DIVPP_IO_RECORD_H
#define DIVPP_IO_RECORD_H

/// \file record.h
/// The one token codec behind checkpoint v2 (core/checkpoint.cpp), the
/// sweep manifest (runtime/sweep_runner.cpp) and supervisor frames
/// (runtime/supervisor.cpp).  A record is words, integers, hex words,
/// doubles and json_quote'd strings (io/json.h) separated by spaces and
/// newlines.  Doubles are written as C99 hexfloats, byte-identical to
/// printf("%a"), so they round-trip bit-exactly; the reader takes
/// decimals too.  Both sides use std::to_chars / std::from_chars, so no
/// locale changes the bytes.  Callers keep their own grammar.

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace divpp::io {

/// Appends tokens to a record, one space between the tokens of a line.
class RecordWriter {
 public:
  RecordWriter& word(std::string_view token) {
    if (!out_.empty() && out_.back() != '\n') out_.push_back(' ');
    out_.append(token);
    return *this;
  }

  template <std::integral T>
  RecordWriter& integer(T value) {
    char buffer[24];
    return word(std::string_view(
        buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr));
  }

  /// 16 lower-case hex digits, zero-padded.
  RecordWriter& hex_word(std::uint64_t value);

  /// "[-]0x<hex>" when finite, else "inf", "-inf", "nan" or "-nan".
  RecordWriter& hex_double(double value);

  /// The json_quote'd bytes.
  RecordWriter& quoted(const std::string& bytes);

  RecordWriter& end_line() {
    out_.push_back('\n');
    return *this;
  }

  /// Moves the record out; the writer is spent.
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads the tokens of one record in order.  Bytes other than space and
/// newline, tabs included, belong to tokens; a token must parse whole.
/// Every failure throws std::invalid_argument("<context>: <what>").
class RecordReader {
 public:
  /// \p text must outlive the reader and the tokens it returns.
  RecordReader(std::string_view text, std::string context)
      : text_(text), context_(std::move(context)) {}

  /// The next token; throws at the end of the input.
  std::string_view token(const char* what);

  /// Consumes the next token, which must equal \p expected.
  void keyword(std::string_view expected);

  /// Consumes the next token if it equals \p word.
  bool accept(std::string_view word);

  /// Decimal integers, no '+'; int64 must lie in [min, max].
  std::int64_t int64(const char* what, std::int64_t min = INT64_MIN,
                     std::int64_t max = INT64_MAX);
  std::uint64_t uint64(const char* what);

  /// At most 16 hex digits, no prefix.
  std::uint64_t hex_word(const char* what);

  /// A hexfloat "[-]0x<hex>" (no sign after the prefix) or a decimal.
  /// nan and inf parse, so a caller that needs a finite value checks.
  double real(const char* what);

  /// A json_quote'd string, unescaped.
  std::string quoted(const char* what);

  /// Throws unless only separators remain.
  void expect_end();

  [[noreturn]] void fail(const std::string& what) const;

 private:
  /// The next token, or an empty view at the end of the input.
  std::string_view next();
  void skip_separators();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace divpp::io

#endif  // DIVPP_IO_RECORD_H
