#include "io/record.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "io/json.h"

namespace divpp::io {

namespace {

bool is_separator(char c) { return c == ' ' || c == '\n'; }

[[noreturn]] void malformed(const RecordReader& in, const char* what,
                            std::string_view token) {
  in.fail(std::string("malformed ") + what + " '" + std::string(token) + "'");
}

/// from_chars over the whole token: a partial parse is malformed, and so
/// is anything from_chars refuses (a leading '+' or whitespace).
template <typename T>
T parse_whole(const RecordReader& in, std::string_view token,
              const char* what, auto... format) {
  T value{};
  const auto [ptr, ec] = std::from_chars(
      token.data(), token.data() + token.size(), value, format...);
  if (ec == std::errc::result_out_of_range)
    in.fail(std::string(what) + " out of range: '" + std::string(token) +
            "'");
  if (ec != std::errc{} || ptr != token.data() + token.size())
    malformed(in, what, token);
  return value;
}

/// Writes the low \p count nibbles of \p value, most significant first.
char* put_hex(char* out, std::uint64_t value, int count) {
  for (int i = count - 1; i >= 0; --i, value >>= 4)
    out[i] = "0123456789abcdef"[value & 0xf];
  return out + count;
}

}  // namespace

RecordWriter& RecordWriter::hex_word(std::uint64_t value) {
  char buffer[16];
  return word(std::string_view(buffer, put_hex(buffer, value, 16)));
}

RecordWriter& RecordWriter::hex_double(double value) {
  char buffer[32];
  char* out = buffer;
  if (std::isfinite(value)) {
    if (std::signbit(value)) *out++ = '-';
    out = std::copy_n("0x", 2, out);
    value = std::fabs(value);
  }
  if (std::fpclassify(value) != FP_SUBNORMAL) {
    out = std::to_chars(out, buffer + sizeof buffer, value,
                        std::chars_format::hex).ptr;
  } else {
    // to_chars normalises subnormals ("1p-1074"); %a keeps the leading
    // zero digit ("0x0.0000000000001p-1022"), and so must the format.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    out = put_hex(std::copy_n("0.", 2, out), bits, 13);
    while (out[-1] == '0') --out;
    out = std::copy_n("p-1022", 6, out);
  }
  return word(std::string_view(buffer, out));
}

RecordWriter& RecordWriter::quoted(const std::string& bytes) {
  return word(json_quote(bytes));
}

void RecordReader::fail(const std::string& what) const {
  throw std::invalid_argument(context_ + ": " + what);
}

void RecordReader::skip_separators() {
  while (pos_ < text_.size() && is_separator(text_[pos_])) ++pos_;
}

std::string_view RecordReader::next() {
  skip_separators();
  const std::size_t begin = pos_;
  while (pos_ < text_.size() && !is_separator(text_[pos_])) ++pos_;
  return text_.substr(begin, pos_ - begin);
}

std::string_view RecordReader::token(const char* what) {
  const std::string_view token = next();
  if (token.empty())
    fail(std::string("truncated input (expected ") + what + ")");
  return token;
}

void RecordReader::keyword(std::string_view expected) {
  const std::string_view got = next();
  if (got != expected)
    fail(std::string("expected '").append(expected) + "', got '" +
         std::string(got) + "'");
}

bool RecordReader::accept(std::string_view word) {
  const std::size_t start = pos_;
  if (next() == word) return true;
  pos_ = start;
  return false;
}

std::int64_t RecordReader::int64(const char* what, std::int64_t min,
                                 std::int64_t max) {
  const auto value = parse_whole<std::int64_t>(*this, token(what), what);
  if (value < min || value > max)
    fail(std::string(what) + " out of range [" + std::to_string(min) + ", " +
         std::to_string(max) + "]: " + std::to_string(value));
  return value;
}

std::uint64_t RecordReader::uint64(const char* what) {
  return parse_whole<std::uint64_t>(*this, token(what), what);
}

std::uint64_t RecordReader::hex_word(const char* what) {
  const std::string_view text = token(what);
  if (text.size() > 16) malformed(*this, what, text);
  return parse_whole<std::uint64_t>(*this, text, what, 16);
}

double RecordReader::real(const char* what) {
  const std::string_view text = token(what);
  const bool negative = text.front() == '-';
  std::string_view hex = text.substr(negative ? 1 : 0);
  if (!hex.starts_with("0x"))
    return parse_whole<double>(*this, text, what, std::chars_format::general);
  // from_chars would take a sign, inf or nan after the prefix; %a never
  // writes them there.
  hex.remove_prefix(2);
  if (hex.empty() || !std::isxdigit(static_cast<unsigned char>(hex[0])))
    malformed(*this, what, text);
  const auto value =
      parse_whole<double>(*this, hex, what, std::chars_format::hex);
  return negative ? -value : value;
}

std::string RecordReader::quoted(const char* what) {
  skip_separators();
  if (pos_ == text_.size() || text_[pos_] != '"')
    fail(std::string("expected a quoted ") + what);
  std::size_t end = pos_ + 1;
  while (end < text_.size() && text_[end] != '"')
    end += text_[end] == '\\' ? 2 : 1;  // skip the escaped byte
  if (end >= text_.size()) fail(std::string("unterminated quoted ") + what);
  const std::string_view raw = text_.substr(pos_, end + 1 - pos_);
  pos_ = end + 1;
  return json_unquote(raw);
}

void RecordReader::expect_end() {
  const std::string_view rest = next();
  if (!rest.empty()) fail("trailing garbage '" + std::string(rest) + "'");
}

}  // namespace divpp::io
