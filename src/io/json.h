#ifndef DIVPP_IO_JSON_H
#define DIVPP_IO_JSON_H

/// \file json.h
/// A minimal, insertion-ordered JSON object writer.
///
/// Benches print one JSON summary line (timings, thread counts, headline
/// statistics) alongside their human-readable tables so sweeps can be
/// harvested by scripts without scraping table text.  This is a writer
/// plus one inverse, json_unquote, which the token codec (io/record.h)
/// uses to read back the strings checkpoints, manifests and supervisor
/// frames quoted themselves.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace divpp::io {

/// A JSON object built key by key; keys render in insertion order.
/// Non-finite doubles render as null (JSON has no NaN/Inf).
class Json {
 public:
  Json& set(const std::string& key, double value);
  Json& set(const std::string& key, std::int64_t value);
  Json& set(const std::string& key, int value);
  Json& set(const std::string& key, bool value);
  Json& set(const std::string& key, const char* value);
  Json& set(const std::string& key, const std::string& value);
  Json& set(const std::string& key, const Json& child);
  Json& set(const std::string& key, std::span<const double> values);
  Json& set(const std::string& key, std::span<const std::int64_t> values);

  /// Single-line rendering, e.g. {"bench":"e14","threads":4}.
  [[nodiscard]] std::string to_string() const;

 private:
  Json& set_raw(const std::string& key, std::string rendered);

  std::vector<std::pair<std::string, std::string>> members_;
};

/// Renders a double as a JSON number (null when non-finite), with enough
/// digits to round-trip.
[[nodiscard]] std::string json_number(double value);

/// Escapes and quotes a string for JSON: quotes, backslashes, and the
/// short escapes \n \r \t \b \f; every other byte below 0x20 renders as
/// \u00XX.  Bytes >= 0x20 pass through unchanged (the writer is
/// encoding-agnostic: UTF-8 in, UTF-8 out).
[[nodiscard]] std::string json_quote(const std::string& value);

/// Inverse of json_quote: parses one quoted JSON string (including the
/// surrounding quotes) back to raw bytes.  Accepts the escapes
/// json_quote emits plus \/ and \uXXXX up to 0x00FF (one byte out);
/// \uXXXX above 0xFF is rejected — json_quote never emits it and the
/// manifest round-trips bytes, not code points.
/// \throws std::invalid_argument on anything malformed (missing quotes,
/// dangling escape, unknown escape, raw control character).
[[nodiscard]] std::string json_unquote(std::string_view quoted);

}  // namespace divpp::io

#endif  // DIVPP_IO_JSON_H
