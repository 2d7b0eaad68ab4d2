#include "io/args.h"

#include <sstream>
#include <stdexcept>

namespace divpp::io {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0)
      throw std::invalid_argument("Args: expected --flag, got '" + token + "'");
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[token] = argv[++i];
    } else {
      values_[token] = "true";  // bare flag == boolean true
    }
  }
}

const std::string* Args::find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Args::has(const std::string& name) const {
  return find(name) != nullptr;
}

void Args::reject_unknown() const {
  for (const auto& [name, value] : values_)
    if (read_.count(name) == 0)
      throw std::invalid_argument("Args: unknown flag --" + name);
}

namespace {

// Wraps std::stoll/std::stod so a bad value reports the flag it came
// from ("--replicas expects an integer, got 'true'") instead of leaking
// a bare std::invalid_argument("stoll").  Trailing garbage ("12abc") is
// rejected too: the whole value must parse.
std::int64_t parse_int(const std::string& name, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const std::int64_t parsed = std::stoll(value, &consumed);
    if (consumed == value.size()) return parsed;
  } catch (const std::exception&) {
    // fall through to the uniform error below
  }
  throw std::invalid_argument("Args: --" + name +
                              " expects an integer, got '" + value + "'");
}

double parse_double(const std::string& name, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed == value.size()) return parsed;
  } catch (const std::exception&) {
    // fall through to the uniform error below
  }
  throw std::invalid_argument("Args: --" + name +
                              " expects a number, got '" + value + "'");
}

}  // namespace

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : parse_int(name, *value);
}

double Args::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : parse_double(name, *value);
}

std::string Args::get_string(const std::string& name,
                             std::string fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

namespace {

std::vector<std::string> split_commas(const std::string& value) {
  std::vector<std::string> parts;
  std::stringstream stream(value);
  std::string part;
  while (std::getline(stream, part, ',')) parts.push_back(part);
  return parts;
}

}  // namespace

std::vector<std::int64_t> Args::get_int_list(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  std::vector<std::int64_t> out;
  for (const std::string& part : split_commas(*value))
    out.push_back(parse_int(name, part));
  if (out.empty())
    throw std::invalid_argument("Args: empty list for --" + name);
  return out;
}

std::vector<double> Args::get_double_list(const std::string& name,
                                          std::vector<double> fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  std::vector<double> out;
  for (const std::string& part : split_commas(*value))
    out.push_back(parse_double(name, part));
  if (out.empty())
    throw std::invalid_argument("Args: empty list for --" + name);
  return out;
}

}  // namespace divpp::io
