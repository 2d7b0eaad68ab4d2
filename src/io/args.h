#ifndef DIVPP_IO_ARGS_H
#define DIVPP_IO_ARGS_H

/// \file args.h
/// Minimal command-line parsing for bench/example binaries.
///
/// Flags take the form `--name=value` or `--name value`.  Every accessor
/// records the name it was asked for; once a program has read all its
/// flags it calls reject_unknown(), so a typo in an experiment sweep
/// fails fast instead of silently running the default configuration.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace divpp::io {

/// Parsed command line with typed, defaulted accessors.  The accessors
/// record each name they are asked for, so one Args is read from one
/// thread at a time.
class Args {
 public:
  /// Parses argv.  \throws std::invalid_argument on malformed flags.
  Args(int argc, const char* const* argv);

  /// True when --name was supplied.
  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed accessors returning fallback when the flag is absent.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated int list, e.g. --ns=1024,4096,16384.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// Comma-separated double list, e.g. --weights=1,2,4.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& name, std::vector<double> fallback) const;

  /// \throws std::invalid_argument naming the first supplied flag that
  /// no accessor has asked for.  Call once, after the last flag read.
  void reject_unknown() const;

  /// Name of the program (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  /// Records `name` as read and returns its supplied value, or null.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;  ///< names the accessors asked for
};

}  // namespace divpp::io

#endif  // DIVPP_IO_ARGS_H
