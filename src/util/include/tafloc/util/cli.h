// Tiny command-line argument parser for examples and bench binaries.
//
// Supports `--key=value` and `--flag` forms.  Unknown keys are kept and
// can be listed (google-benchmark flags pass through untouched).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace tafloc {

/// ArgParser -- parse argv once, then query typed values with defaults.
class ArgParser {
 public:
  /// Parse `argv[1..argc)`.  Arguments not starting with "--" are
  /// collected as positionals.
  ArgParser(int argc, const char* const* argv);

  /// True if `--key` or `--key=...` was present.
  bool has(const std::string& key) const;

  /// String value of `--key=value`; `fallback` when absent.
  std::string get_string(const std::string& key, const std::string& fallback) const;

  /// Numeric value; throws std::invalid_argument when present but unparsable.
  double get_double(const std::string& key, double fallback) const;
  long get_long(const std::string& key, long fallback) const;

  /// Comma-separated numbers (`--key=1,2.5,-3`); throws
  /// std::invalid_argument on an empty element or a non-numeric one.
  std::vector<double> get_doubles(const std::string& key, std::vector<double> fallback) const;

  /// Boolean: `--key` alone or `--key=true/false/1/0`.
  bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non --) arguments in order.
  const std::vector<std::string>& positionals() const noexcept { return positionals_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace tafloc
