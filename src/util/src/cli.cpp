#include "tafloc/util/cli.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace tafloc {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

bool ArgParser::has(const std::string& key) const { return values_.count(key) > 0; }

std::string ArgParser::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0')
    throw std::invalid_argument("--" + key + " expects a number, got '" + it->second + "'");
  return v;
}

std::vector<double> ArgParser::get_doubles(const std::string& key,
                                           std::vector<double> fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& list = it->second;
  std::vector<double> values;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string item = list.substr(pos, comma - pos);
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (item.empty() || end != item.c_str() + item.size()) {
      throw std::invalid_argument("--" + key + " expects comma-separated numbers, got '" + list +
                                  "'");
    }
    values.push_back(v);
    if (comma == list.size()) return values;
    pos = comma + 1;
  }
}

long ArgParser::get_long(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0')
    throw std::invalid_argument("--" + key + " expects an integer, got '" + it->second + "'");
  return v;
}

bool ArgParser::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "no") return false;
  throw std::invalid_argument("--" + key + " expects a boolean, got '" + v + "'");
}

}  // namespace tafloc
