#include "util/flags.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "util/text.h"

namespace tsf {
namespace {

// Maps a flag name to its TSF_<NAME> environment variable.
std::string EnvName(std::string_view flag) {
  std::string env = "TSF_";
  for (const char c : flag)
    env += c == '-' ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return env;
}

}  // namespace

Flags::Flags(int argc, char** argv,
             std::vector<std::pair<std::string, std::string>> allowed)
    : allowed_(std::move(allowed)) {
  std::set<std::string> names;
  for (const auto& [name, help] : allowed_) names.insert(name);
  names.insert("help");

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name, value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      // `--flag value` form, unless the next token is another flag.
      if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (!names.contains(name)) Fail("unknown flag --" + name);
    if (name == "help") Fail("usage");
    values_[name] = value;
  }
}

void Flags::Fail(const std::string& message) const {
  std::fprintf(stderr, "error: %s\n\nflags:\n", message.c_str());
  for (const auto& [name, help] : allowed_)
    std::fprintf(stderr, "  --%-18s %s\n", name.c_str(), help.c_str());
  std::exit(2);
}

bool Flags::Lookup(std::string_view name, std::string* out,
                   std::string* source) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    *out = it->second;
    if (source != nullptr) *source = "--" + std::string(name);
    return true;
  }
  const std::string env_name = EnvName(name);
  if (const char* env = std::getenv(env_name.c_str()); env != nullptr) {
    *out = env;
    if (source != nullptr) *source = env_name;
    return true;
  }
  return false;
}

bool Flags::Has(std::string_view name) const {
  std::string ignored;
  return Lookup(name, &ignored);
}

std::string Flags::GetString(std::string_view name, std::string_view fallback) const {
  std::string value;
  return Lookup(name, &value) ? value : std::string(fallback);
}

std::int64_t Flags::GetInt(std::string_view name, std::int64_t fallback) const {
  std::string value, source;
  if (!Lookup(name, &value, &source)) return fallback;
  std::int64_t parsed = 0;
  if (!ParseInt64(value, &parsed))
    Fail("bad value '" + value + "' for " + source + ": expected an integer");
  return parsed;
}

double Flags::GetDouble(std::string_view name, double fallback) const {
  std::string value, source;
  if (!Lookup(name, &value, &source)) return fallback;
  double parsed = 0.0;
  if (!ParseFiniteDouble(value, &parsed))
    Fail("bad value '" + value + "' for " + source +
         ": expected a finite number");
  return parsed;
}

bool Flags::GetBool(std::string_view name, bool fallback) const {
  std::string value, source;
  if (!Lookup(name, &value, &source)) return fallback;
  if (value.empty() || value == "true" || value == "1" || value == "yes")
    return true;
  if (value == "false" || value == "0" || value == "no") return false;
  Fail("bad value '" + value + "' for " + source +
       ": expected true|1|yes or false|0|no");
}

}  // namespace tsf
