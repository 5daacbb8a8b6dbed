// Tiny command-line flag parser for bench/example binaries.
//
// Supports `--name=value`, `--name value`, and bare `--name` for booleans.
// Every flag also reads a TSF_<NAME> environment variable as its default so
// the whole bench suite can be re-scaled without editing command lines
// (e.g. TSF_SEEDS=50 ./bench_fig9_job_perf). A value that does not parse
// whole as the accessor's type is a usage error (exit 2) naming the flag or
// its variable, like an unknown flag.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tsf {

class Flags {
 public:
  // Parses argv; unknown flags are an error (exit 2) so typos do not
  // silently run the default experiment. Positional arguments are kept in
  // positional(). `allowed` lists every legal flag name with a help string.
  Flags(int argc, char** argv,
        std::vector<std::pair<std::string, std::string>> allowed);

  // Typed accessors; `name` without leading dashes. Fall back order:
  // command line > TSF_<NAME> env var > fallback argument. GetInt takes a
  // decimal integer, GetDouble a finite number, GetBool true, 1, yes or an
  // empty value for true and false, 0 or no for false (a bare `--name`
  // reads true).
  std::string GetString(std::string_view name, std::string_view fallback) const;
  std::int64_t GetInt(std::string_view name, std::int64_t fallback) const;
  double GetDouble(std::string_view name, double fallback) const;
  bool GetBool(std::string_view name, bool fallback) const;

  bool Has(std::string_view name) const;
  const std::vector<std::string>& positional() const { return positional_; }

  // Prints `message` and the flag list to stderr and exits with code 2, as
  // an unknown flag does; for values a binary rejects on its own terms.
  [[noreturn]] void Fail(const std::string& message) const;

 private:
  // The raw value for a flag and where it came from (`--name` or
  // `TSF_<NAME>`); false when neither sets it.
  bool Lookup(std::string_view name, std::string* out,
              std::string* source = nullptr) const;

  std::vector<std::pair<std::string, std::string>> allowed_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

}  // namespace tsf
