// Minimal command-line flag parsing for the tools and examples.
//
// Supports --name=value and --name value forms, typed accessors with
// defaults, presence checks, --help text assembly, and strict rejection of
// unknown flags (a typo silently ignored is a wrong experiment silently
// run). No global state: each parser instance owns its registrations.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace das {

class Flags {
 public:
  /// Declares a flag before parsing. `help` is shown by print_help().
  void define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Parses argv (skipping argv[0]). Returns false and fills `error` on an
  /// unknown flag, a missing value, or a flag given twice (last-one-wins
  /// would silently run a different experiment than the command line reads).
  /// Error messages are deterministic: "unknown flag: --x",
  /// "flag --x needs a value", "duplicate flag: --x". Positional arguments
  /// are collected into positionals().
  bool parse(int argc, const char* const* argv, std::string* error);

  bool has(const std::string& name) const;
  /// True if the flag was explicitly set on the command line.
  bool set_on_command_line(const std::string& name) const;

  std::string get_string(const std::string& name) const;
  /// Typed accessors; throw std::invalid_argument naming the flag on a
  /// malformed value (not a number, trailing junk, out of range) so a bad
  /// experiment spec never runs: "flag --x is not an integer: 12x",
  /// "flag --x is out of range: 1e999".
  std::int64_t get_int(const std::string& name) const;
  /// get_int for counts and sizes: also rejects negative values, which a
  /// cast to an unsigned type would wrap to a huge count
  /// ("flag --x must be non-negative: -3").
  std::uint64_t get_count(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  void print_help(std::ostream& os, const std::string& program) const;

 private:
  struct Entry {
    std::string value;
    std::string default_value;
    std::string help;
    bool explicitly_set = false;
  };
  std::map<std::string, Entry> entries_;
  std::vector<std::string> positionals_;
};

}  // namespace das
