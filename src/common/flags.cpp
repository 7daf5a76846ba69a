#include "common/flags.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "common/check.hpp"

namespace das {

void Flags::define(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  DAS_CHECK_MSG(!name.empty() && name[0] != '-', "flag names are bare words");
  Entry entry;
  entry.value = default_value;
  entry.default_value = default_value;
  entry.help = help;
  const bool inserted = entries_.emplace(name, std::move(entry)).second;
  DAS_CHECK_MSG(inserted, "duplicate flag definition: " + name);
}

bool Flags::parse(int argc, const char* const* argv, std::string* error) {
  DAS_CHECK(error != nullptr);
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(token));
      continue;
    }
    token.erase(0, 2);
    std::string name = token;
    std::optional<std::string> value;
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      name = token.substr(0, eq);
      value = token.substr(eq + 1);
    }
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      *error = "unknown flag: --" + name;
      return false;
    }
    if (!value) {
      // Bare boolean form (--verbose) or --name value form.
      const bool looks_bool = it->second.default_value == "true" ||
                              it->second.default_value == "false";
      if (looks_bool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        *error = "flag --" + name + " needs a value";
        return false;
      }
    }
    if (it->second.explicitly_set) {
      // Silent last-one-wins makes a fat-fingered sweep command lie about
      // what it ran; reject instead, deterministically.
      *error = "duplicate flag: --" + name;
      return false;
    }
    it->second.value = *value;
    it->second.explicitly_set = true;
  }
  return true;
}

bool Flags::has(const std::string& name) const { return entries_.contains(name); }

bool Flags::set_on_command_line(const std::string& name) const {
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.explicitly_set;
}

std::string Flags::get_string(const std::string& name) const {
  const auto it = entries_.find(name);
  DAS_CHECK_MSG(it != entries_.end(), "undeclared flag: " + name);
  return it->second.value;
}

namespace {

/// Parses all of `flag`'s value with `parse` (std::stoll / std::stod), turning
/// the standard library's unnamed errors into ones that name the flag.
template <typename Parse>
auto parse_number(const std::string& flag, const std::string& value,
                  const char* kind, Parse parse) {
  const std::string bad = "flag --" + flag + " is not " + kind + ": " + value;
  std::size_t pos = 0;
  try {
    const auto out = parse(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(bad);
    return out;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("flag --" + flag + " is out of range: " + value);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(bad);
  }
}

}  // namespace

std::int64_t Flags::get_int(const std::string& name) const {
  return parse_number(name, get_string(name), "an integer",
                      [](const std::string& v, std::size_t* pos) {
                        return std::stoll(v, pos);
                      });
}

std::uint64_t Flags::get_count(const std::string& name) const {
  const std::int64_t v = get_int(name);
  if (v < 0) {
    throw std::invalid_argument("flag --" + name +
                                " must be non-negative: " + get_string(name));
  }
  return static_cast<std::uint64_t>(v);
}

double Flags::get_double(const std::string& name) const {
  return parse_number(name, get_string(name), "a number",
                      [](const std::string& v, std::size_t* pos) {
                        return std::stod(v, pos);
                      });
}

bool Flags::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("flag --" + name + " is not a boolean: " + v);
}

void Flags::print_help(std::ostream& os, const std::string& program) const {
  os << "usage: " << program << " [flags]\n\n";
  std::size_t width = 0;
  for (const auto& [name, entry] : entries_) width = std::max(width, name.size());
  for (const auto& [name, entry] : entries_) {
    os << "  --" << name << std::string(width - name.size() + 2, ' ')
       << entry.help;
    if (!entry.default_value.empty()) os << " (default: " << entry.default_value << ")";
    os << '\n';
  }
}

}  // namespace das
