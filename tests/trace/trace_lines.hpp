// Reading a streamed Chrome trace in tests: the tracer writes one event
// object per line, so per-kind counts and payload fields come straight from
// the lines without a JSON parser.
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace das::trace::testing {

/// The event lines of `json`, metadata included, in file order.
inline std::vector<std::string> event_lines(const std::string& json) {
  std::vector<std::string> lines;
  std::istringstream in{json};
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("    {\"ph\": ", 0) != 0) continue;
    if (line.back() == ',') line.pop_back();
    lines.push_back(line);
  }
  return lines;
}

/// The raw value text of `"key": ...` in `line` (a number, or a string with
/// its quotes); empty when the key is absent.
inline std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + tag.size();
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

inline bool has(const std::string& line, const std::string& text) {
  return line.find(text) != std::string::npos;
}

}  // namespace das::trace::testing
