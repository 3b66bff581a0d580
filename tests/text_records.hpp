// Line and field surgery for the text-format tests (tests/recover_test.cpp,
// tests/trace_test.cpp): split a serialized snapshot or trace into record
// lines, replace one field of one record, and damage the text at random
// the way a crash mid-write or a bad disk could.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "hetmem/support/rng.hpp"

namespace hetmem_test {

/// The text's lines, without their newlines.
inline std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    lines.push_back(text.substr(start, end - start));
    start = end == std::string::npos ? text.size() : end + 1;
  }
  return lines;
}

/// `lines` joined back into a text, with line `at` replaced by `line`.
inline std::string with_line(const std::vector<std::string>& lines,
                             std::size_t at, const std::string& line) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    text += (i == at ? line : lines[i]) + '\n';
  }
  return text;
}

inline std::string first_word(const std::string& line) {
  return line.substr(0, line.find(' '));
}

/// Index of the first line whose tag is `tag`; lines.size() when none is.
inline std::size_t first_tagged(const std::vector<std::string>& lines,
                                const std::string& tag) {
  std::size_t at = 0;
  while (at < lines.size() && first_word(lines[at]) != tag) ++at;
  return at;
}

/// `line` with its `field`-th word after the tag (1-based) set to `value`.
inline std::string with_field(const std::string& line, std::size_t field,
                              const std::string& value) {
  std::size_t begin = 0;
  for (std::size_t skipped = 0; skipped < field; ++skipped) {
    begin = line.find(' ', begin) + 1;
  }
  const std::size_t end = line.find(' ', begin);
  return line.substr(0, begin) + value +
         (end == std::string::npos ? "" : line.substr(end));
}

/// One seeded damage: XORs one byte with a random non-zero value, deletes
/// one line, or truncates the text.
inline std::string damage(std::string text, hetmem::support::Xoshiro256& rng) {
  if (text.empty()) return text;
  switch (rng.next_below(3)) {
    case 0: {
      const std::size_t at = rng.next_below(text.size());
      text[at] = static_cast<char>(text[at] ^ (1 + rng.next_below(255)));
      break;
    }
    case 1: {
      const std::size_t at = rng.next_below(text.size());
      const std::size_t before = at == 0 ? std::string::npos
                                         : text.rfind('\n', at - 1);
      const std::size_t start = before == std::string::npos ? 0 : before + 1;
      const std::size_t end = text.find('\n', at);
      text.erase(start, end == std::string::npos ? std::string::npos
                                                 : end + 1 - start);
      break;
    }
    default:
      text.resize(rng.next_below(text.size()));
      break;
  }
  return text;
}

}  // namespace hetmem_test
