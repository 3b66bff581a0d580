#include "hetmem/support/line_codec.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace hetmem::support {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void RecordWriter::put(std::uint64_t value) {
  char digits[24];
  *out_ += ' ';
  char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out_->append(digits, end);
}

void RecordWriter::put(unsigned value) { put(std::uint64_t{value}); }

void RecordWriter::put(bool value) {
  *out_ += ' ';
  *out_ += value ? '1' : '0';
}

void RecordWriter::put(double value) {
  char digits[48];
  const int length = std::snprintf(digits, sizeof(digits), "%a", value);
  *out_ += ' ';
  out_->append(digits, static_cast<std::size_t>(length));
}

std::string_view FieldReader::word() {
  const std::size_t space = rest_.find(' ');
  const std::string_view word = rest_.substr(0, space);
  more_ = space != std::string_view::npos;
  rest_.remove_prefix(more_ ? space + 1 : rest_.size());
  return word;
}

bool FieldReader::get(std::uint64_t& value) {
  const std::string_view digits = word();
  const char* end = digits.data() + digits.size();
  const std::from_chars_result parsed =
      std::from_chars(digits.data(), end, value);
  return parsed.ec == std::errc() && parsed.ptr == end;
}

bool FieldReader::get(unsigned& value) {
  std::uint64_t wide = 0;
  if (!get(wide) || wide > std::numeric_limits<unsigned>::max()) return false;
  value = static_cast<unsigned>(wide);
  return true;
}

bool FieldReader::get(bool& value) {
  std::uint64_t wide = 0;
  if (!get(wide) || wide > 1) return false;
  value = wide == 1;
  return true;
}

bool FieldReader::get(double& value) {
  const std::string owned(word());  // strtod needs a terminated string
  if (owned.empty()) return false;
  char* end = nullptr;
  value = std::strtod(owned.c_str(), &end);
  return end == owned.c_str() + owned.size();
}

std::string_view LineReader::next() {
  const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
  const std::string_view line = text_.substr(pos_, end - pos_);
  pos_ = end < text_.size() ? end + 1 : end;
  ++line_;
  return line;
}

Error LineReader::error(std::string_view what) const {
  return make_error(Errc::kInvalidArgument,
                    std::string(format_) + " parse error at line " +
                        std::to_string(line_) + ": " + std::string(what));
}

}  // namespace hetmem::support
