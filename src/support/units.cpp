#include "hetmem/support/units.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <iterator>

namespace hetmem::support {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<std::uint64_t> parse_bytes(std::string_view text) {
  // Strip surrounding whitespace.
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  if (text.empty()) return std::nullopt;

  std::size_t num_end = 0;
  while (num_end < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[num_end])) ||
          text[num_end] == '.')) {
    ++num_end;
  }
  if (num_end == 0) return std::nullopt;

  double value = 0.0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + num_end, value);
  if (ec != std::errc{} || ptr != text.data() + num_end) return std::nullopt;

  std::string_view suffix = text.substr(num_end);
  while (!suffix.empty() && std::isspace(static_cast<unsigned char>(suffix.front()))) {
    suffix.remove_prefix(1);
  }

  double multiplier = 1.0;
  if (suffix.empty() || iequals(suffix, "B")) {
    multiplier = 1.0;
  } else if (iequals(suffix, "KiB") || iequals(suffix, "K")) {
    multiplier = static_cast<double>(kKiB);
  } else if (iequals(suffix, "MiB") || iequals(suffix, "M")) {
    multiplier = static_cast<double>(kMiB);
  } else if (iequals(suffix, "GiB") || iequals(suffix, "G")) {
    multiplier = static_cast<double>(kGiB);
  } else if (iequals(suffix, "TiB") || iequals(suffix, "T")) {
    multiplier = static_cast<double>(kTiB);
  } else if (iequals(suffix, "KB")) {
    multiplier = kKB;
  } else if (iequals(suffix, "MB")) {
    multiplier = kMB;
  } else if (iequals(suffix, "GB")) {
    multiplier = kGB;
  } else if (iequals(suffix, "TB")) {
    multiplier = 1e12;
  } else {
    return std::nullopt;
  }
  double bytes = value * multiplier;
  if (bytes < 0 || bytes > 1.8e19) return std::nullopt;
  return static_cast<std::uint64_t>(std::llround(bytes));
}

void append_bytes(std::string& out, std::uint64_t bytes) {
  struct Scale {
    std::uint64_t unit;
    const char* suffix;
  };
  static constexpr Scale kScales[] = {
      {kTiB, "TiB"}, {kGiB, "GiB"}, {kMiB, "MiB"}, {kKiB, "KiB"}};
  for (const auto& s : kScales) {
    if (bytes >= s.unit) {
      append_fixed(out, static_cast<double>(bytes) / static_cast<double>(s.unit),
                   1);
      out += s.suffix;
      return;
    }
  }
  char digits[24];
  const char* end = std::to_chars(digits, std::end(digits), bytes).ptr;
  out.append(digits, static_cast<std::size_t>(end - digits));
  out += 'B';
}

std::string format_bytes(std::uint64_t bytes) {
  std::string out;
  append_bytes(out, bytes);
  return out;
}

std::string format_bandwidth(double bytes_per_second) {
  return format_fixed(bytes_per_second / kGB, 2) + " GB/s";
}

std::string format_latency_ns(double nanoseconds) {
  if (nanoseconds >= 1000.0) {
    return format_fixed(nanoseconds / 1000.0, 2) + " us";
  }
  return format_fixed(nanoseconds, 0) + " ns";
}

void append_fixed(std::string& out, double value, int decimals) {
  // std::to_chars with a precision prints what printf("%.*f") prints in the
  // C locale (both exact, ties to even; inf, -inf, nan, -nan; a negative
  // precision means 6). At most a sign, DBL_MAX's 309 integer digits, the
  // point and the decimals.
  const std::size_t most =
      311 + static_cast<std::size_t>(std::max(decimals, 6));
  char stack[328];
  std::string heap;  // past 17 decimals
  char* begin = stack;
  if (most > sizeof(stack)) {
    heap.resize(most);
    begin = heap.data();
  }
  const char* end = std::to_chars(begin, begin + most, value,
                                  std::chars_format::fixed, decimals)
                        .ptr;
  // (pointer, length): GCC 12 at -O3 flags the iterator-pair append with a
  // false -Wrestrict.
  out.append(begin, static_cast<std::size_t>(end - begin));
}

std::string format_fixed(double value, int decimals) {
  std::string out;
  append_fixed(out, value, decimals);
  return out;
}

}  // namespace hetmem::support
