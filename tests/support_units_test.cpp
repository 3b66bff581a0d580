#include "hetmem/support/units.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "hetmem/support/rng.hpp"

namespace hetmem::support {
namespace {

TEST(ParseBytes, PlainNumbers) {
  EXPECT_EQ(parse_bytes("0"), 0u);
  EXPECT_EQ(parse_bytes("4096"), 4096u);
}

TEST(ParseBytes, BinarySuffixes) {
  EXPECT_EQ(parse_bytes("1KiB"), kKiB);
  EXPECT_EQ(parse_bytes("2MiB"), 2 * kMiB);
  EXPECT_EQ(parse_bytes("96GiB"), 96 * kGiB);
  EXPECT_EQ(parse_bytes("1.5TiB"), kTiB + kTiB / 2);
}

TEST(ParseBytes, DecimalSuffixes) {
  EXPECT_EQ(parse_bytes("1KB"), 1000u);
  EXPECT_EQ(parse_bytes("2GB"), 2000000000u);
}

TEST(ParseBytes, ShortSuffixesAreBinary) {
  EXPECT_EQ(parse_bytes("4K"), 4 * kKiB);
  EXPECT_EQ(parse_bytes("4G"), 4 * kGiB);
}

TEST(ParseBytes, CaseInsensitive) {
  EXPECT_EQ(parse_bytes("1gib"), kGiB);
  EXPECT_EQ(parse_bytes("1GB"), parse_bytes("1gb"));
}

TEST(ParseBytes, ToleratesWhitespace) {
  EXPECT_EQ(parse_bytes("  8 GiB "), 8 * kGiB);
}

TEST(ParseBytes, RejectsGarbage) {
  EXPECT_FALSE(parse_bytes("").has_value());
  EXPECT_FALSE(parse_bytes("GiB").has_value());
  EXPECT_FALSE(parse_bytes("12XB").has_value());
  EXPECT_FALSE(parse_bytes("1e3").has_value());
  EXPECT_FALSE(parse_bytes("-4").has_value());
}

TEST(FormatBytes, PicksLargestUnit) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(kKiB), "1.0KiB");
  EXPECT_EQ(format_bytes(96 * kGiB), "96.0GiB");
  EXPECT_EQ(format_bytes(kTiB + kTiB / 2), "1.5TiB");
}

TEST(FormatBytes, KeepsItsOutputAtEveryUnitBoundary) {
  struct Case {
    std::uint64_t bytes;
    const char* text;
  };
  const Case cases[] = {
      {0, "0B"},
      {kKiB - 1, "1023B"},
      {kKiB, "1.0KiB"},
      {kKiB + 1, "1.0KiB"},
      {1280, "1.2KiB"},  // 1.25 and 1.75 are exact ties: to even
      {1792, "1.8KiB"},
      {kMiB - 1, "1024.0KiB"},
      {kMiB, "1.0MiB"},
      {kMiB + 1, "1.0MiB"},
      {kGiB - 1, "1024.0MiB"},
      {kGiB, "1.0GiB"},
      {kGiB + 1, "1.0GiB"},
      {kTiB - 1, "1024.0GiB"},
      {kTiB, "1.0TiB"},
      {kTiB + 1, "1.0TiB"},
      {UINT64_MAX, "16777216.0TiB"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(format_bytes(c.bytes), c.text) << c.bytes;
    std::string appended = "x";
    append_bytes(appended, c.bytes);
    EXPECT_EQ(appended, std::string("x") + c.text) << c.bytes;
  }
}

TEST(FormatBytes, RoundTripsCommonCapacities) {
  for (std::uint64_t gib : {4u, 24u, 96u, 192u, 768u}) {
    EXPECT_EQ(parse_bytes(format_bytes(gib * kGiB)), gib * kGiB);
  }
}

TEST(FormatBandwidth, DecimalGigabytes) {
  EXPECT_EQ(format_bandwidth(80e9), "80.00 GB/s");
  EXPECT_EQ(format_bandwidth(10.49e9), "10.49 GB/s");
}

TEST(FormatLatency, NanosecondsThenMicroseconds) {
  EXPECT_EQ(format_latency_ns(285.0), "285 ns");
  EXPECT_EQ(format_latency_ns(860.4), "860 ns");
  EXPECT_EQ(format_latency_ns(1900.0), "1.90 us");
}

TEST(GbPerS, Conversion) {
  EXPECT_DOUBLE_EQ(gb_per_s(80.0), 8e10);
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(2.999, 3), "2.999");
}

/// True when append_fixed and format_fixed print what printf's "%.*f"
/// prints for `value` at 0 to `most` decimals (6 is the most any caller
/// asks for); records a failure otherwise.
bool fixed_matches_printf(double value, int most = 6) {
  for (int decimals = 0; decimals <= most; ++decimals) {
    char want[400];  // DBL_MAX has 309 integer digits
    std::snprintf(want, sizeof(want), "%.*f", decimals, value);
    std::string appended = "x";
    append_fixed(appended, value, decimals);
    if (appended.compare(1, std::string::npos, want) != 0 ||
        format_fixed(value, decimals) != want) {
      ADD_FAILURE() << "value " << std::hexfloat << value << " decimals "
                    << decimals << ": printf " << want << ", append_fixed "
                    << appended.substr(1) << ", format_fixed "
                    << format_fixed(value, decimals);
      return false;
    }
  }
  return true;
}

TEST(FormatFixed, MatchesPrintfOnExactTiesAndSpecialValues) {
  // A double is an exact tie at d decimals when it is an odd multiple of
  // 2^-(d+1), so k/1024 holds every tie at 0 to 3 decimals in [0, 4].
  std::vector<double> values = {0.125, 2.5, 0.5, 1.5, 0.0625, 1024.5};
  for (int k = 0; k <= 4096; ++k) values.push_back(k / 1024.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  values.insert(values.end(),
                {0.0, DBL_TRUE_MIN, DBL_MIN - DBL_TRUE_MIN, DBL_MIN / 3,
                 DBL_MIN, 1e300, DBL_MAX, inf, nan, 1e15 + 0.5,
                 4503599627370495.5});
  const std::size_t count = values.size();
  for (std::size_t i = 0; i < count; ++i) values.push_back(-values[i]);
  values.push_back(std::copysign(nan, -1.0));
  for (const double value : values) {
    if (!fixed_matches_printf(value)) break;
  }
  // Past 17 decimals DBL_MAX no longer fits append_fixed's stack buffer.
  for (const double value : {0.1, -DBL_TRUE_MIN, DBL_MAX, -DBL_MAX}) {
    if (!fixed_matches_printf(value, 40)) break;
  }
  EXPECT_EQ(format_fixed(1.5, -1), "1.500000") << "a negative precision is 6";
}

TEST(FormatFixed, MatchesPrintfOnSeededRandomValues) {
  // A million values spread over twenty decades, and scaled binary fractions
  // that land near ties at every magnitude.
  Xoshiro256 rng(20261020);
  for (int i = 0; i < 1'000'000; ++i) {
    double value = 0.0;
    if (i % 4 == 3) {
      value = static_cast<double>(rng.next_below(1ull << 40)) / 1024.0;
    } else {
      value = rng.next_double() *
              std::pow(10.0, static_cast<int>(rng.next_below(22)) - 6);
    }
    if (rng.next_below(2) == 1) value = -value;
    if (!fixed_matches_printf(value)) break;
  }
}

}  // namespace
}  // namespace hetmem::support
