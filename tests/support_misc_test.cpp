#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "hetmem/support/line_codec.hpp"
#include "hetmem/support/rng.hpp"
#include "hetmem/support/str.hpp"
#include "hetmem/support/table.hpp"
#include "hetmem/support/thread_pool.hpp"
#include "hetmem/support/zipf.hpp"

namespace hetmem::support {
namespace {

// --- str ---

TEST(Str, SplitKeepsEmptyTokens) {
  auto tokens = split("a,,b", ',');
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "");
  EXPECT_EQ(tokens[2], "b");
}

TEST(Str, SplitSingleToken) {
  auto tokens = split("abc", ',');
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "abc");
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("no-op"), "no-op");
}

TEST(Str, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(starts_with("value_ns=26", "value_ns="));
  EXPECT_FALSE(starts_with("ns=26", "value_ns="));
}

TEST(Str, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

// --- rng ---

TEST(Rng, Deterministic) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // rough uniformity
}

// --- zipf ---

// Every (ranks, s) pair the sampler is checked on: tiny universes, both sides
// of a power of two (65536 is kv_rotation's), a prime, and skews from
// uniform to a head that absorbs nearly all mass (long runs of equal CDF
// values in the tail).
constexpr std::size_t kZipfRanks[] = {1, 2, 3, 1000, 65536, 65537, 100003};
constexpr double kZipfSkews[] = {0.0, 0.5, 1.0, 1.5, 3.0};
constexpr std::uint64_t kDrawLimit = std::uint64_t{1}
                                     << ZipfDistribution::kDrawBits;

/// The full-range search the guide table replaces: the first rank whose CDF
/// value exceeds u = bits * 2^-53, clamped to the last rank. The CDF is
/// rebuilt from mass_below, which returns the stored entries exactly.
class FullCdfSearch {
 public:
  explicit FullCdfSearch(const ZipfDistribution& zipf) : cdf_(zipf.ranks()) {
    for (std::size_t rank = 0; rank < cdf_.size(); ++rank) {
      cdf_[rank] = zipf.mass_below(rank + 1);
    }
  }
  [[nodiscard]] std::size_t rank(std::uint64_t bits) const {
    const double u = static_cast<double>(bits) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }
  [[nodiscard]] const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;
};

TEST(Zipf, SampleMatchesFullCdfSearchDrawForDraw) {
  for (std::size_t ranks : kZipfRanks) {
    for (double s : kZipfSkews) {
      const ZipfDistribution zipf(ranks, s);
      const FullCdfSearch reference(zipf);
      ASSERT_EQ(zipf.ranks(), ranks);
      Xoshiro256 rng(ranks * 31 + static_cast<std::uint64_t>(s * 8));
      Xoshiro256 mirror = rng;
      for (int draw = 0; draw < 20000; ++draw) {
        const std::size_t expected = reference.rank(mirror.next() >> 11);
        ASSERT_EQ(zipf.sample(rng), expected)
            << "ranks " << ranks << " s " << s << " draw " << draw;
      }
    }
  }
}

TEST(Zipf, BoundaryDrawsMatchFullCdfSearch) {
  for (std::size_t ranks : kZipfRanks) {
    for (double s : kZipfSkews) {
      const ZipfDistribution zipf(ranks, s);
      const FullCdfSearch reference(zipf);
      std::size_t mismatches = 0;
      std::uint64_t first_mismatch = 0;
      auto check = [&](std::uint64_t bits) {
        if (bits >= kDrawLimit) return;
        if (zipf.sample_bits(bits) != reference.rank(bits) &&
            mismatches++ == 0) {
          first_mismatch = bits;
        }
      };
      check(0);
      check(kDrawLimit - 1);  // u = 1 - 2^-53
      // Bucket edges: one bucket per rank rounded up to a power of two, a
      // bucket being the top bits of the 53-bit draw.
      const int bucket_bits = std::bit_width(ranks - 1);
      const int shift = ZipfDistribution::kDrawBits - bucket_bits;
      const std::uint64_t buckets = std::uint64_t{1} << bucket_bits;
      for (std::uint64_t bucket = 1; bucket < buckets; ++bucket) {
        const std::uint64_t edge = bucket << shift;
        check(edge - 1);
        check(edge);
        check(edge + 1);
      }
      // Draws equal to a CDF entry (u == cdf[r] must go to a later rank)
      // and their neighbours.
      for (double value : reference.cdf()) {
        const auto bits = static_cast<std::uint64_t>(std::ldexp(value, 53));
        if (bits > 0) check(bits - 1);
        check(bits);
        check(bits + 1);
      }
      EXPECT_EQ(mismatches, 0u) << "ranks " << ranks << " s " << s
                                << " first at bits " << first_mismatch;
    }
  }
}

TEST(Zipf, EachDrawAdvancesTheGeneratorByOneNext) {
  for (std::size_t ranks : kZipfRanks) {
    const ZipfDistribution zipf(ranks, 1.0);
    Xoshiro256 sampled(ranks);
    Xoshiro256 stepped(ranks);
    for (int draw = 0; draw < 1000; ++draw) {
      (void)zipf.sample(sampled);
      (void)stepped.next();
    }
    EXPECT_EQ(sampled.state(), stepped.state()) << "ranks " << ranks;
  }
}

TEST(Zipf, MassBelowIsTheCdf) {
  const ZipfDistribution uniform(4, 0.0);
  EXPECT_EQ(uniform.mass_below(0), 0.0);
  EXPECT_EQ(uniform.mass_below(1), 0.25);
  EXPECT_EQ(uniform.mass_below(2), 0.5);
  EXPECT_EQ(uniform.mass_below(4), 1.0);
  EXPECT_EQ(uniform.mass_below(9), 1.0);
  const ZipfDistribution skewed(65536, 1.0);
  EXPECT_EQ(skewed.mass_below(65536), 1.0);
  EXPECT_GT(skewed.mass_below(1), 0.08);  // 1 / H(65536) ~ 0.085
  EXPECT_LT(skewed.mass_below(1), 0.09);
}

// --- table ---

TEST(TextTable, RendersHeaderAndRows) {
  TextTable table({"Name", "Value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, ColumnsAlign) {
  TextTable table({"A", "B"});
  table.add_row({"long-name", "1"});
  table.add_row({"x", "2"});
  const std::string out = table.render();
  // Every line has the same width.
  std::size_t width = 0;
  std::size_t start = 0;
  while (start < out.size()) {
    std::size_t end = out.find('\n', start);
    if (end == std::string::npos) break;
    if (width == 0) width = end - start;
    EXPECT_EQ(end - start, width);
    start = end + 1;
  }
}

TEST(TextTable, SeparatorInsertsRule) {
  TextTable table({"A"});
  table.add_row({"1"});
  table.add_separator();
  table.add_row({"2"});
  const std::string out = table.render();
  // Rules: top, under header, before row 2, bottom = 4.
  std::size_t rules = 0;
  std::size_t pos = 0;
  while ((pos = out.find("+-", pos)) != std::string::npos) {
    ++rules;
    pos += 2;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(Banner, ContainsTitle) {
  EXPECT_NE(banner("Table II").find("Table II"), std::string::npos);
}

// --- thread pool ---

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&](std::size_t, std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, HandlesZeroItems) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t, std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, end);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 2);  // every worker sees an empty chunk
}

TEST(ThreadPool, RunOnAllVisitsEveryWorker) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> seen(3);
  pool.run_on_all([&](std::size_t worker) { seen[worker].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, ZeroWorkersClampsToOneAndStillRuns) {
  // Formerly an assert(workers > 0); release builds must survive a computed
  // worker count of 0 (e.g. hardware_concurrency() - N underflowing).
  ThreadPool pool(0);
  std::atomic<int> workers_seen{0};
  pool.run_on_all([&](std::size_t) { workers_seen.fetch_add(1); });
  EXPECT_EQ(workers_seen.load(), 1);

  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, [&](std::size_t, std::size_t begin, std::size_t end) {
      long local = 0;
      for (std::size_t i = begin; i < end; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
  }
  EXPECT_EQ(sum.load(), 50L * (99 * 100 / 2));
}

// --- line codec ---

enum class Shade : std::uint8_t { kLight, kDark, kBlack };

struct Record {
  std::uint64_t wide = 0;
  unsigned narrow = 0;
  bool flag = false;
  double value = 0.0;
  std::array<std::uint64_t, 2> pair{};
  Shade shade = Shade::kLight;
  std::string label;
};

constexpr auto record_fields = [](auto& io, auto& r) {
  return io(r.wide, r.narrow, r.flag, r.value, r.pair) &&
         io.enumeration(r.shade, Shade::kBlack) && io.text(r.label);
};

TEST(LineCodec, WriterAndReaderShareOneFieldList) {
  Record written;
  written.wide = UINT64_MAX;
  written.narrow = 4294967295u;
  written.flag = true;
  written.value = 1.0 / 3.0;
  written.pair = {7, 0};
  written.shade = Shade::kBlack;
  written.label = "two words";
  std::string out;
  RecordWriter writer(out);
  writer.begin("rec");
  record_fields(writer, written);
  writer.end();
  writer.line("pair", 1u, -0.0);
  EXPECT_EQ(out,
            "rec 18446744073709551615 4294967295 1 0x1.5555555555555p-2 7 0 "
            "2 two words\npair 1 -0x0p+0\n");

  const std::string line = out.substr(0, out.find('\n'));
  FieldReader reader(line);
  EXPECT_EQ(reader.word(), "rec");
  Record read;
  ASSERT_TRUE(record_fields(reader, read));
  EXPECT_EQ(read.wide, written.wide);
  EXPECT_EQ(read.narrow, written.narrow);
  EXPECT_EQ(read.flag, written.flag);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(read.value),
            std::bit_cast<std::uint64_t>(written.value));
  EXPECT_EQ(read.pair, written.pair);
  EXPECT_EQ(read.shade, written.shade);
  EXPECT_EQ(read.label, written.label);
}

TEST(LineCodec, ReaderRefusesAFieldPastTheRecord) {
  // A parser checks at_end() after a record's last field: a trailing field,
  // even an empty one after a trailing space, is one field too many.
  auto reads_exactly = [](std::string_view fields) {
    FieldReader reader(fields);
    std::uint64_t a = 0;
    double b = 0.0;
    return reader(a, b) && reader.at_end();
  };
  EXPECT_TRUE(reads_exactly("1 0x1p+0"));
  EXPECT_FALSE(reads_exactly("1 0x1p+0 2"));
  EXPECT_FALSE(reads_exactly("1 0x1p+0 "));
  EXPECT_FALSE(reads_exactly("1 0x1p+0 junk"));

  FieldReader texted("1 free text ");
  std::uint64_t a = 0;
  std::string tail;
  ASSERT_TRUE(texted(a) && texted.text(tail));
  EXPECT_EQ(tail, "free text ");
  EXPECT_TRUE(texted.at_end()) << "free text runs to the end of the line";
}

TEST(LineCodec, ReaderRangeChecksEveryField) {
  auto reads = [](std::string_view fields) {
    FieldReader reader(fields);
    Record r;
    return record_fields(reader, r);
  };
  EXPECT_TRUE(reads("1 2 0 0x1p+0 3 4 0 label"));
  EXPECT_TRUE(reads("1 2 0 0x1p+0 3 4 0 "));  // free text may be empty
  EXPECT_FALSE(reads("1 2 0 0x1p+0 3 4"));     // missing field
  EXPECT_FALSE(reads("18446744073709551616 2 0 0x1p+0 3 4 0 x"));
  EXPECT_FALSE(reads("1 4294967296 0 0x1p+0 3 4 0 x"));
  EXPECT_FALSE(reads("1 2 2 0x1p+0 3 4 0 x"));   // bool other than 0/1
  EXPECT_FALSE(reads("1 2 0 0x1p+0 3 4 3 x"));   // enum past its last
  EXPECT_FALSE(reads("-1 2 0 0x1p+0 3 4 0 x"));  // signs
  EXPECT_FALSE(reads("+1 2 0 0x1p+0 3 4 0 x"));
  EXPECT_FALSE(reads("1 2 0 0x1p+0 \t3 4 0 x"));
  EXPECT_FALSE(reads("1 2 0 0x1q+0 3 4 0 x"));   // trailing junk
  EXPECT_FALSE(reads("1  2 0 0x1p+0 3 4 0 x"));  // empty field

  FieldReader named("");
  std::string name;
  EXPECT_FALSE(named.name(name)) << "a name may not be empty";
}

TEST(LineCodec, LineReaderNumbersItsErrors) {
  LineReader lines("demo", "first\n\nthird");
  EXPECT_EQ(lines.error("nothing read").message,
            "demo parse error at line 0: nothing read");
  EXPECT_EQ(lines.next(), "first");
  EXPECT_EQ(lines.offset(), 6u);
  EXPECT_EQ(lines.next(), "");
  EXPECT_EQ(lines.next(), "third");
  EXPECT_TRUE(lines.done());
  const Error error = lines.error("bad");
  EXPECT_EQ(error.code, Errc::kInvalidArgument);
  EXPECT_EQ(error.message, "demo parse error at line 3: bad");
}

TEST(LineCodec, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace hetmem::support
