#include "util/flags.hpp"
#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace bicord {
namespace {

TEST(ParsePositiveIntTest, AcceptsPlainPositiveIntegers) {
  EXPECT_EQ(parse_positive_int("1"), 1);
  EXPECT_EQ(parse_positive_int("42"), 42);
  EXPECT_EQ(parse_positive_int("600"), 600);
  EXPECT_EQ(parse_positive_int("2147483647"), std::numeric_limits<int>::max());
}

TEST(ParsePositiveIntTest, RejectsGarbage) {
  EXPECT_FALSE(parse_positive_int("").has_value());
  EXPECT_FALSE(parse_positive_int("garbage").has_value());
  EXPECT_FALSE(parse_positive_int("abc123").has_value());
}

TEST(ParsePositiveIntTest, RejectsTrailingJunk) {
  // The std::atoi it replaced would have silently returned 12 here.
  EXPECT_FALSE(parse_positive_int("12abc").has_value());
  EXPECT_FALSE(parse_positive_int("3.5").has_value());
  EXPECT_FALSE(parse_positive_int("7 ").has_value());
}

TEST(ParsePositiveIntTest, RejectsNonPositive) {
  EXPECT_FALSE(parse_positive_int("0").has_value());
  EXPECT_FALSE(parse_positive_int("-5").has_value());
}

TEST(ParsePositiveIntTest, RejectsOutOfRange) {
  // One past INT_MAX, and far past long range.
  EXPECT_FALSE(parse_positive_int("2147483648").has_value());
  EXPECT_FALSE(parse_positive_int("99999999999999999999999999").has_value());
}

TEST(ParseReadersTest, IntegersAreReadWholeAndNeverClamped) {
  std::int64_t i = 7;
  EXPECT_TRUE(parse_i64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_TRUE(parse_i64("+5", &i));
  EXPECT_EQ(i, 5);
  for (const char* bad : {"", "3abc", " 5", "5 ", "1.5", "+-5", "9223372036854775808"}) {
    i = 7;
    EXPECT_FALSE(parse_i64(bad, &i)) << bad;
    EXPECT_EQ(i, 7) << bad;  // untouched on failure
  }
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_u64("18446744073709551616", &u));
  EXPECT_FALSE(parse_u64("-1", &u));
}

TEST(ParseReadersTest, FloatsMustBeFinite) {
  double f = 0.0;
  EXPECT_TRUE(parse_f64("1e-3", &f));
  EXPECT_DOUBLE_EQ(f, 1e-3);
  EXPECT_TRUE(parse_f64("-30", &f));
  EXPECT_DOUBLE_EQ(f, -30.0);
  for (const char* bad : {"", "nan", "inf", "-INF", "1e400", "0.5xyz", "0x10"}) {
    EXPECT_FALSE(parse_f64(bad, &f)) << bad;
  }
}

TEST(ParseReadersTest, DurationsNeedASuffixRoundAndStayBounded) {
  Duration d;
  EXPECT_TRUE(parse_duration("250us", &d));
  EXPECT_EQ(d, Duration::from_us(250));
  EXPECT_TRUE(parse_duration("1.5us", &d));
  EXPECT_EQ(d, Duration::from_us(2));
  EXPECT_TRUE(parse_duration("30ms", &d));
  EXPECT_EQ(d, Duration::from_ms(30));
  EXPECT_TRUE(parse_duration("-5ms", &d));  // the sign is the caller's check
  EXPECT_EQ(d, Duration::from_ms(-5));
  EXPECT_TRUE(parse_duration("1000000s", &d));
  EXPECT_EQ(d, kMaxParsedDuration);
  for (const char* bad : {"", "200", "s", "fastms", "1000001s", "9e12s", "1e300s",
                          "nanms", "infs", "1.5sx"}) {
    EXPECT_FALSE(parse_duration(bad, &d)) << bad;
  }
}

}  // namespace
}  // namespace bicord
