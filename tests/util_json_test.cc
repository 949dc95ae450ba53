#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace qa {
namespace {

JsonValue parse_or_die(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(json_parse(text, &v, &error)) << error << "\n" << text;
  return v;
}

TEST(JsonParse, Scalars) {
  EXPECT_EQ(parse_or_die("null").type, JsonValue::Type::kNull);
  EXPECT_TRUE(parse_or_die("true").boolean);
  EXPECT_FALSE(parse_or_die("false").boolean);
  EXPECT_DOUBLE_EQ(parse_or_die("-12.5e2").number, -1250.0);
  EXPECT_EQ(parse_or_die("\"hi\"").str, "hi");
}

TEST(JsonParse, NestedObjectKeepsMemberOrder) {
  const JsonValue v =
      parse_or_die("{\"z\": 1, \"a\": {\"inner\": [1, 2, 3]}, \"m\": true}");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "z");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "m");
  const JsonValue* inner = v.object[1].second.find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->array.size(), 3u);
  EXPECT_DOUBLE_EQ(inner->array[2].number, 3.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, QuoteRoundTripsAdversarialStrings) {
  const std::string adversarial[] = {
      "plain",
      "with \"quotes\" inside",
      "back\\slash and \\\" mix",
      "new\nline\tand\ttabs\r",
      "control \x01\x02\x1f chars",
      "UTF-8: caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x8e\xac",
      std::string("embedded\0nul", 12),
  };
  for (const std::string& s : adversarial) {
    const JsonValue v = parse_or_die(json_quote(s));
    EXPECT_EQ(v.type, JsonValue::Type::kString);
    EXPECT_EQ(v.str, s) << "round-trip mangled: " << json_quote(s);
  }
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parse_or_die("\"\\u0041\"").str, "A");
  // BMP code point -> 3-byte UTF-8.
  EXPECT_EQ(parse_or_die("\"\\u65e5\"").str, "\xe6\x97\xa5");
  // Surrogate pair -> astral plane (U+1F3AC).
  EXPECT_EQ(parse_or_die("\"\\ud83c\\udfac\"").str, "\xf0\x9f\x8e\xac");
}

TEST(JsonParse, RejectsMalformedInput) {
  const char* bad[] = {
      "",
      "{",
      "[1, 2",
      "{\"a\": }",
      "{\"a\": 1,}",
      "\"unterminated",
      "\"lone \\ud800 surrogate\"",
      "\"bad \\q escape\"",
      "12 34",          // trailing content
      "{\"a\": 1} x",   // trailing content
      "nulL",
      "--5",
  };
  for (const char* text : bad) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(json_parse(text, &v, &error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty());
  }
}

TEST(JsonParse, ErrorCarriesByteOffset) {
  JsonValue v;
  std::string error;
  ASSERT_FALSE(json_parse("{\"a\": 1, \"b\": }", &v, &error));
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

TEST(JsonParse, DepthLimitStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse(deep, &v, &error));
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  // And parses back as a JSON null, keeping artifacts loadable.
  EXPECT_EQ(parse_or_die(json_number(
                             std::numeric_limits<double>::infinity()))
                .type,
            JsonValue::Type::kNull);
}

TEST(JsonNumber, RoundTripsDoubles) {
  for (double d : {0.0, -1.5, 1e-9, 123456789.123456789, 2e300}) {
    const JsonValue v = parse_or_die(json_number(d));
    EXPECT_DOUBLE_EQ(v.number, d);
  }
}

// The formatting json_number(double) had before its to_chars fast path:
// two snprintf calls and a stod round-trip check. Kept here as the
// byte-for-byte reference. stod throws on subnormal text, so callers
// keep it away from subnormals.
std::string reference_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  const std::string full = buf;
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return std::stod(buf) == v ? std::string(buf) : full;
}

TEST(JsonNumber, MatchesTheSnprintfReferenceOnSampledDoubles) {
  Rng rng(20261017);
  std::vector<double> values = {0.0,
                                -0.0,
                                1e21,
                                -1e21,
                                1e12,
                                -1e12,
                                1e12 - 1,
                                1e12 + 1,
                                999999999999.5,
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                0.1 + 0.2,
                                1.0 / 3.0};
  for (int i = 0; i < 30000; ++i) {
    // Integers around +-1e12, where the integer fast path hands over to
    // exponent notation.
    const double offset = rng.uniform(-2e6, 2e6);
    values.push_back(std::round(1e12 + offset));
    values.push_back(std::round(-1e12 + offset));
    // Multiples of 0.1: shortest text is short, yet rarely exact.
    values.push_back(static_cast<double>(
                         static_cast<int64_t>(rng.next_below(2000001)) -
                         1000000) *
                     0.1);
    // Any finite normal double, by raw bits (exponent field 1..2046).
    uint64_t bits = rng.next_u64();
    const uint64_t exponent = 1 + rng.next_below(2046);
    bits = (bits & ~(uint64_t{0x7ff} << 52)) | (exponent << 52);
    double d = 0;
    std::memcpy(&d, &bits, sizeof d);
    // Keep clear of the range whose 12-digit text underflows in stod.
    if (std::fabs(d) > 1e-300) values.push_back(d);
  }
  ASSERT_GE(values.size(), 100000u);
  for (const double v : values) {
    ASSERT_EQ(json_number(v), reference_json_number(v)) << "bits of " << v;
  }
}

TEST(JsonNumber, SubnormalsFormatAndReadBack) {
  // The 12-digit text of these underflows: stod threw std::out_of_range
  // on it, and the export died with an uncaught exception.
  std::vector<double> values = {std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                -std::numeric_limits<double>::min(),
                                4.94e-324, 1e-310, 2.2250738585072009e-308};
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t bits = rng.next_u64() & ~(uint64_t{0x7ff} << 52);
    double d = 0;
    std::memcpy(&d, &bits, sizeof d);
    values.push_back(d);
  }
  for (const double v : values) {
    std::string text;
    ASSERT_NO_THROW(text = json_number(v)) << v;
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    EXPECT_EQ(parse_or_die(text).number, v) << text;
  }
}

TEST(JsonNumber, BufferFormsMatchTheStringForms) {
  char buf[kJsonNumberMaxSize];
  for (const double v : {0.0, -0.0, 1.5, -1e300, 1e21, 0.1,
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(std::string(buf, json_number_to(buf, v)), json_number(v));
  }
  for (const int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1} << 62,
                          std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(std::string(buf, json_number_to(buf, v)), json_number(v));
  }
  const std::string nasty = "a\"b\\c\n\r\t\x01\x1f/\x7f";
  std::string out(json_quote_max_size(nasty.size()), '\0');
  out.resize(static_cast<size_t>(json_quote_to(out.data(), nasty) -
                                 out.data()));
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f/\x7f\"");
  EXPECT_EQ(out, json_quote(nasty));
}

}  // namespace
}  // namespace qa
