/** @file The service JSON layer: strict parsing, malformed-input
 *  rejection, bit-exact double round trips, and canonical-form
 *  (hashing) invariance. */

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

#include "service/json.hh"
#include "util/rng.hh"

namespace gpm::json
{
namespace
{

Value
parseOk(const std::string &text)
{
    auto r = parse(text);
    EXPECT_TRUE(r.ok()) << text << " -> "
                        << (r.ok() ? "" : r.error().message);
    return r.ok() ? r.value() : Value();
}

std::string
parseErr(const std::string &text)
{
    auto r = parse(text);
    EXPECT_FALSE(r.ok()) << text << " unexpectedly parsed";
    return r.ok() ? "" : r.error().message;
}

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").asBool());
    EXPECT_FALSE(parseOk("false").asBool());
    EXPECT_EQ(parseOk("42").asNumber(), 42.0);
    EXPECT_EQ(parseOk("-0.5e2").asNumber(), -50.0);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
    EXPECT_EQ(parseOk("  17 ").asNumber(), 17.0);
}

TEST(Json, ParsesNestedStructures)
{
    Value v = parseOk(
        R"({"a": [1, 2, {"b": null}], "c": {"d": "e"}})");
    ASSERT_TRUE(v.isObject());
    const Value *a = v.find("a");
    ASSERT_TRUE(a && a->isArray());
    ASSERT_EQ(a->asArray().size(), 3u);
    EXPECT_EQ(a->asArray()[1].asNumber(), 2.0);
    EXPECT_TRUE(a->asArray()[2].find("b")->isNull());
    EXPECT_EQ(v.find("c")->find("d")->asString(), "e");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "  ", "{", "[", "\"", "{\"a\":}", "[1,]", "{,}",
          "[1 2]", "{\"a\" 1}", "tru", "nul", "TRUE", "'x'",
          "{\"a\":1,}", "1 2", "[1]]", "{\"a\":1}x", "\x01"})
        parseErr(bad);
}

TEST(Json, RejectsMalformedNumbers)
{
    for (const char *bad : {"01", "1.", ".5", "+1", "1e", "1e+",
                            "--1", "nan", "Infinity", "0x10", "- 1"})
        parseErr(bad);
}

TEST(Json, RejectsDuplicateKeys)
{
    EXPECT_NE(parseErr(R"({"a":1,"a":2})").find("duplicate"),
              std::string::npos);
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(parseOk(R"("a\nb\tc\"d\\e\/f")").asString(),
              "a\nb\tc\"d\\e/f");
    EXPECT_EQ(parseOk(R"("Aé")").asString(),
              "A\xc3\xa9");
    // Astral plane via surrogate pair (U+1F600).
    EXPECT_EQ(parseOk(R"("😀")").asString(),
              "\xf0\x9f\x98\x80");
    parseErr(R"("\ud83d")");       // unpaired high surrogate
    parseErr(R"("\ude00")");       // lone low surrogate
    parseErr(R"("\ud83dA")"); // invalid low surrogate
    parseErr(R"("\q")");           // unknown escape
    parseErr("\"a\nb\"");          // raw control character
}

TEST(Json, SerializerEscapesControlCharacters)
{
    Value v(std::string("a\"b\\c\n\x01"));
    EXPECT_EQ(v.dump(), "\"a\\\"b\\\\c\\n\\u0001\"");
    // And it parses back to the identical string.
    EXPECT_EQ(parseOk(v.dump()).asString(), v.asString());
}

TEST(Json, DepthLimit)
{
    std::string deep40(40, '['), close40(40, ']');
    parseOk(deep40 + "1" + close40);
    std::string deep100(100, '['), close100(100, ']');
    parseErr(deep100 + "1" + close100);
}

TEST(Json, DoublesRoundTripBitExactly)
{
    const double cases[] = {0.0,
                            -0.0,
                            1.0,
                            0.1,
                            1.0 / 3.0,
                            2.0 / 3.0,
                            1e-9,
                            6.02214076e23,
                            123456789.123456789,
                            5e-324,
                            1.7976931348623157e308,
                            0.625,
                            0.925};
    for (double d : cases) {
        std::string s = formatDouble(d);
        double back = parseOk(s).asNumber();
        EXPECT_EQ(std::memcmp(&back, &d, sizeof(double)), 0)
            << d << " -> " << s << " -> " << back;
    }
    EXPECT_EQ(formatDouble(0.5), "0.5"); // shortest form wins
    EXPECT_EQ(formatDouble(5.0), "5");
}

/** The printf definition formatDouble() must reproduce: the
 *  smallest %.{p}g form that strtod()s back to @p d. */
std::string
printfShortest(double d)
{
    if (!std::isfinite(d))
        return "null";
    char buf[32];
    for (int prec = 1; prec <= 17; prec++) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d)
            break;
    }
    return buf;
}

double
fromBits(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

/** Doubles at the edges of the %g and round-trip rules. */
std::vector<double>
edgeDoubles()
{
    std::vector<double> v = {0.0, -0.0, 1.0, -1.0, 0.1, 0.615,
                             1e21, 1e-5, 1e-4, 1e15, 1e16, 1e17,
                             1e22, 1e23, 1e300, -1e300, 5e-324,
                             -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX,
                             DBL_EPSILON, 9007199254740992.0,
                             9007199254740991.0, 123456.0, 1e6,
                             std::ldexp(1.0, -24)};
    // Both sides of the %g fixed/exponent switch points.
    for (double x : {1e21, 1e-5, 1e-4, 1e16, 1e17}) {
        v.push_back(std::nextafter(x, 0.0));
        v.push_back(std::nextafter(x, HUGE_VAL));
    }
    // Exact decimal ties: every power of two, and odd multiples of
    // small ones.
    for (int e = -1074; e <= 1023; e++)
        v.push_back(std::ldexp(1.0, e));
    for (int e = -80; e <= 80; e++)
        for (int m = 1; m < 64; m += 2)
            v.push_back(std::ldexp(static_cast<double>(m), e));
    return v;
}

TEST(Json, FormatDoubleMatchesPrintfReference)
{
    std::vector<double> cases = edgeDoubles();
    Rng rng(20061209, 7);
    const std::size_t seeded = 1000000;
    cases.reserve(cases.size() + seeded);
    for (std::size_t i = 0; i < seeded; i++) {
        double d;
        switch (i % 8) {
          case 0: // any finite bit pattern
            do
                d = fromBits(rng.next64());
            while (!std::isfinite(d));
            break;
          case 1: // subnormals
            d = fromBits(rng.next64() &
                         (((std::uint64_t{1} << 52) - 1) |
                          std::uint64_t{1} << 63));
            break;
          case 2: // integers up to 2^53
            d = static_cast<double>(rng.next64() >> 11);
            break;
          case 3:
            d = rng.uniform(-1e6, 1e6);
            break;
          case 4: // small integers, signed
            d = static_cast<double>(rng.range(-100000, 100000));
            break;
          case 5:
          case 6: // short decimals such as budgets (0.615)
            d = static_cast<double>(rng.range(0, 999999)) /
                std::pow(10.0, static_cast<double>(rng.below(9)));
            break;
          default: // exact binary fractions: decimal ties
            d = std::ldexp(static_cast<double>(rng.range(1, 1 << 20)),
                           static_cast<int>(rng.range(-80, 40)));
            break;
        }
        cases.push_back(d);
    }
    std::size_t mismatches = 0;
    for (double d : cases) {
        std::string got = formatDouble(d);
        std::string want = printfShortest(d);
        if (got != want && ++mismatches <= 10)
            ADD_FAILURE() << "bits " << std::hex
                          << [&] {
                                 std::uint64_t b;
                                 std::memcpy(&b, &d, sizeof(b));
                                 return b;
                             }()
                          << ": got " << got << ", printf " << want;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << cases.size();
    EXPECT_EQ(formatDouble(std::ldexp(1.0, -24)),
              "5.9604644775390625e-08");
    EXPECT_EQ(formatDouble(-0.0), "-0");
    EXPECT_EQ(formatDouble(1e21), "1e+21");
    EXPECT_EQ(formatDouble(1e-5), "1e-05");
    EXPECT_EQ(formatDouble(HUGE_VAL), "null");
    EXPECT_EQ(formatDouble(NAN), "null");
}

TEST(Json, ParseNumberMatchesStrtod)
{
    std::vector<std::string> texts = {
        "0", "-0", "0.0", "-0.0", "0e0", "1e-400", "-1e-400",
        "1E-400", "4.9406564584124654e-324",
        "2.4703282292062328e-324", "2.4703282292062327e-324",
        "2.2250738585072011e-308", "1.7976931348623157e308",
        "1.7976931348623158e308", "0.615", "0.1", "1e21", "1e-5",
        "5.9604644775390625e-08", "5.960464477539063e-08",
        "0.1000000000000000055511151231257827021181583404541015625",
        "123456789012345678901234567890",
        "9007199254740993", "9007199254740992.5000000000000000001",
        "1.00000000000000011102230246251565404236316680908203125",
        "1.000000000000000111022302462515654042363166809082031249",
        "-12345678901234567890.123456789e-10"};
    Rng rng(1024, 3);
    for (int i = 0; i < 20000; i++) {
        double d;
        do
            d = fromBits(rng.next64());
        while (!std::isfinite(d));
        char buf[64];
        // 17-, 20- and 25-digit mantissas, and the shortest form.
        for (int prec : {17, 20, 25}) {
            std::snprintf(buf, sizeof(buf), "%.*e", prec - 1, d);
            texts.push_back(buf);
        }
        texts.push_back(formatDouble(d));
    }
    for (const std::string &t : texts) {
        double want = std::strtod(t.c_str(), nullptr);
        double got = parseOk(t).asNumber();
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << t << " -> " << got << ", strtod " << want;
    }
    EXPECT_TRUE(std::signbit(parseOk("-0").asNumber()));
    EXPECT_TRUE(std::signbit(parseOk("-1e-400").asNumber()));
    for (const char *big : {"1e400", "-1e400", "1.8e308",
                            "123456789e999999999999"})
        EXPECT_EQ(parseErr(big), "number out of range") << big;
}

TEST(Json, DumpPreservesInsertionOrderCanonicalSorts)
{
    Value v = Value::object();
    v.set("zeta", 1);
    v.set("alpha", Value::array());
    EXPECT_EQ(v.dump(), R"({"zeta":1,"alpha":[]})");
    EXPECT_EQ(v.canonical(), R"({"alpha":[],"zeta":1})");
}

TEST(Json, CanonicalHashIgnoresKeyOrder)
{
    Value a = parseOk(R"({"x": 1, "y": [true, {"k": 2}]})");
    Value b = parseOk(R"({"y": [true, {"k": 2}], "x": 1})");
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.canonicalHash(), b.canonicalHash());

    Value c = parseOk(R"({"x": 1, "y": [true, {"k": 3}]})");
    EXPECT_NE(a.canonicalHash(), c.canonicalHash());
}

TEST(Json, SetReplacesExistingKey)
{
    Value v = Value::object();
    v.set("a", 1);
    v.set("a", 2);
    ASSERT_EQ(v.asObject().size(), 1u);
    EXPECT_EQ(v.find("a")->asNumber(), 2.0);
}

TEST(Json, ParseDumpRoundTrip)
{
    std::string text =
        R"({"s":"é","n":-1.25e-3,"b":false,"a":[null,1],"o":{}})";
    Value v = parseOk(text);
    EXPECT_EQ(parseOk(v.dump()).canonical(), v.canonical());
}

} // namespace
} // namespace gpm::json
