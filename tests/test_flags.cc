/** @file The table-driven flag parser shared by gpmd, gpm-router
 *  and gpmctl (util/flags.hh) and its environment-number reader,
 *  and the HOST:PORT list parser shared
 *  by gpm-router --backends and gpmctl --host (service/net.hh).
 *  Everything runs in-process: no daemon is started with the
 *  rejected values. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "service/net.hh"
#include "trace/workload.hh"
#include "util/flags.hh"

namespace gpm
{
namespace
{

/** tryParse() over {"prog", args...}. */
std::string
parse(FlagSet &flags, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<const char *> argv;
    for (const auto &a : args)
        argv.push_back(a.c_str());
    return flags.tryParse(static_cast<int>(argv.size()), argv.data());
}

struct Daemonish
{
    std::uint16_t port = 7421;
    std::size_t workers = 2;
    int timeoutMs = 100;
    double share = 0.5;
    std::optional<std::uint16_t> metricsPort;
    std::string host = "127.0.0.1";
    bool off = false;
};

FlagSet
table(Daemonish &d)
{
    FlagSet flags("prog", "usage: prog [options]");
    flags.add("--port", &d.port, std::uint16_t{0},
              std::uint16_t{65535}, "TCP port");
    flags.add("--workers", &d.workers, std::size_t{1},
              std::size_t{64}, "worker threads");
    flags.add("--timeout-ms", &d.timeoutMs, 0, 100000, "timeout");
    flags.add("--share", &d.share, 0.0, 1.0, "fair share");
    flags.add("--metrics-port", &d.metricsPort, std::uint16_t{0},
              std::uint16_t{65535}, "metrics port");
    flags.add("--host", &d.host, "ADDR", "bind address");
    flags.addSwitch("--off", &d.off, true, "switch off");
    return flags;
}

TEST(FlagSet, ParsesEveryKindOfEntry)
{
    Daemonish d;
    FlagSet flags = table(d);
    EXPECT_EQ(parse(flags, {"--port", "0", "--workers", "8",
                            "--timeout-ms", "-0", "--share", "0.25",
                            "--metrics-port", "9100", "--host",
                            "0.0.0.0", "--off"}),
              "");
    EXPECT_EQ(d.port, 0);
    EXPECT_EQ(d.workers, 8u);
    EXPECT_EQ(d.timeoutMs, 0);
    EXPECT_DOUBLE_EQ(d.share, 0.25);
    ASSERT_TRUE(d.metricsPort.has_value());
    EXPECT_EQ(*d.metricsPort, 9100);
    EXPECT_EQ(d.host, "0.0.0.0");
    EXPECT_TRUE(d.off);
    EXPECT_FALSE(flags.helpRequested());
}

TEST(FlagSet, DefaultsSurviveWhenFlagsAreAbsent)
{
    Daemonish d;
    FlagSet flags = table(d);
    EXPECT_EQ(parse(flags, {}), "");
    EXPECT_EQ(d.port, 7421);
    EXPECT_EQ(d.workers, 2u);
    EXPECT_FALSE(d.metricsPort.has_value());
    EXPECT_FALSE(d.off);
}

TEST(FlagSet, RejectsOutOfRangeAndNonNumericValues)
{
    // Each of these used to wrap or silently parse as 0 through
    // atoi/atol casts: --port 70000 bound port 4464, --port abc an
    // ephemeral port, --workers -1 SIZE_MAX threads.
    struct Case
    {
        const char *flag;
        const char *value;
    };
    const Case cases[] = {
        {"--port", "70000"},   {"--port", "abc"},
        {"--port", "-1"},      {"--port", ""},
        {"--port", "1e3"},     {"--workers", "-1"},
        {"--workers", "0"},    {"--workers", "abc"},
        {"--workers", ""},     {"--workers", "1e3"},
        {"--timeout-ms", "1e3"}, {"--timeout-ms", "-1"},
        {"--timeout-ms", "99999999999999999999"},
        {"--share", "abc"},    {"--share", ""},
        {"--share", "-1"},     {"--share", "nan"},
        {"--share", "1.5x"},   {"--metrics-port", "70000"},
        {"--port", " 80"},
    };
    for (const auto &c : cases) {
        Daemonish d;
        FlagSet flags = table(d);
        std::string err = parse(flags, {c.flag, c.value});
        EXPECT_FALSE(err.empty()) << c.flag << " '" << c.value << "'";
        // The message names the flag and quotes the value.
        EXPECT_EQ(err.rfind(std::string(c.flag) + ": '", 0), 0u)
            << err;
        // Nothing was written.
        EXPECT_EQ(d.port, 7421);
        EXPECT_EQ(d.workers, 2u);
        EXPECT_FALSE(d.metricsPort.has_value());
    }
}

TEST(FlagSet, EnvNumberIsRangeCheckedLikeAFlag)
{
    // GPM_SCALE used to go through atof with a silent 1.0 fallback,
    // so a typo ("abc", "0", "-1") selected full-scale profiling.
    auto scale = [] {
        return FlagSet::envNumber("GPM_SCALE", minLengthScale,
                                  maxLengthScale, 1.0);
    };
    ::unsetenv("GPM_SCALE");
    EXPECT_EQ(scale(), 1.0);
    ::setenv("GPM_SCALE", "", 1);
    EXPECT_EQ(scale(), 1.0);
    ::setenv("GPM_SCALE", "0.05", 1);
    EXPECT_EQ(scale(), 0.05);
    ::setenv("GPM_SCALE", "2e-3", 1);
    EXPECT_EQ(scale(), 2e-3);
    for (const char *bad :
         {"abc", "0", "-1", "1e7", "nan", "0.5x", " 0.5"}) {
        ::setenv("GPM_SCALE", bad, 1);
        EXPECT_EXIT(scale(), ::testing::ExitedWithCode(1),
                    "fatal: GPM_SCALE: '")
            << bad;
    }
    ::unsetenv("GPM_SCALE");
}

TEST(FlagSet, FloatsAcceptExponents)
{
    Daemonish d;
    FlagSet flags = table(d);
    EXPECT_EQ(parse(flags, {"--share", "5e-1"}), "");
    EXPECT_DOUBLE_EQ(d.share, 0.5);
}

TEST(FlagSet, UnknownMissingAndPositionalArguments)
{
    Daemonish d;
    FlagSet flags = table(d);
    EXPECT_EQ(parse(flags, {"--bogus"}),
              "unknown option '--bogus' (try --help)");
    EXPECT_EQ(parse(flags, {"--port"}), "--port needs a value");
    EXPECT_EQ(parse(flags, {"stray"}),
              "unexpected argument 'stray'");

    std::vector<std::string> seen;
    flags.positional([&](const std::string &a) {
        seen.push_back(a);
        return std::string();
    });
    EXPECT_EQ(parse(flags, {"ping", "--port", "1", "@f"}), "");
    EXPECT_EQ(seen, (std::vector<std::string>{"ping", "@f"}));
    EXPECT_EQ(d.port, 1);
}

TEST(FlagSet, HelpIsGeneratedFromTheTable)
{
    Daemonish d;
    FlagSet flags = table(d);
    EXPECT_EQ(parse(flags, {"--workers", "4", "--help", "--bogus"}),
              "");
    EXPECT_TRUE(flags.helpRequested());

    std::string u = flags.usage();
    EXPECT_EQ(u.rfind("usage: prog [options]\n", 0), 0u);
    for (const char *name : {"--port N", "--workers N",
                             "--share X", "--host ADDR", "--off"})
        EXPECT_NE(u.find(name), std::string::npos) << name;
    // Defaults and ranges come from the table, not hand-kept text.
    EXPECT_NE(u.find("(default 7421; 0..65535)"), std::string::npos)
        << u;
    EXPECT_NE(u.find("(default 0.5; 0..1)"), std::string::npos) << u;
    EXPECT_NE(u.find("(default 127.0.0.1)"), std::string::npos) << u;
}

TEST(ParseEndpoints, RequiredPortMode)
{
    auto eps = parseEndpoints("127.0.0.1:7421,,10.0.0.2:80",
                              std::nullopt);
    ASSERT_TRUE(eps.ok()) << eps.error();
    ASSERT_EQ(eps.value().size(), 2u);
    EXPECT_EQ(eps.value()[0].name(), "127.0.0.1:7421");
    EXPECT_EQ(eps.value()[1].host, "10.0.0.2");
    EXPECT_EQ(eps.value()[1].port, 80);

    for (const char *notHostPort : {"127.0.0.1", ":80", "h:"}) {
        auto r = parseEndpoints(notHostPort, std::nullopt);
        ASSERT_FALSE(r.ok()) << notHostPort;
        EXPECT_NE(r.error().find("is not HOST:PORT"),
                  std::string::npos)
            << r.error();
    }
    for (const char *badPort :
         {"h:0", "h:65536", "h:70000", "h:abc", "h:12x",
          "h:99999999999999999999"}) {
        auto r = parseEndpoints(badPort, std::nullopt);
        ASSERT_FALSE(r.ok()) << badPort;
        EXPECT_EQ(r.error(), std::string("endpoint '") + badPort +
                                 "' has a bad port");
    }
    auto empty = parseEndpoints("", std::nullopt);
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty.value().empty());
}

TEST(ParseEndpoints, DefaultPortMode)
{
    auto eps = parseEndpoints("a,b:9000,c:", std::uint16_t{7421});
    ASSERT_TRUE(eps.ok()) << eps.error();
    ASSERT_EQ(eps.value().size(), 3u);
    EXPECT_EQ(eps.value()[0].name(), "a:7421");
    EXPECT_EQ(eps.value()[1].name(), "b:9000");
    // A non-numeric suffix is part of the host, as before.
    EXPECT_EQ(eps.value()[2].name(), "c::7421");

    for (const char *badPort : {"h:0", "h:65536", "a,h:70000"}) {
        auto r = parseEndpoints(badPort, std::uint16_t{7421});
        ASSERT_FALSE(r.ok()) << badPort;
        EXPECT_NE(r.error().find("has a bad port"),
                  std::string::npos)
            << r.error();
    }
}

} // namespace
} // namespace gpm
