/** @file Front-end parity: gpmd (GpmServer) and gpm-router
 *  (GpmRouter) share one NdjsonFrontend, so every reply that does
 *  not depend on what is behind the front end — envelope errors,
 *  ping, scenario validation, line_too_long, the HTTP surface —
 *  must be byte-identical whether a client talks to gpmd directly
 *  or through the router. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "router/router.hh"
#include "service/server.hh"

namespace gpm
{
namespace
{

class FrontendParityTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kMaxLine = 4096;

    static DvfsTable &
    dvfs()
    {
        static DvfsTable d = DvfsTable::classic3();
        return d;
    }

    static ProfileLibrary &
    lib()
    {
        static ProfileLibrary l(dvfs(), 0.03);
        return l;
    }

    static TcpListener
    listen()
    {
        auto l = TcpListener::listenOn("127.0.0.1", 0);
        EXPECT_TRUE(l.ok()) << (l.ok() ? "" : l.error());
        return l.ok() ? std::move(l.value()) : TcpListener();
    }

    void
    SetUp() override
    {
        ReactorOptions transport;
        transport.maxLineBytes = kMaxLine;

        svc = std::make_unique<ScenarioService>(lib(), dvfs());
        server =
            std::make_unique<GpmServer>(*svc, listen(), transport);
        server->attachMetricsListener(listen());
        serverThread = std::thread([this] { server->run(); });

        router = std::make_unique<GpmRouter>(
            std::vector<RouterEndpoint>{{"127.0.0.1",
                                         server->port()}},
            listen(), RouterOptions{}, transport);
        router->attachMetricsListener(listen());
        routerThread = std::thread([this] { router->run(); });
    }

    void
    TearDown() override
    {
        router->requestStop();
        routerThread.join();
        router->stopAndDrain();
        server->requestStop();
        serverThread.join();
        server->stopAndDrain();
    }

    static TcpStream
    connect(std::uint16_t port)
    {
        auto c = TcpStream::connectTo("127.0.0.1", port);
        EXPECT_TRUE(c.ok()) << (c.ok() ? "" : c.error());
        TcpStream s = c.ok() ? std::move(c.value()) : TcpStream();
        s.setReadTimeoutMs(10000);
        return s;
    }

    /** Send each line on one connection; collect one reply each. */
    static std::vector<std::string>
    exchange(std::uint16_t port, const std::vector<std::string> &lines)
    {
        TcpStream s = connect(port);
        std::vector<std::string> replies;
        for (const auto &l : lines) {
            EXPECT_TRUE(s.writeAll(l + "\n"));
            std::string r;
            EXPECT_EQ(s.readLine(r), TcpStream::ReadStatus::Line)
                << l;
            replies.push_back(r);
        }
        return replies;
    }

    /** Full HTTP/1.0 response bytes (status, headers, body). */
    static std::string
    http(std::uint16_t port, const std::string &method,
         const std::string &path)
    {
        TcpStream s = connect(port);
        EXPECT_TRUE(s.writeAll(method + " " + path +
                               " HTTP/1.0\r\nHost: test\r\n\r\n"));
        std::string all, line;
        while (s.readLine(line) == TcpStream::ReadStatus::Line)
            all += line + "\n";
        return all;
    }

    std::unique_ptr<ScenarioService> svc;
    std::unique_ptr<GpmServer> server;
    std::thread serverThread;
    std::unique_ptr<GpmRouter> router;
    std::thread routerThread;
};

TEST_F(FrontendParityTest, EnvelopeAndValidationRepliesAreByteIdentical)
{
    const std::string good =
        R"({"combo": ["mcf", "crafty"], "policy": "MaxBIPS", )"
        R"("budget": 0.8})";
    const std::string bad =
        R"({"combo": ["mcf", "crafty"], "policy": "NoSuchPolicy", )"
        R"("budget": 0.8})";
    const std::vector<std::string> lines = {
        "{nonsense",
        "[]",
        R"({"id": [1], "verb": "ping"})",
        R"({"id": 1, "verb": "ping", "extra": true})",
        R"({"id": "m"})",
        R"({"id": 2, "verb": "frobnicate"})",
        R"({"id": "p", "verb": "ping"})",
        R"({"id": 3, "verb": "submit"})",
        R"({"id": 4, "verb": "submit_batch", "scenarios": []})",
        R"({"id": 5, "verb": "submit_batch", "scenarios": [)" +
            good + "," + bad + "]}",
    };

    std::vector<std::string> direct = exchange(server->port(), lines);
    std::vector<std::string> routed = exchange(router->port(), lines);
    ASSERT_EQ(direct.size(), lines.size());
    ASSERT_EQ(routed.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); i++)
        EXPECT_EQ(routed[i], direct[i]) << "request: " << lines[i];

    // Spot-check that the list exercised what it claims to.
    EXPECT_NE(direct[9].find("scenario 1: "), std::string::npos)
        << direct[9];
    EXPECT_NE(direct[8].find("'scenarios' must not be empty"),
              std::string::npos)
        << direct[8];
}

TEST_F(FrontendParityTest, OverlongLineReplyIsByteIdentical)
{
    const std::string longLine(kMaxLine + 100, 'x');
    std::string replies[2];
    const std::uint16_t ports[2] = {server->port(), router->port()};
    for (int i = 0; i < 2; i++) {
        TcpStream s = connect(ports[i]);
        ASSERT_TRUE(s.writeAll(longLine + "\n"));
        ASSERT_EQ(s.readLine(replies[i]),
                  TcpStream::ReadStatus::Line);
        std::string rest;
        EXPECT_EQ(s.readLine(rest), TcpStream::ReadStatus::Eof);
    }
    EXPECT_EQ(replies[1], replies[0]);
    EXPECT_NE(replies[0].find("line_too_long"), std::string::npos);
}

TEST_F(FrontendParityTest, HttpSurfaceIsByteIdentical)
{
    const std::pair<const char *, const char *> requests[] = {
        {"GET", "/healthz"}, {"GET", "/nope"}, {"POST", "/metrics"}};
    for (const auto &[method, path] : requests) {
        std::string direct =
            http(server->metricsPort(), method, path);
        std::string routed =
            http(router->metricsPort(), method, path);
        EXPECT_FALSE(direct.empty()) << method << " " << path;
        EXPECT_EQ(routed, direct) << method << " " << path;
    }
}

} // namespace
} // namespace gpm
