/** @file Sharding-router coverage: RendezvousRing placement
 *  properties (balance, minimal remap, restart determinism,
 *  failover ranking) and GpmRouter end-to-end over real loopback
 *  sockets against in-process gpmd backends — routed results
 *  byte-identical to direct submits, batch split/remap, failover
 *  after a killed backend, breaker recovery via the prober,
 *  coalesced backend writes (one write per connection per reactor
 *  pass) and their exactly-once answers when the backend resets. */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "router/ring.hh"
#include "router/router.hh"
#include "service/server.hh"

namespace gpm
{
namespace
{

/** Stand-in scenario hashes: splitmix64 over the index, the same
 *  full-avalanche shape canonicalHash() produces. */
std::uint64_t
testKey(std::uint64_t i)
{
    std::uint64_t x = i + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::vector<std::string>
backendNames(std::size_t n, std::uint16_t basePort = 7500)
{
    std::vector<std::string> names;
    for (std::size_t i = 0; i < n; i++)
        names.push_back("127.0.0.1:" +
                        std::to_string(basePort + i));
    return names;
}

TEST(RendezvousRing, BalancedAcrossBackends)
{
    const std::size_t nBackends = 4, nKeys = 10000;
    RendezvousRing ring(backendNames(nBackends));
    std::vector<std::size_t> load(nBackends, 0);
    for (std::uint64_t i = 0; i < nKeys; i++)
        load[ring.owner(testKey(i))]++;
    double mean =
        static_cast<double>(nKeys) / static_cast<double>(nBackends);
    std::size_t maxLoad =
        *std::max_element(load.begin(), load.end());
    EXPECT_LT(static_cast<double>(maxLoad) / mean, 1.15)
        << "max shard " << maxLoad << " vs mean " << mean;
    for (std::size_t l : load)
        EXPECT_GT(l, 0u);
}

TEST(RendezvousRing, JoinMovesOnlyItsShare)
{
    const std::size_t nKeys = 10000;
    RendezvousRing four(backendNames(4));
    RendezvousRing five(backendNames(5));
    std::size_t moved = 0;
    for (std::uint64_t i = 0; i < nKeys; i++) {
        std::uint64_t k = testKey(i);
        std::size_t before = four.owner(k);
        std::size_t after = five.owner(k);
        if (five.name(after) != four.name(before)) {
            moved++;
            // A key only ever moves TO the new backend.
            EXPECT_EQ(five.name(after), "127.0.0.1:7504");
        }
    }
    // Expected moved fraction is 1/5; "< 1/N" with N the smaller
    // fleet (plus sampling slack under the binomial sd ~0.4%).
    EXPECT_LT(static_cast<double>(moved) / nKeys, 1.0 / 4.0);
    EXPECT_GT(moved, 0u);
}

TEST(RendezvousRing, LeaveMovesOnlyTheDepartedShard)
{
    const std::size_t nKeys = 10000;
    std::vector<std::string> names = backendNames(4);
    RendezvousRing four(names);
    std::vector<std::string> three(names.begin(),
                                   names.begin() + 3);
    RendezvousRing rest(three);
    std::size_t moved = 0;
    for (std::uint64_t i = 0; i < nKeys; i++) {
        std::uint64_t k = testKey(i);
        std::size_t before = four.owner(k);
        if (four.name(before) == names[3]) {
            moved++;
        } else {
            // Survivors keep every key they already owned.
            EXPECT_EQ(rest.name(rest.owner(k)),
                      four.name(before));
        }
    }
    EXPECT_LT(static_cast<double>(moved) / nKeys, 1.0 / 3.0);
    EXPECT_GT(moved, 0u);
}

TEST(RendezvousRing, DeterministicAcrossRestartsAndOrder)
{
    std::vector<std::string> names = backendNames(5);
    RendezvousRing a(names);
    RendezvousRing restarted(names); // "new process", same config
    std::vector<std::string> shuffled = {names[3], names[0],
                                         names[4], names[2],
                                         names[1]};
    RendezvousRing reordered(shuffled);
    for (std::uint64_t i = 0; i < 1000; i++) {
        std::uint64_t k = testKey(i);
        EXPECT_EQ(a.name(a.owner(k)),
                  restarted.name(restarted.owner(k)));
        EXPECT_EQ(a.name(a.owner(k)),
                  reordered.name(reordered.owner(k)));
    }
}

TEST(RendezvousRing, MaskedOwnerWalksTheFailoverRanking)
{
    RendezvousRing ring(backendNames(4));
    std::vector<char> all(4, 1);
    for (std::uint64_t i = 0; i < 200; i++) {
        std::uint64_t k = testKey(i);
        std::vector<std::size_t> order = ring.rank(k);
        EXPECT_EQ(ring.owner(k), order[0]);
        EXPECT_EQ(ring.owner(k, all), order[0]);
        std::vector<char> mask = all;
        mask[order[0]] = 0;
        EXPECT_EQ(ring.owner(k, mask), order[1]);
        mask[order[1]] = 0;
        EXPECT_EQ(ring.owner(k, mask), order[2]);
        std::vector<char> none(4, 0);
        EXPECT_EQ(ring.owner(k, none), RendezvousRing::npos);
    }
}

// ---------------------------------------------------------------
// End-to-end: router in front of two in-process gpmd backends
// ---------------------------------------------------------------

class RouterTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t nBackends = 2;

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

    void
    SetUp() override
    {
        std::vector<RouterEndpoint> eps;
        for (std::size_t i = 0; i < nBackends; i++) {
            startBackend(i, 0);
            eps.push_back({"127.0.0.1", ports[i]});
        }
        RouterOptions opts;
        // Fast-recovery tuning so breaker/prober behaviour is
        // observable within test time.
        opts.breaker.window = 4;
        opts.breaker.minSamples = 2;
        opts.breaker.cooldownMs = 50.0;
        opts.probeIntervalMs = 10;
        opts.backendConnectTimeoutMs = 250;
        auto listener = TcpListener::listenOn("127.0.0.1", 0);
        ASSERT_TRUE(listener.ok()) << listener.error();
        router = std::make_unique<GpmRouter>(
            eps, std::move(listener.value()), opts, transport);
        routerPort = router->port();
        routerThread = std::thread([this] { router->run(); });
    }

    void
    TearDown() override
    {
        router->requestStop();
        if (routerThread.joinable())
            routerThread.join();
        router->stopAndDrain();
        router.reset();
        for (std::size_t i = 0; i < nBackends; i++)
            stopBackend(i);
    }

    void
    startBackend(std::size_t i, std::uint16_t port)
    {
        auto listener = TcpListener::listenOn("127.0.0.1", port);
        ASSERT_TRUE(listener.ok()) << listener.error();
        svcs[i] = std::make_unique<ScenarioService>(lib(), dvfs());
        servers[i] = std::make_unique<GpmServer>(
            *svcs[i], std::move(listener.value()));
        ports[i] = servers[i]->port();
        threads[i] =
            std::thread([this, i] { servers[i]->run(); });
    }

    void
    stopBackend(std::size_t i)
    {
        if (!servers[i])
            return;
        servers[i]->requestStop();
        if (threads[i].joinable())
            threads[i].join();
        servers[i]->stopAndDrain();
        servers[i].reset();
        svcs[i].reset();
    }

    TcpStream
    connectTo(std::uint16_t port)
    {
        auto conn = TcpStream::connectTo("127.0.0.1", port);
        EXPECT_TRUE(conn.ok()) << (conn.ok() ? "" : conn.error());
        return conn.ok() ? std::move(conn.value()) : TcpStream();
    }

    std::string
    roundTrip(TcpStream &stream, const std::string &line)
    {
        EXPECT_TRUE(stream.writeAll(line + "\n"));
        std::string response;
        EXPECT_EQ(stream.readLine(response),
                  TcpStream::ReadStatus::Line);
        return response;
    }

    static json::Value
    parseOk(const std::string &text)
    {
        auto r = json::parse(text);
        EXPECT_TRUE(r.ok()) << text;
        return r.ok() ? r.value() : json::Value();
    }

    static std::string
    scenarioLine(double budget, const char *policy = "MaxBIPS")
    {
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            R"({"combo": ["mcf", "crafty"], "policy": "%s", )"
            R"("budget": %.3f})",
            policy, budget);
        return buf;
    }

    /** @p n submits with ids from @p firstId, one line each, for
     *  one client write. */
    static std::string
    pipelinedSubmits(std::size_t n, std::size_t firstId)
    {
        std::string req;
        for (std::size_t i = 0; i < n; i++)
            req += R"({"id": )" + std::to_string(firstId + i) +
                   R"(, "verb": "submit", "scenario": )" +
                   scenarioLine(0.5 + 0.01 * static_cast<double>(i)) +
                   "}\n";
        return req;
    }

    std::unique_ptr<ScenarioService> svcs[nBackends];
    std::unique_ptr<GpmServer> servers[nBackends];
    std::thread threads[nBackends];
    std::uint16_t ports[nBackends] = {0, 0};
    /** The router's client-side transport options. */
    ReactorOptions transport;
    std::unique_ptr<GpmRouter> router;
    std::uint16_t routerPort = 0;
    std::thread routerThread;
};

/** A router whose client-side line cap is below one gpmd result. */
class RouterSmallLineCapTest : public RouterTest
{
  protected:
    static constexpr std::size_t cap = 300;
    RouterSmallLineCapTest() { transport.maxLineBytes = cap; }
};

TEST_F(RouterSmallLineCapTest, ProxiesResultsLongerThanClientLineCap)
{
    const std::string submit =
        R"({"id": "x", "verb": "submit", "scenario": )" +
        scenarioLine(0.8) + "}";
    ASSERT_LT(submit.size(), cap);

    // Twice: the backend channel must survive the long response.
    TcpStream c = connectTo(routerPort);
    for (int k = 0; k < 2; k++) {
        std::string response = roundTrip(c, submit);
        EXPECT_GT(response.size(), cap);
        json::Value routed = parseOk(response);
        ASSERT_TRUE(routed.find("ok")->asBool()) << response;
        ASSERT_TRUE(routed.find("result"));
    }
    RouterStats st = router->stats();
    EXPECT_EQ(st.backendFailures, 0u);
    EXPECT_EQ(st.rerouted, 0u);
    for (const RouterBackendStats &b : st.backends) {
        EXPECT_TRUE(b.live) << b.name;
        EXPECT_EQ(b.breakerOpens, 0u) << b.name;
    }
}

TEST_F(RouterTest, PingAndStatsAnswerLocally)
{
    TcpStream c = connectTo(routerPort);
    json::Value r =
        parseOk(roundTrip(c, R"({"id": 3, "verb": "ping"})"));
    EXPECT_TRUE(r.find("ok")->asBool());
    EXPECT_EQ(r.find("id")->asNumber(), 3.0);
    EXPECT_TRUE(r.find("result")->find("pong")->asBool());

    json::Value s = parseOk(roundTrip(c, R"({"verb": "stats"})"));
    const json::Value *res = s.find("result");
    ASSERT_TRUE(res);
    EXPECT_EQ(res->find("backendWrites")->asNumber(), 0.0);
    EXPECT_EQ(res->find("backendsTotal")->asNumber(), 2.0);
    EXPECT_EQ(res->find("backendsLive")->asNumber(), 2.0);
    EXPECT_TRUE(res->find("backends")->isArray());
    EXPECT_EQ(res->find("backends")->asArray().size(), 2u);
}

TEST_F(RouterTest, RoutedSubmitMatchesDirectByteForByte)
{
    const std::string submit =
        R"({"id": "x", "verb": "submit", "scenario": )" +
        scenarioLine(0.8) + "}";

    TcpStream c = connectTo(routerPort);
    json::Value routed = parseOk(roundTrip(c, submit));
    ASSERT_TRUE(routed.find("ok")->asBool());
    EXPECT_FALSE(routed.find("cached")->asBool());
    ASSERT_TRUE(routed.find("result"));

    // The same scenario direct against BOTH backends: one serves
    // its cached copy, the other computes independently — all
    // three payloads must be byte-identical (content-addressed
    // results are deterministic).
    for (std::size_t i = 0; i < nBackends; i++) {
        TcpStream d = connectTo(ports[i]);
        json::Value direct = parseOk(roundTrip(d, submit));
        ASSERT_TRUE(direct.find("ok")->asBool());
        EXPECT_EQ(direct.find("result")->dump(),
                  routed.find("result")->dump())
            << "backend " << i;
    }

    // Resubmit through the router: consistent hashing lands on
    // the same backend, whose memory tier now holds it.
    json::Value again = parseOk(roundTrip(c, submit));
    ASSERT_TRUE(again.find("ok")->asBool());
    EXPECT_TRUE(again.find("cached")->asBool());
    EXPECT_EQ(again.find("result")->dump(),
              routed.find("result")->dump());
}

TEST_F(RouterTest, BatchSplitsByShardAndRemapsIndices)
{
    // Ten distinct scenarios so both shards deterministically get
    // a non-empty slice (hashes are fixed by content).
    const std::size_t n = 10;
    std::string req =
        R"({"id": 42, "verb": "submit_batch", "scenarios": [)";
    for (std::size_t i = 0; i < n; i++) {
        if (i)
            req += ",";
        req += scenarioLine(0.5 + 0.04 * static_cast<double>(i));
    }
    req += "]}";

    TcpStream c = connectTo(routerPort);
    ASSERT_TRUE(c.writeAll(req + "\n"));
    std::set<std::size_t> seen;
    std::vector<std::string> results(n);
    for (std::size_t got = 0; got < n; got++) {
        std::string line;
        ASSERT_EQ(c.readLine(line), TcpStream::ReadStatus::Line);
        json::Value r = parseOk(line);
        EXPECT_EQ(r.find("id")->asNumber(), 42.0);
        ASSERT_TRUE(r.find("ok")->asBool()) << line;
        ASSERT_TRUE(r.find("index"));
        auto idx =
            static_cast<std::size_t>(r.find("index")->asNumber());
        ASSERT_LT(idx, n);
        EXPECT_TRUE(seen.insert(idx).second)
            << "duplicate index " << idx;
        ASSERT_TRUE(r.find("hash"));
        EXPECT_EQ(r.find("hash")->asString().size(), 16u);
        results[idx] = r.find("result")->dump();
    }
    EXPECT_EQ(seen.size(), n);

    // Both backends carried a slice.
    RouterStats s = router->stats();
    EXPECT_EQ(s.routedScenarios, n);
    for (const auto &b : s.backends)
        EXPECT_GT(b.routed, 0u) << b.name;

    // Every routed payload equals the direct submit's payload.
    TcpStream d = connectTo(ports[0]);
    for (std::size_t i = 0; i < n; i++) {
        std::string submit =
            R"({"id": 1, "verb": "submit", "scenario": )" +
            scenarioLine(0.5 + 0.04 * static_cast<double>(i)) +
            "}";
        json::Value direct = parseOk(roundTrip(d, submit));
        ASSERT_TRUE(direct.find("ok")->asBool());
        EXPECT_EQ(direct.find("result")->dump(), results[i])
            << "scenario " << i;
    }
}

TEST_F(RouterTest, KilledBackendFailsOverWithoutClientErrors)
{
    stopBackend(0);

    // Every submit must still be answered ok — scenarios owned by
    // the dead backend re-resolve onto the live replica (connect
    // refusal feeds the breaker and triggers the re-route), and
    // nothing may surface internal_error.
    TcpStream c = connectTo(routerPort);
    for (std::size_t i = 0; i < 10; i++) {
        std::string submit =
            R"({"id": 9, "verb": "submit", "scenario": )" +
            scenarioLine(0.5 + 0.04 * static_cast<double>(i),
                         "WaterFill") +
            "}";
        json::Value r = parseOk(roundTrip(c, submit));
        ASSERT_TRUE(r.find("ok")->asBool())
            << roundTrip(c, submit);
    }

    // The breaker needs minSamples attempts against the dead
    // backend before it may open, and key ownership is hash-split
    // — keep submitting fresh keys (each ~1/2 owned by the dead
    // shard) until it trips. Every answer must still be ok.
    for (std::size_t i = 0;
         i < 100 && router->stats().backendsLive == 2; i++) {
        std::string submit =
            R"({"id": 9, "verb": "submit", "scenario": )" +
            scenarioLine(0.5 + 0.004 * static_cast<double>(i),
                         "WaterFill") +
            "}";
        json::Value r = parseOk(roundTrip(c, submit));
        ASSERT_TRUE(r.find("ok")->asBool());
    }

    RouterStats s = router->stats();
    EXPECT_GT(s.backendFailures, 0u);
    EXPECT_LT(s.backendsLive, 2u);
}

TEST_F(RouterTest, ProberClosesBreakerWhenBackendReturns)
{
    std::uint16_t oldPort = ports[0];
    stopBackend(0);

    // Drive traffic so the breaker on the dead backend opens.
    TcpStream c = connectTo(routerPort);
    for (std::size_t i = 0; i < 6; i++) {
        std::string submit =
            R"({"id": 1, "verb": "submit", "scenario": )" +
            scenarioLine(0.6 + 0.05 * static_cast<double>(i)) +
            "}";
        json::Value r = parseOk(roundTrip(c, submit));
        EXPECT_TRUE(r.find("ok")->asBool());
    }

    // Restart the backend on the same port; the prober must close
    // the breaker within a few cooldown windows.
    startBackend(0, oldPort);
    ASSERT_EQ(ports[0], oldPort);
    bool live = false;
    for (int spin = 0; spin < 500 && !live; spin++) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10));
        live = router->stats().backendsLive == 2;
    }
    EXPECT_TRUE(live)
        << "breaker never closed after backend restart";

    json::Value r = parseOk(roundTrip(
        c, R"({"id": 2, "verb": "submit", "scenario": )" +
               scenarioLine(0.8) + "}"));
    EXPECT_TRUE(r.find("ok")->asBool());
}

TEST_F(RouterTest, WholeFleetDownShedsRetryableErrors)
{
    stopBackend(0);
    stopBackend(1);

    TcpStream c = connectTo(routerPort);
    // Single submits: per-request retryable errors, never
    // internal_error.
    json::Value r = parseOk(roundTrip(
        c, R"({"id": 1, "verb": "submit", "scenario": )" +
               scenarioLine(0.8) + "}"));
    ASSERT_FALSE(r.find("ok")->asBool());
    EXPECT_EQ(r.find("error")->find("code")->asString(), "busy");
    EXPECT_GT(r.find("error")->find("retryAfterMs")->asNumber(),
              0.0);

    // Keep poking until both breakers open, then a batch gets the
    // single batch-level refusal (contract parity with gpmd).
    bool batchLevel = false;
    for (int spin = 0; spin < 50 && !batchLevel; spin++) {
        std::string req =
            R"({"id": 5, "verb": "submit_batch", "scenarios": [)" +
            scenarioLine(0.7) + "," + scenarioLine(0.9) + "]}";
        TcpStream b = connectTo(routerPort);
        ASSERT_TRUE(b.writeAll(req + "\n"));
        std::string line;
        ASSERT_EQ(b.readLine(line), TcpStream::ReadStatus::Line);
        json::Value v = parseOk(line);
        ASSERT_FALSE(v.find("ok")->asBool());
        EXPECT_NE(v.find("error")->find("code")->asString(),
                  "internal_error");
        if (!v.find("index")) {
            batchLevel = true; // one line for the whole batch
        } else {
            // Per-scenario shed: drain the second line.
            ASSERT_EQ(b.readLine(line),
                      TcpStream::ReadStatus::Line);
        }
    }
    EXPECT_TRUE(batchLevel);
}

TEST_F(RouterTest, MalformedLinesGetStructuredErrors)
{
    TcpStream c = connectTo(routerPort);

    json::Value r = parseOk(roundTrip(c, "{nonsense"));
    EXPECT_FALSE(r.find("ok")->asBool());
    EXPECT_EQ(r.find("error")->find("code")->asString(), "parse");

    r = parseOk(roundTrip(c, R"({"verb": "frobnicate"})"));
    EXPECT_EQ(r.find("error")->find("code")->asString(),
              "invalid");

    r = parseOk(roundTrip(c, R"({"verb": "submit"})"));
    EXPECT_EQ(r.find("error")->find("code")->asString(),
              "invalid");

    r = parseOk(roundTrip(
        c,
        R"({"verb": "submit", "scenario": {"combo": ["mcf"], )"
        R"("policy": "Nope", "budget": 0.8}})"));
    EXPECT_EQ(r.find("error")->find("code")->asString(),
              "invalid");

    r = parseOk(roundTrip(c, R"({"verb": "ping", "zap": 1})"));
    EXPECT_EQ(r.find("error")->find("code")->asString(),
              "invalid");

    // The connection survives every error.
    r = parseOk(roundTrip(c, R"({"verb": "ping"})"));
    EXPECT_TRUE(r.find("ok")->asBool());
}

TEST_F(RouterTest, MetricsRenderIncludesPerBackendSeries)
{
    TcpStream c = connectTo(routerPort);
    parseOk(roundTrip(
        c, R"({"id": 1, "verb": "submit", "scenario": )" +
               scenarioLine(0.8) + "}"));

    std::string body = renderRouterPrometheus(
        router->stats(), ReactorStats{});
    EXPECT_NE(body.find("gpm_build_info{version="),
              std::string::npos);
    EXPECT_NE(body.find("gpm_router_routed_scenarios_total 1"),
              std::string::npos);
    EXPECT_NE(body.find("gpm_router_backend_writes_total 1\n"),
              std::string::npos)
        << body;
    for (std::size_t i = 0; i < nBackends; i++) {
        std::string label =
            "{backend=\"127.0.0.1:" + std::to_string(ports[i]) +
            "\"}";
        EXPECT_NE(
            body.find("gpm_router_backend_routed_total" + label),
            std::string::npos)
            << body;
    }
    EXPECT_NE(body.find("gpm_router_breaker_state{backend="),
              std::string::npos);
}

/** Read @p n response lines and key them by numeric id; every id
 *  must come once, ok, and nothing may follow. */
std::map<std::size_t, std::string>
readExactlyOnce(TcpStream &c, std::size_t n)
{
    std::map<std::size_t, std::string> byId;
    c.setReadTimeoutMs(10000);
    for (std::size_t got = 0; got < n; got++) {
        std::string line;
        if (c.readLine(line) != TcpStream::ReadStatus::Line) {
            ADD_FAILURE() << "connection ended after " << got;
            break;
        }
        auto r = json::parse(line);
        EXPECT_TRUE(r.ok()) << line;
        if (!r.ok())
            continue;
        EXPECT_TRUE(r.value().find("ok")->asBool()) << line;
        auto id = static_cast<std::size_t>(
            r.value().find("id")->asNumber());
        EXPECT_TRUE(
            byId.emplace(id, r.value().find("result")->dump())
                .second)
            << "id " << id << " answered twice";
    }
    c.setReadTimeoutMs(100);
    std::string extra;
    EXPECT_EQ(c.readLine(extra), TcpStream::ReadStatus::Timeout)
        << "unexpected line: " << extra;
    return byId;
}

TEST_F(RouterTest, PipelinedSubmitsShareBackendWrites)
{
    const std::size_t n = 24;
    TcpStream c = connectTo(routerPort);
    ASSERT_TRUE(c.writeAll(pipelinedSubmits(n, 0)));
    auto byId = readExactlyOnce(c, n);
    ASSERT_EQ(byId.size(), n);

    // One reactor pass framed every line: each pooled connection
    // got at most one write, 2 backends x 2 connections.
    RouterStats st = router->stats();
    EXPECT_EQ(st.routedScenarios, n);
    EXPECT_LT(st.backendWrites, n);
    EXPECT_GT(st.backendWrites, 0u);

    // Byte-identical to the owning backends answering directly.
    TcpStream d = connectTo(ports[0]);
    for (std::size_t i = 0; i < n; i++) {
        json::Value direct = parseOk(roundTrip(
            d, R"({"id": 1, "verb": "submit", "scenario": )" +
                   scenarioLine(0.5 + 0.01 * static_cast<double>(i)) +
                   "}"));
        ASSERT_TRUE(direct.find("ok")->asBool());
        EXPECT_EQ(direct.find("result")->dump(), byId[i])
            << "scenario " << i;
    }
}

TEST_F(RouterTest, ResetBackendWithQueuedWritesAnswersEachOnce)
{
    // A backend that resets every connection as soon as it is
    // accepted: lines the router queued for it die either in the
    // queue (the reader sweeps first), in the pass-end write (it
    // fails) or on the wire (EOF afterwards). Each way, every
    // scenario must be re-routed to the live gpmd and answered
    // exactly once.
    auto sinkListener = TcpListener::listenOn("127.0.0.1", 0);
    ASSERT_TRUE(sinkListener.ok()) << sinkListener.error();
    TcpListener sink = std::move(sinkListener.value());
    std::thread resetter([&sink] {
        for (;;) {
            int fd = sink.acceptFd();
            if (fd < 0)
                return;
            linger lg{1, 0};
            ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg,
                         sizeof(lg));
            ::close(fd);
        }
    });

    RouterOptions opts;
    // The breaker never opens, so every round reaches the sink.
    opts.breaker.minSamples = std::size_t{1} << 20;
    opts.probeIntervalMs = 10;
    opts.backendConnectTimeoutMs = 250;
    auto listener = TcpListener::listenOn("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.error();
    auto mixed = std::make_unique<GpmRouter>(
        std::vector<RouterEndpoint>{{"127.0.0.1", sink.port()},
                                    {"127.0.0.1", ports[1]}},
        std::move(listener.value()), opts);
    std::thread runner([&] { mixed->run(); });

    const std::size_t n = 16, rounds = 12;
    for (std::size_t r = 0; r < rounds; r++) {
        TcpStream c = connectTo(mixed->port());
        ASSERT_TRUE(
            c.writeAll(pipelinedSubmits(n, r * n)));
        auto byId = readExactlyOnce(c, n);
        EXPECT_EQ(byId.size(), n) << "round " << r;
    }
    RouterStats st = mixed->stats();
    EXPECT_GT(st.rerouted, 0u);
    EXPECT_GT(st.backendFailures, 0u);
    EXPECT_EQ(st.inflight, 0u);
    EXPECT_EQ(st.shedNoBackend, 0u);

    mixed->requestStop();
    runner.join();
    mixed->stopAndDrain();
    mixed.reset();
    sink.shutdownListener();
    resetter.join();
}

} // namespace
} // namespace gpm
