/**
 * @file
 * gpm-router — the sharding proxy in front of N gpmd backends.
 *
 * Speaks the gpmd NDJSON protocol to clients and consistent-hashes
 * every scenario onto a backend (see router.hh and docs/SERVICE.md
 * "Scaling out"). SIGINT/SIGTERM trigger a clean draining shutdown:
 * accepted scenarios are answered, backends are left running, and
 * the process exits 0.
 */

#include <cstdio>
#include <limits>
#include <vector>

#include "router/router.hh"
#include "util/flags.hh"
#include "util/logging.hh"

namespace
{

struct RouterConfig
{
    gpm::DaemonTransport transport;
    std::vector<gpm::RouterEndpoint> backends;
    gpm::RouterOptions opts;
};

RouterConfig
parseArgs(int argc, char **argv)
{
    RouterConfig cfg;
    cfg.transport.port = 7420;
    gpm::RouterOptions &o = cfg.opts;
    constexpr int kMaxMs = std::numeric_limits<int>::max();

    gpm::FlagSet flags("gpm-router",
                       "usage: gpm-router --backends "
                       "HOST:PORT[,HOST:PORT...] [options]");
    flags.addCustom("--backends", "LIST",
                    "gpmd backends to shard across (required)",
                    [&](const std::string &v) {
                        auto eps = gpm::parseEndpoints(v, std::nullopt);
                        if (!eps.ok())
                            return eps.error();
                        cfg.backends = std::move(eps.value());
                        return std::string();
                    });
    gpm::addTransportFlags(flags, cfg.transport);
    flags.add("--backend-conns", &o.backendConns, std::size_t{1},
              std::size_t{64}, "pooled connections per backend");
    flags.add("--connect-timeout-ms", &o.backendConnectTimeoutMs, 0,
              kMaxMs, "backend connect() bound; 0 = none");
    flags.add("--probe-interval-ms", &o.probeIntervalMs, 0, kMaxMs,
              "health-probe sweep period");
    flags.add("--probe-timeout-ms", &o.probeTimeoutMs, 0, kMaxMs,
              "health-probe connect/read bound; 0 = none");
    flags.add("--max-reroutes", &o.maxReroutes, 0, 1000,
              "dispatch attempts per request before a retryable busy");
    gpm::addBreakerFlags(flags, o.breaker, "backend");
    flags.add("--breaker-min-samples", &o.breaker.minSamples,
              std::size_t{0}, std::size_t{1} << 20,
              "samples required before a breaker may open");
    flags.parse(argc, argv);
    if (cfg.backends.empty())
        gpm::fatal("gpm-router: --backends is required (try "
                   "--help)");
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    RouterConfig cfg = parseArgs(argc, argv);

    gpm::GpmRouter router(cfg.backends,
                          gpm::listenOrDie("gpm-router", cfg.transport),
                          cfg.opts, cfg.transport.client);
    std::printf("gpm-router: %zu backends\n", cfg.backends.size());
    gpm::serveUntilStopped("gpm-router", router, cfg.transport);
    std::printf("gpm-router: shutdown complete\n");
    return 0;
}
