/**
 * @file
 * gpmd — the global-power-management scenario daemon.
 *
 * Serves NDJSON scenario requests (see docs/SERVICE.md) over TCP on
 * top of one shared ProfileLibrary. SIGINT/SIGTERM trigger a clean
 * draining shutdown: the accept loop unblocks, queued scenario work
 * finishes, open connections are closed, and the process exits 0.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "power/dvfs.hh"
#include "service/server.hh"
#include "service/service.hh"
#include "trace/phase_profile.hh"
#include "trace/workload.hh"
#include "util/fault.hh"
#include "util/flags.hh"
#include "util/logging.hh"

namespace
{

struct DaemonConfig
{
    gpm::DaemonTransport transport;
    gpm::ServiceOptions service;
    double scale = 1.0;
    /** Non-empty: per-workload content-addressed profile store
     *  directory; the suite is prewarmed into/from it in the
     *  background while the daemon serves. Empty: build profiles
     *  lazily per combo. */
    std::string profileCacheDir;
    /** Fault-injection spec (--fault / GPMD_FAULT); empty = off. */
    std::string faultSpec;
};

DaemonConfig
parseArgs(int argc, char **argv)
{
    DaemonConfig cfg;
    cfg.transport.port = 7421;
    cfg.scale = gpm::FlagSet::envNumber("GPM_SCALE", gpm::minLengthScale,
                                        gpm::maxLengthScale, 1.0);
    if (const char *s = std::getenv("GPM_PROFILE_CACHE_DIR");
        s && *s)
        cfg.profileCacheDir = s;
    if (const char *s = std::getenv("GPMD_FAULT"); s && *s)
        cfg.faultSpec = s;

    using std::size_t;
    gpm::ServiceOptions &svc = cfg.service;
    gpm::FlagSet flags("gpmd", "usage: gpmd [options]");
    gpm::addTransportFlags(flags, cfg.transport);
    flags.add("--workers", &svc.workers, size_t{1}, size_t{1024},
              "queue worker threads");
    flags.add("--queue", &svc.queueCapacity, size_t{1},
              size_t{1} << 24, "queue high-water mark");
    flags.add("--cache", &svc.cacheCapacity, size_t{0},
              size_t{1} << 24, "LRU result-cache entries");
    flags.add("--sweep-threads", &svc.sweepConcurrency, size_t{0},
              size_t{1024}, "threads per sweep; 0 = auto");
    flags.add("--cache-dir", &svc.cacheDir, "DIR",
              "persistent result-cache directory (unset = "
              "memory-only caching)");
    flags.add("--cache-disk-bytes", &svc.cacheDiskBytes,
              std::uint64_t{0},
              std::numeric_limits<std::uint64_t>::max(),
              "disk-cache LRU byte budget; 0 = unbounded");
    flags.add("--scale", &cfg.scale, gpm::minLengthScale,
              gpm::maxLengthScale,
              "workload length scale; GPM_SCALE sets the default");
    flags.add("--profile-cache-dir", &cfg.profileCacheDir, "DIR",
              "per-workload content-addressed profile store (also "
              "GPM_PROFILE_CACHE_DIR); the suite is prewarmed in the "
              "background (unset = build lazily per request)");
    flags.add("--fault", &cfg.faultSpec, "SPEC",
              "arm fault injection (also GPMD_FAULT; e.g. "
              "worker-throw:0.5,seed:42 — see docs/ROBUSTNESS.md)");
    flags.addSwitch("--overload-off", &svc.admission.enabled, false,
                    "disable adaptive admission control (binary "
                    "busy/accept only)");
    flags.add("--overload-fair-share", &svc.admission.fairShare, 0.0,
              1.0, "fraction of the queue one connection may hold");
    flags.add("--overload-headroom", &svc.admission.headroom, 0.0,
              1e6,
              "safety factor on predicted completion vs deadline");
    flags.add("--overload-degrade-depth",
              &svc.admission.degradeDepth, 0.0, 1e6,
              "queue-load fraction at/over which admissions are "
              "flagged overloaded");
    flags.add("--degrade-ladder", &svc.degradeLadder, false, true,
              "1/0: substitute cheaper ladder solvers under overload "
              "or doomed deadlines");
    gpm::addBreakerFlags(flags, svc.resultBreaker, "disk/profile");
    flags.parse(argc, argv);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonConfig cfg = parseArgs(argc, argv);

    if (!cfg.faultSpec.empty()) {
        if (auto err = gpm::fault::arm(cfg.faultSpec))
            gpm::fatal("gpmd: --fault: %s", err->c_str());
        gpm::warn("gpmd: FAULT INJECTION ARMED (%s)",
                  cfg.faultSpec.c_str());
    }

    gpm::DvfsTable dvfs = gpm::DvfsTable::classic3();
    gpm::ProfileLibrary lib(dvfs, cfg.scale);
    // Prewarm in the background so the listener comes up
    // immediately: submits that need a still-building profile wait
    // on that profile's entry, not on the whole suite.
    std::thread prewarm;
    if (!cfg.profileCacheDir.empty()) {
        // The profile store shares the result cache's breaker
        // tuning: one --breaker-* knob set governs both failure
        // domains (they open and close independently).
        lib.attachStore(cfg.profileCacheDir,
                        cfg.service.resultBreaker);
        gpm::inform("gpmd: prewarming profiles (store %s)",
                    cfg.profileCacheDir.c_str());
        // A failed prewarm must not take the daemon down: catch
        // everything (parallelFor rethrows the first failed build)
        // and fall back to per-entry lazy builds in
        // ProfileLibrary::get().
        prewarm = std::thread([&lib] {
            try {
                lib.buildSuite();
            } catch (const std::exception &e) {
                gpm::warn("gpmd: profile prewarm failed: %s "
                          "(profiles will build lazily per request)",
                          e.what());
            } catch (...) {
                gpm::warn("gpmd: profile prewarm failed (profiles "
                          "will build lazily per request)");
            }
        });
    }

    gpm::ScenarioService svc(lib, dvfs, cfg.service);
    gpm::GpmServer server(svc, gpm::listenOrDie("gpmd", cfg.transport),
                          cfg.transport.client);
    gpm::serveUntilStopped("gpmd", server, cfg.transport);
    if (prewarm.joinable())
        prewarm.join();
    std::printf("gpmd: shutdown complete\n");
    return 0;
}
