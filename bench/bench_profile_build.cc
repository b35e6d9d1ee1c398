/**
 * @file
 * Profile-pipeline build benchmark: the cold-start cost the paper's
 * "single-threaded Turandot runs" impose on every daemon start and
 * bench run, and what the parallel + content-addressed pipeline
 * recovers. Each workload is one build task: one pass over its op
 * stream through the caches and branch predictor, timed at every
 * DVFS mode in lockstep (Profiler::profileWorkload), so a suite
 * build is 12 tasks whatever the mode count.
 *
 * Phases (each over the full 12-benchmark suite):
 *
 *   serial       buildSuite(1) into a cold store — the baseline of
 *                one thread building the workloads one by one
 *   cold@T       buildSuite(T) with a cold store, for T in {2, 8};
 *                results are checked bitwise against the serial
 *                build before timing is reported
 *   warm         buildSuite() over the store the cold run wrote:
 *                all profiles load from disk, zero detailed runs
 *   incremental  one workload's store entry removed, then
 *                buildSuite(): exactly one profile rebuilds
 *
 * Each phase appends one NDJSON record to BENCH_sweep.json (see
 * bench::appendBenchLine); the cold records carry the serial
 * baseline so speedup is recorded on the same machine. GPM_SCALE
 * scales workload lengths as usual (use ~0.1 for a quick run).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

#include "common.hh"
#include "trace/profile_store.hh"
#include "trace/profiler.hh"

namespace
{

using namespace gpm;
using namespace gpm::bench;

bool
identicalProfiles(const WorkloadProfile &a, const WorkloadProfile &b)
{
    if (a.name != b.name || a.modes.size() != b.modes.size())
        return false;
    for (std::size_t m = 0; m < a.modes.size(); m++) {
        const ModeProfile &x = a.modes[m], &y = b.modes[m];
        if (x.chunkInsts != y.chunkInsts ||
            x.lastChunkInsts != y.lastChunkInsts ||
            x.numChunks() != y.numChunks())
            return false;
        const std::size_t n = x.numChunks();
        if (std::memcmp(x.timePs.data(), y.timePs.data(),
                        n * sizeof(double)) != 0 ||
            std::memcmp(x.energyJ.data(), y.energyJ.data(),
                        n * sizeof(double)) != 0 ||
            std::memcmp(x.l2Accesses.data(), y.l2Accesses.data(),
                        n * sizeof(std::uint32_t)) != 0 ||
            std::memcmp(x.l2Misses.data(), y.l2Misses.data(),
                        n * sizeof(std::uint32_t)) != 0)
            return false;
    }
    return true;
}

/** Suite profiles of a library, in suite order. */
std::vector<const WorkloadProfile *>
suiteProfiles(ProfileLibrary &lib)
{
    std::vector<const WorkloadProfile *> out;
    for (const auto &w : spec2000Suite())
        out.push_back(&lib.get(w.name));
    return out;
}

void
wipeStore(const std::string &dir)
{
    std::string cmd = "rm -rf " + dir;
    if (std::system(cmd.c_str()) != 0)
        warn("cannot clear %s", dir.c_str());
}

} // namespace

int
main()
{
    banner("profile pipeline build cost",
           "cold (serial vs parallel), warm (store hits), and "
           "incremental (one entry invalidated) suite builds");

    DvfsTable dvfs = DvfsTable::classic3();
    const double scale = scaleFromEnv();
    const std::size_t suite_n = spec2000Suite().size();
    char dirbuf[] = "gpm_profile_store_bench.XXXXXX";
    if (!::mkdtemp(dirbuf))
        fatal("mkdtemp failed");
    const std::string dir = dirbuf;

    // --- serial baseline (cold store) ---------------------------
    ProfileLibrary serial_lib(dvfs, scale);
    serial_lib.attachStore(dir + "/serial");
    WallTimer t_serial;
    serial_lib.buildSuite(1);
    const double serial_ms = t_serial.ms();
    std::printf("serial    : %8.1f ms (%zu workloads x %zu modes)\n",
                serial_ms, suite_n, dvfs.numModes());
    auto baseline = suiteProfiles(serial_lib);

    // --- cold parallel builds, checked bitwise ------------------
    for (std::size_t threads : {std::size_t(2), std::size_t(8)}) {
        ProfileLibrary lib(dvfs, scale);
        std::string sub = dir + "/t" + std::to_string(threads);
        lib.attachStore(sub);
        WallTimer t;
        lib.buildSuite(threads);
        double ms = t.ms();
        auto built = suiteProfiles(lib);
        for (std::size_t i = 0; i < built.size(); i++)
            if (!identicalProfiles(*built[i], *baseline[i]))
                fatal("parallel build diverged from serial for %s",
                      baseline[i]->name.c_str());
        std::printf("cold @%zu   : %8.1f ms  speedup %.2fx "
                    "(bitwise-identical to serial)\n",
                    threads, ms, serial_ms / ms);
        appendSweepJson("profile_build_cold", suite_n, threads,
                        serial_ms, ms);
    }

    // --- warm start over the populated store --------------------
    {
        ProfileLibrary lib(dvfs, scale);
        lib.attachStore(dir + "/t8");
        WallTimer t;
        lib.buildSuite();
        double ms = t.ms();
        ProfileLibraryStats st = lib.stats();
        if (st.builds != 0 || st.diskHits != suite_n)
            fatal("warm start rebuilt profiles (builds %llu, disk "
                  "hits %llu)",
                  static_cast<unsigned long long>(st.builds),
                  static_cast<unsigned long long>(st.diskHits));
        std::printf("warm      : %8.1f ms  (all %zu from disk, "
                    "0 builds)\n",
                    ms, suite_n);
        appendSweepJson("profile_build_warm", suite_n, 1, 0.0, ms);
    }

    // --- incremental: invalidate one workload's entry -----------
    {
        const WorkloadSpec &victim = spec2000Suite().front();
        ProfileLibrary lib(dvfs, scale);
        lib.attachStore(dir + "/t8");
        {
            ProfileStore probe(dir + "/t8");
            std::string path = probe.pathFor(
                victim.name, lib.workloadFingerprint(victim));
            if (::unlink(path.c_str()) != 0)
                fatal("cannot invalidate %s", path.c_str());
        }
        WallTimer t;
        lib.buildSuite();
        double ms = t.ms();
        ProfileLibraryStats st = lib.stats();
        if (st.builds != 1 || st.diskHits != suite_n - 1)
            fatal("incremental rebuild touched more than the "
                  "invalidated entry (builds %llu, disk hits %llu)",
                  static_cast<unsigned long long>(st.builds),
                  static_cast<unsigned long long>(st.diskHits));
        std::printf("increment : %8.1f ms  (rebuilt only %s)\n", ms,
                    victim.name.c_str());
        appendSweepJson("profile_build_incremental", 1, 1, 0.0, ms);
    }

    wipeStore(dir);
    return 0;
}
