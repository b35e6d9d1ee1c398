/**
 * @file
 * gpmbench — the workload runner behind perfbench/run.py.
 *
 *   gpmbench prewarm --store DIR
 *   gpmbench sweep   --seed N --seconds T --trace 0|1 --work DIR
 *                    [--spans FILE]
 *   gpmbench warm    --seed N --port P
 *   gpmbench serve   --seed N --seconds T --trace 0|1 --store DIR
 *                    --work DIR --port P --backends P1,P2
 *                    [--spans FILE]
 *
 * `sweep` runs the paper's evaluation grid in-process through the
 * public ExperimentRunner / ClusterManager entry points. `serve`
 * drives a gpm-router in front of gpmd backends (the route-mixed
 * workload) over loopback NDJSON, checking every payload against
 * serializeResults() of an in-process sweep. Every profile library,
 * here and in the daemons, is built at kScale.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics (name -> number) and info (host, build, scale,
 * seed, failure counts). With --trace 1 it also records spans
 * around every call into a layer and writes them to --spans.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/cluster_manager.hh"
#include "core/policies.hh"
#include "fullsim/cmp_system.hh"
#include "loadgen.hh"
#include "metrics/experiment.hh"
#include "router/ring.hh"
#include "service/json.hh"
#include "service/scenario.hh"
#include "service/service.hh"
#include "spans.hh"
#include "trace/phase_profile.hh"
#include "trace/workload.hh"

namespace fs = std::filesystem;
using namespace gpm;
using namespace gpmbench;

namespace
{

/** Profile length scale of every workload: points make about 8
 *  explore decisions each (about 4 at 0.1), and a cold suite build
 *  takes about 5 s on 4 cores. perfbench/run.py starts the daemons
 *  with the same --scale; at any other their payloads fail the
 *  check against this process's in-process sweeps. */
constexpr double kScale = 0.2;

/**
 * FNV-1a digest of every PolicyEval field of the sweep grid (plus
 * the cluster rack's results), at kScale. Any change to what the
 * simulator or a policy computes changes it; a change that only
 * makes them faster must not.
 */
constexpr std::uint64_t kGridDigest = 0x3e87704f93a0f0acull;

struct Args
{
    std::string cmd;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string store;
    std::string work = ".";
    std::string spans;
    std::uint16_t port = 0;
    std::vector<std::uint16_t> backends;
    int cpu = -1;
};

[[noreturn]] void
die(const char *msg)
{
    std::fprintf(stderr, "gpmbench: %s\n", msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        die("usage: gpmbench prewarm|sweep|warm|serve [options]");
    Args a;
    a.cmd = argv[1];
    for (int i = 2; i < argc; i++) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            die(("missing value for " + k).c_str());
        std::string v = argv[++i];
        if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--store")
            a.store = v;
        else if (k == "--work")
            a.work = v;
        else if (k == "--spans")
            a.spans = v;
        else if (k == "--port")
            a.port = static_cast<std::uint16_t>(std::stoi(v));
        else if (k == "--cpu")
            a.cpu = std::stoi(v);
        else if (k == "--backends") {
            std::size_t p = 0;
            while (p < v.size()) {
                std::size_t c = v.find(',', p);
                if (c == std::string::npos)
                    c = v.size();
                a.backends.push_back(static_cast<std::uint16_t>(
                    std::stoi(v.substr(p, c - p))));
                p = c + 1;
            }
        } else
            die(("unknown option " + k).c_str());
    }
    return a;
}

std::size_t
nproc()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** CPU time the host has spent busy so far, summed over its cores
 *  [s]: user, nice, system, irq and softirq of /proc/stat, so time
 *  the hypervisor gave to other guests (steal) is not counted. */
double
hostBusySeconds()
{
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return 0.0;
    unsigned long long v[7] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                              &v[6]);
    std::fclose(f);
    if (n != 7)
        return 0.0;
    return static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** @p n points or scenarios per CPU-second the host has spent busy
 *  since hostBusySeconds() read @p busy0. */
double
perBusySecond(double n, double busy0)
{
    return n / std::max(hostBusySeconds() - busy0, 0.01);
}

/** Keeps the calling thread, and the threads it starts meanwhile,
 *  on one core while alive; a negative @p cpu changes nothing. */
class PinnedTo
{
  public:
    explicit PinnedTo(int cpu)
    {
        if (cpu < 0 || sched_getaffinity(0, sizeof old, &old) != 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned = sched_setaffinity(0, sizeof one, &one) == 0;
    }
    ~PinnedTo()
    {
        if (pinned)
            sched_setaffinity(0, sizeof old, &old);
    }
    PinnedTo(const PinnedTo &) = delete;
    PinnedTo &operator=(const PinnedTo &) = delete;

  private:
    cpu_set_t old;
    bool pinned = false;
};

/** Nearest-rank quantile; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t r = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, r == 0 ? 0 : r - 1)];
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
msSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

/** Median per-call time [us] of @p fn, repeated for about
 *  @p budget_ms (at least @p min_calls calls), one span each. */
double
timeCalls(const char *span, double budget_ms, std::size_t min_calls,
          const std::function<void(std::size_t)> &fn)
{
    std::vector<double> us;
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; us.size() < min_calls ||
                            msSince(t0) < budget_ms;
         i++) {
        std::int64_t a = nowNs();
        fn(i);
        std::int64_t b = nowNs();
        Tracer::record(span, a, b, 0, i + 1);
        us.push_back(static_cast<double>(b - a) / 1e3);
    }
    return median(std::move(us));
}

/** The run's result: metrics by name plus the pass/fail tally. */
struct Result
{
    std::vector<std::pair<std::string, double>> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::map<std::string, std::uint64_t> failures;
    std::vector<std::string> notes;

    void set(const std::string &name, double v)
    {
        for (auto &m : metrics)
            if (m.first == name) {
                m.second = v;
                return;
            }
        metrics.emplace_back(name, v);
    }
    void fail(const std::string &code, std::uint64_t n = 1)
    {
        failed += n;
        failures[code] += n;
    }
    void absorb(const PhaseResult &r)
    {
        attempted += r.attempted;
        failed += r.failed;
        for (const auto &[k, n] : r.failures)
            failures[k] += n;
    }
};

/**
 * Latency quantiles of each round at one load level [ms]. Only these
 * summaries outlive a round, so the runner's memory does not grow
 * with the work done (the sweep reports its own peak RSS).
 */
struct Rounds
{
    std::vector<double> p50, p90;

    void add(const std::vector<double> &ms)
    {
        p50.push_back(quantile(ms, 0.5));
        p90.push_back(quantile(ms, 0.9));
    }
};

/**
 * The p50 and p90 are medians over rounds, so a spell of outside load
 * spoils a few rounds rather than the run; the p99 is over @p all,
 * every round's samples, when given. All are per-layer metrics: on a
 * 4-vCPU VM whose neighbours come and go, route-mixed's open-loop
 * latencies move by up to 2x from run to run, more than any bound a
 * regression check could use.
 */
void
setLatencies(Result &r, const char *level, const Rounds &rounds,
             const std::vector<double> &all)
{
    r.set(std::string("p50_ms.") + level, median(rounds.p50));
    r.set(std::string("p90_ms.") + level, median(rounds.p90));
    if (!all.empty())
        r.set(std::string("p99_ms.") + level, quantile(all, 0.99));
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
emit(const Args &a, Result &r)
{
    if (r.failed > 0)
        r.correct = false;
    std::string out = "{\"correct\":";
    out += r.correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(r.attempted);
    out += ",\"failed\":" + std::to_string(r.failed);
    out += ",\"metrics\":{";
    char buf[128];
    for (std::size_t i = 0; i < r.metrics.size(); i++) {
        double v = std::isfinite(r.metrics[i].second)
                       ? r.metrics[i].second
                       : 0.0;
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g",
                      i ? "," : "", r.metrics[i].first.c_str(), v);
        out += buf;
    }
    out += "},\"info\":{";
    std::snprintf(buf, sizeof(buf),
                  "\"nproc\":%zu,\"build_type\":\"%s\",\"scale\":%g,"
                  "\"seed\":%llu,\"trace\":%d",
                  nproc(), GPMBENCH_BUILD_TYPE, kScale,
                  static_cast<unsigned long long>(a.seed),
                  a.trace ? 1 : 0);
    out += buf;
    out += ",\"failures\":{";
    bool first = true;
    for (const auto &[k, n] : r.failures) {
        out += (first ? "\"" : ",\"") + k +
               "\":" + std::to_string(n);
        first = false;
    }
    out += "},\"notes\":[";
    for (std::size_t i = 0; i < r.notes.size(); i++)
        out += (i ? ",\"" : "\"") + r.notes[i] + "\"";
    out += "]}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

void
writeSpans(const Args &a, Result &r)
{
    if (!a.trace)
        return;
    auto spans = Tracer::collect();
    for (const auto &[layer, ms] : Tracer::selfTimeMs(spans))
        r.set(layer + ".self_ms", ms);
    if (!a.spans.empty() && !Tracer::write(a.spans))
        r.notes.push_back("could not write spans");
}

// ---------------------------------------------------------------- //
// Digest                                                           //
// ---------------------------------------------------------------- //

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; i++) {
            h ^= c[i];
            h *= 0x100000001b3ull;
        }
    }
    void num(double d) { bytes(&d, sizeof(d)); }
    void num(std::uint64_t u) { bytes(&u, sizeof(u)); }
    void str(const std::string &s)
    {
        num(static_cast<std::uint64_t>(s.size()));
        bytes(s.data(), s.size());
    }
};

std::uint64_t
digestOf(const PolicyEval &e)
{
    Fnv f;
    f.str(e.policy);
    f.num(e.budgetFrac);
    const RunMetrics &m = e.metrics;
    for (double d : {m.perfDegradation, m.weightedSlowdown,
                     m.weightedSpeedupLoss, m.powerSavings,
                     m.powerOverBudget, m.avgChipPowerW, m.chipBips,
                     e.predPowerError, e.predBipsError})
        f.num(d);
    f.num(e.managerStats.decisions);
    f.num(e.managerStats.overshoots);
    f.num(e.managerStats.modeSwitches);
    return f.h;
}

std::uint64_t
digestOf(const ClusterRunResult &r)
{
    Fnv f;
    for (double d : {r.facilityBudgetW, r.clusterBips, r.clusterPowerW,
                     r.budgetUtilization})
        f.num(d);
    for (const auto &c : r.chips) {
        for (double d :
             {c.bips, c.avgCorePowerW, c.awardedMeanW, c.refPowerW})
            f.num(d);
        f.num(c.managerStats.decisions);
    }
    for (const auto &e : r.epochs)
        for (double w : e.awardsW)
            f.num(w);
    return f.h;
}

// ---------------------------------------------------------------- //
// Prediction matrices from the workload's own profiles             //
// ---------------------------------------------------------------- //

/** Core c of @p combo, phase-shifted by frac(c * golden ratio),
 *  peeked over one 500 us explore window per mode. */
ModeMatrix
profileMatrix(ProfileLibrary &lib, const DvfsTable &dvfs,
              const std::vector<std::string> &combo,
              std::size_t offset = 0)
{
    constexpr double phi = 0.6180339887498949;
    ModeMatrix m(combo.size(), dvfs.numModes());
    for (std::size_t c = 0; c < combo.size(); c++) {
        ProfileCursor cur(lib.get(combo[c]));
        double f = static_cast<double>(offset + c) * phi;
        cur.seekFraction(f - std::floor(f));
        for (std::size_t mi = 0; mi < dvfs.numModes(); mi++) {
            auto mode = static_cast<PowerMode>(mi);
            auto d = cur.peek(500.0, mode);
            if (d.usedUs <= 0.0)
                continue;
            m.powerW(c, mode) = d.energyJ / (d.usedUs * 1e-6);
            m.bips(c, mode) = d.instructions / (d.usedUs * 1000.0);
        }
    }
    return m;
}

/** Median time [ms] to load the suite from a warm store. */
double
storeLoadMs(const DvfsTable &dvfs, const std::string &dir)
{
    std::vector<double> loads;
    for (int k = 0; k < 3; k++) {
        std::int64_t t0 = nowNs();
        ProfileLibrary warm(dvfs, kScale);
        warm.attachStore(dir);
        warm.buildSuite(nproc());
        std::int64_t t1 = nowNs();
        Tracer::record("trace.store_load", t0, t1);
        loads.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
    return median(loads);
}

// ---------------------------------------------------------------- //
// prewarm                                                          //
// ---------------------------------------------------------------- //

int
cmdPrewarm(const Args &a)
{
    if (a.store.empty())
        die("prewarm needs --store");
    DvfsTable dvfs = DvfsTable::classic3();
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(a.store);
    lib.buildSuite(nproc());
    return lib.stats().ready == spec2000Suite().size() ? 0 : 1;
}

// ---------------------------------------------------------------- //
// sweep                                                            //
// ---------------------------------------------------------------- //

struct GridPoint
{
    const char *cls; ///< "2way" | "4way" | "8way" | "many" | "cluster"
    std::vector<std::string> combo;
    std::string policy;
    double budget = 1.0;
};

std::vector<double>
standardBudgets()
{
    return {0.625, 0.70, 0.775, 0.85, 0.925, 1.0};
}

/** The paper's evaluation grid, then the many-core points; the
 *  cluster rack is the last point. */
std::vector<GridPoint>
paperGrid()
{
    std::vector<GridPoint> g;
    for (const auto &[key, combo] : benchmarkCombinations()) {
        const char *cls = key.rfind("2way", 0) == 0   ? "2way"
                          : key.rfind("4way", 0) == 0 ? "4way"
                                                      : "8way";
        for (const char *pol : {"MaxBIPS", "Priority", "PullHiPushLo",
                                "ChipWideDVFS", "Oracle", "Static"})
            for (double b : standardBudgets())
                g.push_back({cls, combo, pol, b});
    }
    for (std::size_t n : {64u, 256u, 1024u})
        for (const char *pol : {"MaxBIPS-DP", "WaterFill", "GreedyTurbo"})
            for (double b : standardBudgets())
                g.push_back({"many", manyCoreCombo(n), pol, b});
    g.push_back({"cluster", {}, "MaxBIPS-DP", 0.8});
    return g;
}

ClusterSpec
rackSpec()
{
    ClusterSpec s;
    s.policy = "MaxBIPS-DP";
    s.chips.push_back({combination("2way1"), "MaxBIPS", 0.0, 0.0});
    s.chips.push_back({combination("4way2"), "PullHiPushLo", 0.0, 0.25});
    s.chips.push_back({combination("4way3"), "MaxBIPS", 0.0, 0.5});
    s.chips.push_back({manyCoreCombo(16), "WaterFill", 0.1, 0.75});
    return s;
}

struct SweepCtx
{
    ProfileLibrary &lib;
    const DvfsTable &dvfs;
    ExperimentRunner &runner;
    const std::vector<GridPoint> &grid;
    std::vector<std::uint64_t> expect; ///< digest per grid point
};

/** Evaluate one grid point; returns its digest. */
std::uint64_t
evalPoint(SweepCtx &ctx, const GridPoint &p, std::size_t concurrency,
          std::uint64_t *decisions)
{
    if (std::strcmp(p.cls, "cluster") == 0) {
        ClusterManager mgr(ctx.lib, ctx.dvfs, SimConfig{}, rackSpec());
        auto r = mgr.run(p.budget, concurrency);
        if (!r.ok())
            return 0;
        for (const auto &c : r.value().chips)
            *decisions += c.managerStats.decisions;
        return digestOf(r.value());
    }
    PolicyEval e = p.policy == "Static"
                       ? ctx.runner.evaluateStatic(p.combo, p.budget)
                       : ctx.runner.evaluate(p.combo, p.policy,
                                             p.budget);
    *decisions += e.managerStats.decisions;
    return digestOf(e);
}

struct PointTiming
{
    std::size_t point;
    double us;
};

struct LoopResult
{
    std::vector<PointTiming> times;
    std::uint64_t decisions = 0;
    std::uint64_t mismatches = 0;
    double wallS = 0.0;

    double rate() const
    {
        return wallS > 0 ? static_cast<double>(times.size()) / wallS
                         : 0.0;
    }
    /** Per-point latencies [ms]. */
    std::vector<double> ms() const
    {
        std::vector<double> v;
        for (const auto &t : times)
            v.push_back(t.us / 1e3);
        return v;
    }
    void merge(const LoopResult &o)
    {
        times.insert(times.end(), o.times.begin(), o.times.end());
        decisions += o.decisions;
        mismatches += o.mismatches;
        wallS += o.wallS;
    }
};

/** Closed loop: @p threads workers take the next point of the
 *  seed-shuffled grid order until @p passes whole passes are done,
 *  so every round does the same work. */
LoopResult
closedLoopSweep(SweepCtx &ctx, const std::vector<std::size_t> &order,
                std::size_t threads, std::size_t passes)
{
    LoopResult out;
    const std::size_t total = passes * order.size();
    std::atomic<std::size_t> next{0};
    std::mutex mtx;
    const std::int64_t t0 = nowNs();
    std::uint64_t root = Tracer::reserveId();
    auto worker = [&] {
        std::vector<PointTiming> mine;
        std::uint64_t decisions = 0, bad = 0;
        for (std::size_t i; (i = next.fetch_add(1)) < total;) {
            std::size_t pt = order[i % order.size()];
            const GridPoint &p = ctx.grid[pt];
            std::int64_t a = nowNs();
            std::uint64_t d = evalPoint(ctx, p, 1, &decisions);
            std::int64_t b = nowNs();
            Tracer::record(std::strcmp(p.cls, "cluster") == 0
                               ? "cluster.run"
                               : "sim.evaluate",
                           a, b, root, i + 1);
            if (d != ctx.expect[pt])
                bad++;
            mine.push_back({pt, static_cast<double>(b - a) / 1e3});
        }
        std::lock_guard<std::mutex> g(mtx);
        out.times.insert(out.times.end(), mine.begin(), mine.end());
        out.decisions += decisions;
        out.mismatches += bad;
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; t++)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    const std::int64_t t1 = nowNs();
    Tracer::recordAs(root, "metrics.closed_loop", t0, t1);
    out.wallS = static_cast<double>(t1 - t0) / 1e9;
    return out;
}

void
validationError(Result &r, const DvfsTable &dvfs)
{
    // Section 3.1: trace-based all-Turbo runs vs the cycle-level
    // full-CMP model, on the 2- and 4-way combinations.
    constexpr double scale = 0.005;
    ProfileLibrary lib(dvfs, scale);
    ExperimentRunner runner(lib, dvfs, SimConfig{});
    std::vector<double> dp, db;
    for (const auto &[key, combo] : benchmarkCombinations()) {
        if (key.rfind("8way", 0) == 0)
            continue;
        const SimResult &tr = runner.reference(combo);
        FullSimConfig fcfg;
        fcfg.lengthScale = scale;
        CmpSystem sys(combo, dvfs, fcfg);
        std::int64_t a = nowNs();
        auto fr = sys.runStatic(
            std::vector<PowerMode>(combo.size(), modes::Turbo));
        Tracer::record("fullsim.run", a, nowNs());
        dp.push_back(100.0 *
                     (fr.avgCorePowerW() / tr.avgCorePowerW() - 1.0));
        db.push_back(100.0 * (fr.chipBips() / tr.chipBips() - 1.0));
    }
    // Absolute errors: the mean and the worst combination.
    auto mean = [](const std::vector<double> &v) {
        double s = 0.0;
        for (double x : v)
            s += std::fabs(x);
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    auto worst = [](const std::vector<double> &v) {
        double w = 0.0;
        for (double x : v)
            w = std::max(w, std::fabs(x));
        return w;
    };
    r.set("validation.dbips_mean_pct", mean(db));
    r.set("validation.dbips_worst_pct", worst(db));
    r.set("validation.dpower_mean_pct", mean(dp));
    r.set("validation.dpower_worst_pct", worst(dp));
}

void
coreDecideMetrics(Result &r, ProfileLibrary &lib, const DvfsTable &dvfs)
{
    struct Case
    {
        const char *policy;
        std::vector<std::string> combo;
        const char *metric;
    };
    const Case cases[] = {
        {"MaxBIPS", combination("8way1"), "core.decide_us.MaxBIPS.8"},
        {"PullHiPushLo", combination("4way1"),
         "core.decide_us.PullHiPushLo.4"},
        {"MaxBIPS-DP", manyCoreCombo(1024),
         "core.decide_us.MaxBIPS-DP.1024"},
        {"GreedyTurbo", manyCoreCombo(256),
         "core.decide_us.GreedyTurbo.256"},
        {"WaterFill", manyCoreCombo(1024),
         "core.decide_us.WaterFill.1024"},
    };
    for (const Case &c : cases) {
        ModeMatrix m = profileMatrix(lib, dvfs, c.combo);
        std::vector<CoreSample> samples(m.numCores());
        Watts turbo = 0.0;
        for (std::size_t i = 0; i < samples.size(); i++) {
            samples[i].powerW = m.powerW(i, modes::Turbo);
            samples[i].bips = m.bips(i, modes::Turbo);
            turbo += samples[i].powerW;
        }
        PolicyInput in;
        in.samples = &samples;
        in.predicted = &m;
        in.budgetW = 0.8 * turbo;
        in.dvfs = &dvfs;
        auto policy = makePolicy(c.policy);
        std::size_t sink = 0;
        double us = timeCalls("core.decide", 150.0, 20, [&](std::size_t) {
            sink += policy->decide(in).size();
        });
        if (sink == 0)
            r.notes.push_back("empty decision");
        r.set(c.metric, us);
    }
}

void
clusterAllocateMetric(Result &r, ProfileLibrary &lib,
                      const DvfsTable &dvfs)
{
    ClusterSpec rack = rackSpec();
    std::vector<ChipFrontier> fronts;
    Watts turbo = 0.0;
    for (std::size_t i = 0; i < rack.chips.size(); i++) {
        ModeMatrix m =
            profileMatrix(lib, dvfs, rack.chips[i].combo, 64 * i);
        fronts.push_back(
            quantizeFrontier(collapseChipFrontier(m), rack.levels));
        turbo += fronts.back().pts.back().powerW;
    }
    std::size_t sink = 0;
    double us = timeCalls("cluster.allocate", 100.0, 20, [&](std::size_t) {
        sink += allocateFacilityBudget(fronts, 0.8 * turbo, rack.policy)
                    .awardsW.size();
    });
    if (sink == 0)
        r.notes.push_back("empty allocation");
    r.set("cluster.allocate_us", us);
}

int
cmdSweep(const Args &a)
{
    Result r;
    const std::size_t threads = nproc();
    DvfsTable dvfs = DvfsTable::classic3();
    fs::create_directories(a.work);

    // Set-up: build the profile suite into an empty store, three
    // times; the last library serves the workload.
    std::vector<double> setupS, buildMs, perProfileMs;
    std::unique_ptr<ProfileLibrary> lib;
    for (int k = 0; k < 3; k++) {
        fs::path dir = fs::path(a.work) / ("store" + std::to_string(k));
        fs::remove_all(dir);
        lib.reset();
        std::int64_t t0 = nowNs();
        lib = std::make_unique<ProfileLibrary>(dvfs, kScale);
        lib->attachStore(dir.string());
        lib->buildSuite(threads);
        std::int64_t t1 = nowNs();
        Tracer::record("trace.build_suite", t0, t1);
        setupS.push_back(static_cast<double>(t1 - t0) / 1e9);
        buildMs.push_back(static_cast<double>(t1 - t0) / 1e6);
        auto st = lib->stats();
        if (st.builds > 0)
            perProfileMs.push_back(static_cast<double>(st.buildMs) /
                                   static_cast<double>(st.builds));
        if (st.ready != spec2000Suite().size())
            r.fail("profile_build");
    }
    r.set("setup_s", median(setupS));

    ExperimentRunner runner(*lib, dvfs, SimConfig{});
    const std::vector<GridPoint> grid = paperGrid();
    SweepCtx ctx{*lib, dvfs, runner, grid, {}};

    // Reference results through the public sweep engine (this also
    // fills the runner's per-combination all-Turbo cache, so the
    // timed loops below measure steady-state points).
    SweepSpec spec;
    for (const GridPoint &p : grid)
        if (std::strcmp(p.cls, "cluster") != 0)
            spec.add(p.combo, p.policy, p.budget);
    auto ref = runner.trySweep(spec, threads);
    if (!ref.ok())
        die(("sweep rejected: " + ref.error().message).c_str());
    Fnv grid_digest;
    for (const PolicyEval &e : ref.value()) {
        ctx.expect.push_back(digestOf(e));
        grid_digest.num(ctx.expect.back());
    }
    {
        ClusterManager mgr(*lib, dvfs, SimConfig{}, rackSpec());
        auto cr = mgr.run(grid.back().budget, threads);
        ctx.expect.push_back(cr.ok() ? digestOf(cr.value()) : 1);
        grid_digest.num(ctx.expect.back());
        if (!cr.ok())
            r.fail("cluster_run");
    }
    r.attempted += grid.size();
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(grid_digest.h));
    r.notes.push_back(std::string("grid digest ") + hex);
    if (grid_digest.h != kGridDigest)
        r.fail("digest", grid.size());

    std::vector<std::size_t> order(grid.size());
    for (std::size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::mt19937_64 rng(a.seed);
    std::shuffle(order.begin(), order.end(), rng);

    // Interleaved rounds of fixed work until --seconds have passed:
    // one single-thread pass (low load) and four passes on every
    // core (high load). Points per busy CPU-second of the high-load
    // passes is the median over rounds, so a spell of outside load
    // spoils a few rounds rather than the run; counting CPU time
    // rather than wall time leaves out the time the host gives other
    // guests. Points/s (wall time) is kept as a raw figure.
    constexpr std::size_t kHighPasses = 4;

    // Tracing overhead: untraced high-load rounds first.
    double untracedRate = 0.0;
    if (a.trace) {
        Tracer::enable(false);
        std::vector<double> rates;
        for (int k = 0; k < 5; k++)
            rates.push_back(
                closedLoopSweep(ctx, order, threads, kHighPasses).rate());
        untracedRate = median(rates);
        Tracer::enable(true);
    }

    // Every point's timing is kept for the traced metrics only.
    LoopResult low, high;
    Rounds lowRounds, highRounds;
    std::vector<double> rates, cpuRates;
    std::uint64_t points = 0, mismatches = 0;
    const std::int64_t until =
        nowNs() + static_cast<std::int64_t>(a.seconds * 1e9);
    while (rates.empty() || nowNs() < until) {
        auto lo = closedLoopSweep(ctx, order, 1, 1);
        const double busy0 = hostBusySeconds();
        auto hi = closedLoopSweep(ctx, order, threads, kHighPasses);
        cpuRates.push_back(perBusySecond(hi.times.size(), busy0));
        lowRounds.add(lo.ms());
        highRounds.add(hi.ms());
        rates.push_back(hi.rate());
        points += lo.times.size() + hi.times.size();
        mismatches += lo.mismatches + hi.mismatches;
        if (a.trace) {
            low.merge(lo);
            high.merge(hi);
        }
    }
    r.attempted += points;
    if (mismatches)
        r.fail("mismatch", mismatches);

    r.set("points_per_s", median(rates));
    r.set("points_per_cpu_s", median(cpuRates));
    setLatencies(r, "low", lowRounds, low.ms());
    setLatencies(r, "high", highRounds, high.ms());

    if (a.trace) {
        const double tracedRate = median(rates);
        r.set("tracing.overhead_pct",
              tracedRate > 0 ? 100.0 * (untracedRate / tracedRate - 1.0)
                             : 0.0);
        r.set("trace.suite_build_ms", median(buildMs));
        r.set("uarch.profile_run_ms", median(perProfileMs));
        r.set("trace.store_load_ms",
              storeLoadMs(dvfs, (fs::path(a.work) / "store2").string()));
        std::map<std::string, std::vector<double>> byCls;
        for (const auto &t : high.times)
            byCls[grid[t.point].cls].push_back(t.us);
        for (const char *cls : {"2way", "4way", "8way", "many"}) {
            r.set(std::string("sim.point_us.") + cls + ".p50",
                  quantile(byCls[cls], 0.5));
            r.set(std::string("sim.point_us.") + cls + ".p99",
                  quantile(byCls[cls], 0.99));
        }
        r.set("sim.points", static_cast<double>(points));
        r.set("sim.decisions",
              static_cast<double>(low.decisions + high.decisions));
        r.set("cluster.run_ms", quantile(byCls["cluster"], 0.5) / 1e3);
        coreDecideMetrics(r, *lib, dvfs);
        clusterAllocateMetric(r, *lib, dvfs);

        // Useful-work ratio of the sweep engine: serial point time
        // (medians from the one-thread loop) over wall x threads.
        std::map<std::size_t, std::vector<double>> serial;
        for (const auto &t : low.times)
            serial[t.point].push_back(t.us);
        double work_us = 0.0;
        bool complete = true;
        for (std::size_t i = 0; i + 1 < grid.size(); i++) {
            auto it = serial.find(i);
            if (it == serial.end()) {
                complete = false;
                break;
            }
            work_us += median(it->second);
        }
        std::vector<double> walls;
        for (int k = 0; k < 3; k++) {
            std::int64_t t0 = nowNs();
            {
                ScopedSpan sp("metrics.sweep");
                auto again = runner.sweep(spec, threads);
                if (again.size() != spec.size())
                    r.fail("sweep");
            }
            walls.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        }
        r.set("metrics.sweep_efficiency",
              complete ? work_us / (median(walls) *
                                    static_cast<double>(threads))
                       : 0.0);
        r.set("metrics.sweep_ms", median(walls) / 1e3);
        validationError(r, dvfs);
    }
    r.set("peak_rss_mb", peakRssMb());
    writeSpans(a, r);
    fs::remove_all(fs::path(a.work) / "store0");
    fs::remove_all(fs::path(a.work) / "store1");
    fs::remove_all(fs::path(a.work) / "store2");
    emit(a, r);
    return 0;
}

// ---------------------------------------------------------------- //
// serve                                                            //
// ---------------------------------------------------------------- //

/** A scenario of the workload's key space, as request JSON. */
std::string
scenarioJson(const std::vector<std::string> &combo,
             const std::string &policy, double budget)
{
    json::Value s = json::Value::object();
    json::Value c = json::Value::array();
    for (const auto &n : combo)
        c.push(n);
    s.set("combo", std::move(c));
    s.set("policy", policy);
    s.set("budget", budget);
    return s.dump();
}

struct KeySpace
{
    std::vector<std::string> scenarios; ///< request JSON per key
    std::size_t warm = 0;               ///< keys [0, warm) are warmed
    std::vector<double> zipfCdf;        ///< over the warm keys
    double coldShare = 0.0;
    double batchShare = 0.0;
    std::atomic<std::size_t> nextCold{0};
};

/**
 * route-mixed: every 2-way pair of the suite plus 40 seed-drawn
 * 4-way mixes, x 4 policies x 80 budgets (0.600 .. 0.995), in a
 * seed-shuffled order. The first 256 keys are warmed and drawn
 * Zipf(1); 0.2% of scenarios take the next never-used key (a cold
 * miss, kept rare enough that p99 stays a hit latency); 20% of
 * requests are submit_batch of 2-4 scenarios.
 */
void
mixedKeys(KeySpace &ks, std::uint64_t seed)
{
    const auto &suite = spec2000Suite();
    std::vector<std::vector<std::string>> combos;
    for (std::size_t i = 0; i < suite.size(); i++)
        for (std::size_t j = i + 1; j < suite.size(); j++)
            combos.push_back({suite[i].name, suite[j].name});
    std::mt19937_64 rng(seed);
    for (int k = 0; k < 40; k++) {
        std::vector<std::string> c;
        for (int i = 0; i < 4; i++)
            c.push_back(suite[rng() % suite.size()].name);
        combos.push_back(c);
    }
    for (const auto &c : combos)
        for (const char *pol :
             {"MaxBIPS", "Priority", "PullHiPushLo", "ChipWideDVFS"})
            for (int b = 0; b < 80; b++)
                ks.scenarios.push_back(
                    scenarioJson(c, pol, 0.6 + 0.005 * b));
    std::shuffle(ks.scenarios.begin(), ks.scenarios.end(), rng);
    ks.warm = 256;
    ks.coldShare = 0.002;
    ks.batchShare = 0.2;
    ks.zipfCdf.assign(ks.warm, 0.0);
    double sum = 0.0;
    for (std::size_t i = 0; i < ks.warm; i++)
        sum += 1.0 / static_cast<double>(i + 1);
    double acc = 0.0;
    for (std::size_t i = 0; i < ks.warm; i++) {
        acc += 1.0 / static_cast<double>(i + 1) / sum;
        ks.zipfCdf[i] = acc;
    }
}

std::uint32_t
drawKey(KeySpace &ks, std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(rng) < ks.coldShare) {
        std::size_t k = ks.warm + ks.nextCold.fetch_add(1);
        if (k < ks.scenarios.size())
            return static_cast<std::uint32_t>(k);
    }
    double x = u(rng);
    auto it = std::lower_bound(ks.zipfCdf.begin(), ks.zipfCdf.end(), x);
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(it - ks.zipfCdf.begin(), ks.warm - 1));
}

Draw
drawRequest(KeySpace &ks, std::mt19937_64 &rng)
{
    Draw d;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::size_t n = 1;
    if (u(rng) < ks.batchShare)
        n = 2 + rng() % 3;
    for (std::size_t i = 0; i < n; i++)
        d.keys.push_back(drawKey(ks, rng));
    if (n == 1) {
        d.body = "\"verb\":\"submit\",\"scenario\":" +
                 ks.scenarios[d.keys[0]];
    } else {
        d.body = "\"verb\":\"submit_batch\",\"scenarios\":[";
        for (std::size_t i = 0; i < n; i++)
            d.body += (i ? "," : "") + ks.scenarios[d.keys[i]];
        d.body += "]";
    }
    return d;
}

/** Keys used for per-layer attribution: the warm set's first (most
 *  popular) entries. */
constexpr std::size_t kAttributionKeys = 64;

/** serializeResults() of an in-process sweep of each scenario. */
std::vector<std::string>
expectedPayloads(ExperimentRunner &runner,
                 const std::vector<std::string> &scenarios)
{
    std::vector<std::string> out(scenarios.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < scenarios.size();) {
            auto v = json::parse(scenarios[i]);
            auto spec = parseScenario(v.value());
            if (!spec.ok())
                die(("bad scenario: " + spec.error()).c_str());
            auto evals = runner.sweep(spec.value().sweepSpec(), 1);
            out[i] = serializeResults(spec.value(), evals);
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < nproc(); t++)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    return out;
}

/** One `stats` call on a fresh connection; null Value on failure. */
json::Value
statsOf(std::uint16_t port)
{
    LineClient c(port);
    std::string line = c.call("{\"id\":0,\"verb\":\"stats\"}");
    auto v = json::parse(line);
    if (!v.ok())
        return json::Value();
    const json::Value *res = v.value().find("result");
    return res ? *res : json::Value();
}

double
num(const json::Value &o, const char *key)
{
    const json::Value *v = o.isObject() ? o.find(key) : nullptr;
    return v && v->isNumber() ? v->asNumber() : 0.0;
}

/** A phase's served scenarios' latencies [ms], timed from their
 *  scheduled send times. */
std::vector<double>
latenciesMs(const PhaseResult &r)
{
    std::vector<double> ms;
    for (const Sample &s : r.samples)
        ms.push_back(static_cast<double>(s.doneNs - s.schedNs) / 1e6);
    return ms;
}

/** Scenarios served per second within a closed-loop phase. */
double
completedRate(const PhaseResult &r)
{
    std::size_t n = 0;
    for (const Sample &s : r.samples)
        n += s.doneNs <= r.endNs;
    return static_cast<double>(n) * 1e9 /
           static_cast<double>(r.endNs - r.startNs);
}

/** Sequential round trips of @p lines on one connection [us]. */
std::vector<double>
roundTrips(std::uint16_t port, const std::vector<std::string> &lines,
           const std::vector<std::uint32_t> &keys,
           const std::vector<std::string> &expected, const char *span,
           Result &r)
{
    LineClient c(port);
    std::vector<double> us;
    for (std::size_t i = 0; i < lines.size(); i++) {
        std::int64_t a = nowNs();
        std::string resp = c.call(lines[i]);
        std::int64_t b = nowNs();
        Tracer::record(span, a, b, 0, keys[i] + 1);
        r.attempted++;
        Reply rep;
        if (!parseReply(resp, rep) || !rep.ok) {
            r.fail(rep.code.empty() ? "transport" : rep.code);
            continue;
        }
        if (rep.payload != expected[keys[i]]) {
            r.fail("mismatch");
            continue;
        }
        us.push_back(static_cast<double>(b - a) / 1e3);
    }
    return us;
}

void
serviceMicro(Result &r, ProfileLibrary &lib, const DvfsTable &dvfs,
             const KeySpace &ks, const std::vector<std::string> &expected,
             const std::string &work, double *submitJsonUs)
{
    // The most popular keys, few enough to stay in a memory tier of
    // the shipped size (128 entries) so every submit below is a hit.
    const std::size_t n = std::min<std::size_t>(ks.warm, kAttributionKeys);
    std::vector<ScenarioSpec> specs;
    for (std::size_t i = 0; i < n; i++)
        specs.push_back(
            parseScenario(json::parse(ks.scenarios[i]).value()).value());

    std::size_t sink = 0;
    r.set("service.parse_us",
          timeCalls("service.parse", 100.0, 2 * n, [&](std::size_t i) {
              auto v = json::parse(ks.scenarios[i % n]);
              sink += parseScenario(v.value()).ok();
          }));
    r.set("service.hash_us",
          timeCalls("service.hash", 100.0, 2 * n, [&](std::size_t i) {
              sink += specs[i % n].hash() & 1;
          }));

    // Memory-tier hits of an in-process service with shipped
    // defaults, and disk-tier hits of one whose memory tier is off.
    ScenarioService mem(lib, dvfs);
    for (const auto &s : specs)
        mem.submit(s);
    r.set("service.hit_us",
          timeCalls("service.hit", 100.0, 2 * n, [&](std::size_t i) {
              auto resp = mem.submit(specs[i % n]);
              if (!resp.ok || resp.payload != expected[i % n])
                  r.fail("inprocess_mismatch");
          }));
    *submitJsonUs =
        timeCalls("service.submit_json", 100.0, 2 * n,
                  [&](std::size_t i) {
                      auto resp = mem.submitJsonText(ks.scenarios[i % n]);
                      sink += resp.ok;
                  });
    ExperimentRunner runner(lib, dvfs, specs[0].simConfig());
    std::vector<std::vector<PolicyEval>> results;
    for (std::size_t i = 0; i < std::min<std::size_t>(n, 32); i++)
        results.push_back(runner.sweep(specs[i].sweepSpec(), 1));
    r.set("service.serialize_us",
          timeCalls("service.serialize", 100.0, 64, [&](std::size_t i) {
              std::size_t k = i % results.size();
              sink += serializeResults(specs[k], results[k]).size();
          }));

    ServiceOptions diskOpts;
    diskOpts.cacheCapacity = 0;
    diskOpts.cacheDir = (fs::path(work) / "disk-tier").string();
    fs::remove_all(diskOpts.cacheDir);
    {
        ScenarioService disk(lib, dvfs, diskOpts);
        for (std::size_t i = 0; i < std::min<std::size_t>(n, 64); i++)
            disk.submit(specs[i]);
        std::size_t m = std::min<std::size_t>(n, 64);
        r.set("service.disk_hit_us",
              timeCalls("service.disk_hit", 100.0, 2 * m,
                        [&](std::size_t i) {
                            auto resp = disk.submit(specs[i % m]);
                            if (!resp.diskHit ||
                                resp.payload != expected[i % m])
                                r.fail("inprocess_mismatch");
                        }));
    }
    fs::remove_all(diskOpts.cacheDir);
    if (sink == 0)
        r.notes.push_back("empty service results");
}

/** The warm scenarios of @p ks as submit lines, ids 1..warm. */
std::vector<std::string>
warmLines(const KeySpace &ks)
{
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < ks.warm; i++)
        lines.push_back("{\"id\":" + std::to_string(i + 1) +
                        ",\"verb\":\"submit\",\"scenario\":" +
                        ks.scenarios[i] + "}");
    return lines;
}

/** Part of the serving set-up: compute every warm scenario through
 *  the serving path, a few in flight at a time (the daemons' queues
 *  hold 64). */
int
cmdWarm(const Args &a)
{
    KeySpace ks;
    mixedKeys(ks, a.seed);
    auto lines = warmLines(ks);
    LineClient c(a.port);
    return c.pipeline(lines, 16) == lines.size() ? 0 : 1;
}

int
cmdServe(const Args &a)
{
    if (a.port == 0 || a.backends.empty() || a.store.empty())
        die("serve needs --port, --backends and --store");
    Result r;
    DvfsTable dvfs = DvfsTable::classic3();
    fs::create_directories(a.work);
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(a.store);
    lib.buildSuite(nproc());

    KeySpace ks;
    mixedKeys(ks, a.seed);
    const std::vector<std::string> warmScen(
        ks.scenarios.begin(), ks.scenarios.begin() + ks.warm);
    auto firstSpec =
        parseScenario(json::parse(warmScen[0]).value()).value();
    ExperimentRunner runner(lib, dvfs, firstSpec.simConfig());
    const std::vector<std::string> expected =
        expectedPayloads(runner, warmScen);

    // The set-up warmed every hot key; check each one once.
    const std::vector<std::string> hotLines = warmLines(ks);
    std::vector<std::uint32_t> warmKeys;
    for (std::size_t i = 0; i < ks.warm; i++)
        warmKeys.push_back(static_cast<std::uint32_t>(i));
    roundTrips(a.port, hotLines, warmKeys, expected, "gen.warm", r);

    auto snapshot = [&] {
        std::vector<json::Value> s;
        for (std::uint16_t p : a.backends)
            s.push_back(statsOf(p));
        s.push_back(statsOf(a.port));
        return s;
    };
    // One connection on one thread: run.py gives this process a core
    // of its own, apart from the router's and the daemons', where
    // more generator threads would only queue behind each other.
    constexpr int conns = 1;
    // Requests in flight in the closed loop. 128 on one connection
    // sustained more than 8 on each of 3 connections, with less spread
    // between runs.
    constexpr int kSatDepth = 128;
    // Fixed offered rates [scenario-carrying requests/s]: about 3%
    // and 10% of what the closed loop sustains on a quiet 4-core
    // host, so a slow spell of the host does not tip them into a
    // backlog.
    constexpr double lowRate = 1000.0;
    constexpr double highRate = 4000.0;
    constexpr double kPhaseS = 0.25;
    DrawFn draw = [&ks](std::mt19937_64 &rng) {
        return drawRequest(ks, rng);
    };

    // The traffic runs on the generator's core (--cpu); the checks
    // after it may use every core again.
    std::optional<PinnedTo> pin(std::in_place, a.cpu);
    double untracedSat = 0.0;
    if (a.trace) {
        Tracer::enable(false);
        std::vector<double> rates;
        for (int k = 0; k < 3; k++) {
            auto u = runClosedLoop(a.port, conns, kSatDepth, kPhaseS,
                                   a.seed * 1000 + 999 - k, draw, expected);
            rates.push_back(completedRate(u));
            r.absorb(u);
        }
        untracedSat = median(rates);
        Tracer::enable(true);
    }
    const auto before = snapshot();

    // Queue depth is sampled from stats() while traffic runs, one
    // short connection at a time (traced pass only).
    std::atomic<bool> sampling{a.trace};
    std::vector<double> depths;
    std::thread sampler([&] {
        std::size_t b = 0;
        while (sampling.load()) {
            json::Value s = statsOf(a.backends[b++ % a.backends.size()]);
            depths.push_back(num(s, "queueDepth"));
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    });

    // Interleaved rounds until --seconds have passed: a quarter second
    // of open loop at the low rate, at the high rate, then of closed
    // loop (saturation). The closed-loop rate, per busy CPU-second as
    // in the sweep, is the median over rounds; see setLatencies() for
    // the latencies.
    PhaseResult low, high, sat;
    Rounds lowRounds, highRounds;
    std::vector<double> satRates, cpuRates;
    const std::int64_t until =
        nowNs() + static_cast<std::int64_t>(a.seconds * 1e9);
    for (std::uint64_t round = 0; round == 0 || nowNs() < until;
         round++) {
        const std::uint64_t seed = a.seed * 1000 + round * 3;
        auto lo = runOpenLoop(a.port, conns, lowRate, kPhaseS, seed,
                              draw, expected);
        auto hi = runOpenLoop(a.port, conns, highRate, kPhaseS, seed + 1,
                              draw, expected);
        const double busy0 = hostBusySeconds();
        auto sa = runClosedLoop(a.port, conns, kSatDepth, kPhaseS, seed + 2,
                                draw, expected);
        cpuRates.push_back(perBusySecond(completedRate(sa) * kPhaseS,
                                         busy0));
        lowRounds.add(latenciesMs(lo));
        highRounds.add(latenciesMs(hi));
        satRates.push_back(completedRate(sa));
        low.merge(std::move(lo));
        high.merge(std::move(hi));
        sat.merge(std::move(sa));
    }
    sampling.store(false);
    sampler.join();
    pin.reset();
    const auto after = snapshot();

    for (const PhaseResult *p : {&low, &high, &sat})
        r.absorb(*p);

    r.set("points_per_s", median(satRates));
    r.set("points_per_cpu_s", median(cpuRates));
    setLatencies(r, "low", lowRounds, latenciesMs(low));
    setLatencies(r, "high", highRounds, latenciesMs(high));

    // Cold scenarios: each served payload must equal an in-process
    // sweep of the same scenario.
    std::vector<std::pair<std::uint32_t, std::string>> cold;
    for (PhaseResult *p : {&low, &high, &sat})
        for (auto &c : p->coldPayloads)
            cold.push_back(std::move(c));
    {
        std::vector<std::string> scen;
        for (const auto &c : cold)
            scen.push_back(ks.scenarios[c.first]);
        auto exp = expectedPayloads(runner, scen);
        for (std::size_t i = 0; i < cold.size(); i++)
            if (exp[i] != cold[i].second)
                r.fail("mismatch");
    }

    // Cross-check the client's tally against the daemons' counters.
    std::uint64_t servedOk = 0, sent = 0, degraded = 0;
    std::vector<double> missMs;
    for (const PhaseResult *p : {&low, &high, &sat}) {
        servedOk += p->samples.size();
        sent += p->attempted;
        degraded += p->degraded;
        for (const Sample &s : p->samples)
            if (!s.cached)
                missMs.push_back(
                    static_cast<double>(s.doneNs - s.schedNs) / 1e6);
    }
    double hits = 0, misses = 0, rejected = 0, shed = 0, degr = 0;
    for (std::size_t b = 0; b < a.backends.size(); b++) {
        hits += num(after[b], "cacheHits") - num(before[b], "cacheHits");
        misses +=
            num(after[b], "cacheMisses") - num(before[b], "cacheMisses");
        rejected += num(after[b], "rejectedBusy") -
                    num(before[b], "rejectedBusy");
        shed += num(after[b], "shedOverload") -
                num(before[b], "shedOverload") +
                num(after[b], "shedDeadline") -
                num(before[b], "shedDeadline");
        degr += num(after[b], "degradedRequests") -
                num(before[b], "degradedRequests");
    }
    const double scenarios = static_cast<double>(sent);
    if (hits + misses != static_cast<double>(servedOk)) {
        r.correct = false;
        r.notes.push_back("hits+misses != served scenarios");
    }
    if (degr != static_cast<double>(degraded)) {
        r.correct = false;
        r.notes.push_back("degradedRequests != degraded markers");
    }
    const json::Value &rb = before.back(), &ra = after.back();
    double routedScen =
        num(ra, "routedScenarios") - num(rb, "routedScenarios");
    if (routedScen != scenarios) {
        r.correct = false;
        r.notes.push_back("routedScenarios != scenarios sent");
    }
    double fallbacks =
        num(ra, "spliceFallbacks") - num(rb, "spliceFallbacks");
    r.set("router.splice_fallback_ratio",
          routedScen > 0 ? fallbacks / routedScen : 0.0);
    r.set("router.rerouted",
          num(ra, "rerouted") - num(rb, "rerouted"));
    std::vector<double> per;
    const json::Value *bb = rb.find("backends");
    const json::Value *ba = ra.find("backends");
    if (bb && ba && bb->isArray() && ba->isArray())
        for (std::size_t i = 0; i < ba->asArray().size() &&
                                i < bb->asArray().size();
             i++)
            per.push_back(num(ba->asArray()[i], "routed") -
                          num(bb->asArray()[i], "routed"));
    double mx = 0, sum = 0;
    for (double x : per) {
        mx = std::max(mx, x);
        sum += x;
    }
    r.set("router.backend_skew",
          sum > 0 ? mx / (sum / static_cast<double>(per.size()))
                  : 0.0);

    // Routed payloads equal direct ones: replay the warm keys to
    // each key's owner backend, checked against the same payloads.
    std::vector<std::vector<std::string>> directLines(a.backends.size());
    std::vector<std::vector<std::uint32_t>> directKeys(a.backends.size());
    std::vector<std::string> names;
    for (std::uint16_t p : a.backends)
        names.push_back("127.0.0.1:" + std::to_string(p));
    RendezvousRing ring(names);
    std::vector<std::uint64_t> hashes;
    for (std::size_t i = 0; i < ks.warm; i++) {
        auto spec = parseScenario(json::parse(warmScen[i]).value()).value();
        hashes.push_back(spec.hash());
        std::size_t b = ring.owner(hashes.back());
        directLines[b].push_back(hotLines[i]);
        directKeys[b].push_back(static_cast<std::uint32_t>(i));
    }
    for (std::size_t b = 0; b < a.backends.size(); b++)
        roundTrips(a.backends[b], directLines[b], directKeys[b], expected,
                   "gen.direct_check", r);

    // How late the open-loop sender ran, in every run: a generator
    // that fell behind its schedule under-offers the fixed rates.
    std::vector<double> lag;
    for (const PhaseResult *p : {&low, &high})
        for (std::int64_t l : p->lagNs)
            lag.push_back(static_cast<double>(l) / 1e6);
    const double lagP99 = quantile(lag, 0.99);
    r.set("gen.lag_p99_ms", lagP99);
    r.set("gen.behind", lagP99 > 1.0 ? 1.0 : 0.0);
    if (lagP99 > 1.0)
        r.notes.push_back("generator behind schedule: lag p99 " +
                          std::to_string(lagP99) + " ms");

    if (a.trace) {
        const double satRate = median(satRates);
        r.set("tracing.overhead_pct",
              satRate > 0 ? 100.0 * (untracedSat / satRate - 1.0) : 0.0);
        r.set("gen.fail_share",
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0);
        r.set("service.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0);
        r.set("service.rejected", scenarios > 0 ? rejected / scenarios : 0.0);
        r.set("service.shed", scenarios > 0 ? shed / scenarios : 0.0);
        r.set("service.degraded",
              scenarios > 0 ? static_cast<double>(degraded) / scenarios
                            : 0.0);
        r.set("service.queue_depth_p99", quantile(depths, 0.99));
        r.set("service.miss_p50_ms", quantile(missMs, 0.5));
        // Every computed scenario here has one budget: one point.
        r.set("sim.points", misses);
        r.set("trace.store_load_ms", storeLoadMs(dvfs, a.store));

        double submitJsonUs = 0.0;
        serviceMicro(r, lib, dvfs, ks, expected, a.work, &submitJsonUs);

        // Layer attribution on the same requests, one at a time:
        // reactor = loopback to the owner - in-process submit;
        // router = through the router - loopback to the owner.
        std::vector<double> direct;
        std::vector<std::string> viaLines;
        std::vector<std::uint32_t> viaKeys;
        for (std::size_t b = 0; b < a.backends.size(); b++) {
            std::vector<std::string> lines;
            std::vector<std::uint32_t> keys;
            for (std::size_t i = 0; i < directKeys[b].size(); i++)
                if (directKeys[b][i] < kAttributionKeys) {
                    lines.push_back(directLines[b][i]);
                    keys.push_back(directKeys[b][i]);
                    viaLines.push_back(directLines[b][i]);
                    viaKeys.push_back(directKeys[b][i]);
                }
            auto us = roundTrips(a.backends[b], lines, keys, expected,
                                 "reactor.roundtrip", r);
            direct.insert(direct.end(), us.begin(), us.end());
        }
        const double directP50 = median(direct);
        r.set("reactor.overhead_us", directP50 - submitJsonUs);
        auto via = roundTrips(a.port, viaLines, viaKeys, expected,
                              "router.roundtrip", r);
        r.set("router.hop_us", median(via) - directP50);
        std::size_t sink = 0;
        const std::size_t reps = 200000;
        std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < reps; i++)
            sink += ring.owner(hashes[i % hashes.size()] + i);
        std::int64_t t1 = nowNs();
        Tracer::record("router.ring_pick", t0, t1);
        r.set("router.ring_pick_ns",
              static_cast<double>(t1 - t0) / static_cast<double>(reps));
        if (sink == 0)
            r.notes.push_back("ring picked one backend only");
    }
    writeSpans(a, r);
    emit(a, r);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    Tracer::enable(a.trace);
    if (a.cmd == "prewarm")
        return cmdPrewarm(a);
    if (a.cmd == "sweep")
        return cmdSweep(a);
    if (a.cmd == "warm")
        return cmdWarm(a);
    if (a.cmd == "serve")
        return cmdServe(a);
    die("unknown command");
}
