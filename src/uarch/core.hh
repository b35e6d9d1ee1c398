/**
 * @file
 * One-pass out-of-order core timing model (the Turandot stand-in).
 *
 * The model processes micro-ops strictly in program order and computes
 * each op's fetch / dispatch / issue / complete / commit timestamps
 * from sliding histories of the structures that constrain them:
 *
 *   - fetch:    fetch width per cycle, I-cache misses, branch
 *               redirects (mispredict penalty after branch resolve)
 *   - dispatch: dispatch width, reorder-window occupancy (freed at
 *               commit), reservation-station occupancy per cluster
 *               (freed at issue), rename-register pools (freed at
 *               commit)
 *   - issue:    register dependences (distance-encoded), FU
 *               availability per class, MSHR occupancy for L1D misses
 *   - complete: FU latency; loads add cache/memory latency, where L2
 *               and memory latencies are fixed in *nanoseconds*
 *               (asynchronous uncore) and therefore shrink in core
 *               cycles as the core slows under DVFS
 *   - commit:   in order, commit width per cycle
 *
 * The model is split in two. OpResolver makes each op's cache and
 * branch-predictor accesses and counts its activity; behind a
 * private L2 none of that depends on the clock. CoreTiming holds
 * the event-time arithmetic, which does. OooCore joins them, making
 * the accesses live at the times CoreTiming asks for them (a shared
 * L2 arbitrates by time); the Profiler resolves each op once and
 * times it at every DVFS mode in lockstep.
 *
 * All event times are held in picoseconds, so the core frequency can
 * change between run() calls (per-core DVFS in the full-CMP model)
 * without rebasing state. This O(1)-per-instruction formulation
 * reproduces the throughput behaviour of a cycle-stepped OOO model
 * for the structures listed while being fast enough to profile the
 * whole workload suite in seconds — the property the paper's
 * trace-based methodology depends on.
 */

#ifndef GPM_UARCH_CORE_HH
#define GPM_UARCH_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "power/power_model.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/core_config.hh"
#include "uarch/isa.hh"
#include "uarch/memory.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace gpm
{

/** What a load or store found beyond the core's own timing. */
struct DataOutcome
{
    /** The access hit the L1D. */
    bool l1Hit = true;
    /** Latency beyond the L1 on a miss [ps]; frequency-independent
     *  because the L2 and memory sit in a fixed clock domain. */
    std::uint64_t beyondL1Ps = 0;
};

/**
 * An op's clock-independent outcome, resolved ahead of timing: what
 * OpResolver::resolve() returns when the L2 service ignores request
 * times (PrivateL2). It is also an Access for CoreTiming::step(), so
 * one resolved op can be timed at any number of clocks.
 */
struct ResolvedOp
{
    /** Fetch stall of an I-cache miss on a new block [ps]. */
    std::uint64_t fetchPs = 0;
    /** Data-side outcome (loads and stores only). */
    DataOutcome mem;
    /** A branch the predictor got wrong. */
    bool mispredict = false;

    std::uint64_t fetch(std::uint64_t) const { return fetchPs; }
    DataOutcome data(std::uint64_t) const { return mem; }
    bool mispredicted() const { return mispredict; }
};

/**
 * The access half of the core: the L1/L2 and branch predictor
 * accesses each op makes, in program order, and the activity counts
 * they add (everything in ActivitySample except cycles). Only the
 * request times passed to a time-arbitrated L2 depend on the clock.
 * For every op call fetch() first, then data() for a load or store,
 * then mispredicted() for a branch.
 */
class OpResolver
{
  public:
    /**
     * @param cfg  design parameters (predictor size)
     * @param mem  this core's memory system
     */
    OpResolver(const CoreConfig &cfg, MemorySystem &mem);

    /**
     * Count @p op's pipeline activity and, when it starts a new
     * fetch block, fetch that block at @p time_ns.
     * @return the fetch stall of an I-cache miss [ps], else 0
     */
    std::uint64_t fetch(const MicroOp &op, double time_ns);

    /** Perform load/store @p op's L1D access at @p time_ns. */
    DataOutcome data(const MicroOp &op, double time_ns);

    /** Predict and train on branch @p op; true if mispredicted. */
    bool mispredicted(const MicroOp &op);

    /**
     * All of @p op's accesses at once. Only exact when the L2
     * service ignores request times, as PrivateL2 does.
     */
    ResolvedOp
    resolve(const MicroOp &op)
    {
        ResolvedOp r;
        r.fetchPs = fetch(op, 0.0);
        if (isMem(op.cls))
            r.mem = data(op, 0.0);
        else if (op.cls == OpClass::Branch)
            r.mispredict = mispredicted(op);
        return r;
    }

    /** Activity counted since the last reset (cycles stay 0). */
    ActivitySample act;

  private:
    MemorySystem &mem;
    BranchPredictor bpred;
    std::uint64_t curFetchBlock = ~0ULL;
};

/**
 * The clock-dependent half of the core: per-structure event-time
 * histories giving each op's fetch / dispatch / issue / complete /
 * commit times at one clock frequency. It makes no memory or
 * predictor accesses of its own; step() asks an Access for them at
 * the times they happen, so one resolved op stream can be timed at
 * several clocks in lockstep (Profiler) and a time-dependent shared
 * L2 can be consulted live (OooCore in the full-CMP model).
 */
class CoreTiming
{
  public:
    /**
     * @param cfg   design parameters (Table 1)
     * @param freq  initial clock frequency [Hz]
     */
    CoreTiming(const CoreConfig &cfg, Hertz freq);

    /** Change the clock; takes effect for subsequent ops. */
    void setFrequency(Hertz f);

    /** Current clock frequency [Hz]. */
    Hertz frequency() const { return freq; }

    /** Current clock period [ps]. */
    std::uint64_t periodPs() const { return period; }

    /** Commit time of the newest op [ps]. */
    std::uint64_t nowPs() const { return lastCommit; }

    /** No op executes before absolute time @p t_ps. */
    void stallUntilPs(std::uint64_t t_ps);

    /**
     * Time one op. @p acc supplies its accesses, each asked for at
     * the time it happens:
     *   - std::uint64_t fetch(ft_ps): fetch stall [ps], every op;
     *   - DataOutcome data(issue_ps): loads and stores;
     *   - bool mispredicted(): branches, once complete.
     */
    template <class Access>
    void step(const MicroOp &op, Access &&acc);

  private:
    /** Sliding ring of the last N event times; oldest() is the value
     *  N pushes back (0 until warmed up). */
    class TimeRing
    {
      public:
        explicit TimeRing(std::size_t cap) : buf(cap, 0) {}
        std::uint64_t oldest() const { return buf[pos]; }
        void
        push(std::uint64_t t)
        {
            buf[pos] = t;
            pos = pos + 1 == buf.size() ? 0 : pos + 1;
        }

      private:
        std::vector<std::uint64_t> buf;
        std::size_t pos = 0;
    };

    /** FU clusters for reservation-station accounting. */
    enum Cluster { ClMem = 0, ClFix, ClFp, NumClusters };
    /** FU groups for issue-port accounting. */
    enum FuGroup { FuLsu = 0, FuFxu, FuFpu, FuBru, NumFuGroups };
    /** Rename destination classes. */
    enum RegClass { RegGpr = 0, RegFpr, RegNone };

    static Cluster
    clusterOf(OpClass c)
    {
        return isMem(c) ? ClMem : isFp(c) ? ClFp : ClFix;
    }
    static FuGroup
    groupOf(OpClass c)
    {
        if (isMem(c))
            return FuLsu;
        if (isFp(c))
            return FuFpu;
        return c == OpClass::Branch ? FuBru : FuFxu;
    }
    static RegClass
    destClassOf(OpClass c)
    {
        if (c == OpClass::IntAlu || c == OpClass::IntMul ||
            c == OpClass::Load)
            return RegGpr;
        return isFp(c) ? RegFpr : RegNone;
    }

    CoreConfig cfg;
    Hertz freq;
    std::uint64_t period;

    // Event-time state (all picoseconds).
    std::uint64_t seq = 0;
    std::array<std::uint64_t, 256> completeHist{};
    TimeRing fetchRing;
    TimeRing dispRing;
    TimeRing commitWidthRing;
    TimeRing windowRing;
    std::array<TimeRing, NumClusters> rsRings;
    std::array<TimeRing, 2> regRings;
    TimeRing mshrRing;
    std::vector<std::uint64_t> fuFree[NumFuGroups];
    std::uint64_t lastDispatch = 0;
    std::uint64_t lastCommit = 0;
    std::uint64_t redirectPs = 0;
};

/** Result of one OooCore::run() call. */
struct CoreRunResult
{
    /** Micro-ops committed during the call. */
    std::uint64_t instructions = 0;
    /** Wall-clock time advanced, picoseconds. */
    std::uint64_t elapsedPs = 0;
    /** Activity counts for the power model (cycles at the core f). */
    ActivitySample activity;
    /** The op stream ended during this call. */
    bool streamEnded = false;
};

/**
 * The out-of-order core model: an OpSource stream run through an
 * OpResolver and a CoreTiming, each op's accesses made live at the
 * times the timing asks for them. Uses an external MemorySystem (so
 * the L2 can be shared) and an external OpSource (the workload).
 */
class OooCore
{
  public:
    /**
     * @param cfg    design parameters (Table 1)
     * @param mem    this core's memory system
     * @param src    workload micro-op stream
     * @param freq   initial clock frequency [Hz]
     */
    OooCore(const CoreConfig &cfg, MemorySystem &mem, OpSource &src,
            Hertz freq = 1.0e9);

    /** Change the core clock (per-core DVFS). Takes effect for
     *  subsequently processed ops. */
    void setFrequency(Hertz f) { timing.setFrequency(f); }

    /** Current clock frequency [Hz]. */
    Hertz frequency() const { return timing.frequency(); }

    /**
     * Process up to @p max_insts micro-ops (or until the stream
     * ends).
     */
    CoreRunResult run(std::uint64_t max_insts);

    /**
     * Process micro-ops until local wall-clock time reaches
     * @p t_ps (or the stream ends). May overshoot by one op.
     */
    CoreRunResult runUntilPs(std::uint64_t t_ps);

    /** Local wall-clock time: commit time of the newest op [ps]. */
    std::uint64_t nowPs() const { return timing.nowPs(); }

    /** Total micro-ops committed since construction. */
    std::uint64_t totalInstructions() const { return totalInsts; }

    /**
     * Inject a stall until absolute time @p t_ps (used for DVFS
     * transition stalls in the full-CMP model): no ops execute
     * before t_ps.
     */
    void stallUntilPs(std::uint64_t t_ps) { timing.stallUntilPs(t_ps); }

  private:
    /** Process exactly one op; returns false at stream end. */
    bool step();

    /** Close a run() / runUntilPs() call that started at @p start_ps. */
    CoreRunResult finish(std::uint64_t n, std::uint64_t start_ps);

    OpSource &src;
    OpResolver ops;
    CoreTiming timing;
    std::uint64_t totalInsts = 0;
    bool exhausted = false;
};

template <class Access>
void
CoreTiming::step(const MicroOp &op, Access &&acc)
{
    const std::uint64_t p = period;
    std::uint64_t i = seq++;

    // ---- Fetch --------------------------------------------------
    std::uint64_t ft =
        std::max(fetchRing.oldest() + p, redirectPs);
    ft += acc.fetch(ft);
    fetchRing.push(ft);

    // ---- Dispatch -----------------------------------------------
    std::uint64_t dt = ft + cfg.frontendDelay * p;
    dt = std::max(dt, dispRing.oldest() + p);
    dt = std::max(dt, lastDispatch);
    dt = std::max(dt, windowRing.oldest());
    Cluster cl = clusterOf(op.cls);
    dt = std::max(dt, rsRings[cl].oldest());
    RegClass rc = destClassOf(op.cls);
    if (rc != RegNone)
        dt = std::max(dt, regRings[rc].oldest());
    lastDispatch = dt;
    dispRing.push(dt);

    // ---- Ready (register dependences) ---------------------------
    std::uint64_t rt = dt + p;
    if (op.depA) {
        std::uint64_t j = (i - op.depA) & (cfg.windowSize - 1);
        rt = std::max(rt, completeHist[j]);
    }
    if (op.depB) {
        std::uint64_t j = (i - op.depB) & (cfg.windowSize - 1);
        rt = std::max(rt, completeHist[j]);
    }

    // ---- Issue --------------------------------------------------
    auto &frees = fuFree[groupOf(op.cls)];
    std::size_t k = 0;
    for (std::size_t u = 1; u < frees.size(); u++)
        if (frees[u] < frees[k])
            k = u;
    std::uint64_t it = std::max(rt, frees[k]);

    std::uint64_t lat = 0;
    std::uint64_t occupancy = p;
    switch (op.cls) {
      case OpClass::IntAlu:
        lat = cfg.latIntAlu * p;
        break;
      case OpClass::IntMul:
        lat = cfg.latIntMul * p;
        break;
      case OpClass::FpAlu:
        lat = cfg.latFpAlu * p;
        break;
      case OpClass::FpMul:
        lat = cfg.latFpMul * p;
        break;
      case OpClass::FpDiv:
        lat = cfg.latFpDiv * p;
        occupancy = lat;
        break;
      case OpClass::Branch:
        lat = cfg.latBranch * p;
        break;
      case OpClass::Load: {
        DataOutcome r = acc.data(it);
        if (r.l1Hit) {
            lat = (cfg.latAgen + cfg.l1LatCycles) * p;
        } else {
            it = std::max(it, mshrRing.oldest());
            lat = cfg.latAgen * p + r.beyondL1Ps;
            mshrRing.push(it + lat);
        }
        break;
      }
      case OpClass::Store: {
        DataOutcome r = acc.data(it);
        // Stores retire through the store queue: short completion,
        // but a miss still occupies an MSHR.
        lat = p;
        if (!r.l1Hit) {
            it = std::max(it, mshrRing.oldest());
            mshrRing.push(it + r.beyondL1Ps);
        }
        break;
      }
      default:
        panic("CoreTiming: bad op class %d", static_cast<int>(op.cls));
    }

    frees[k] = it + occupancy;
    rsRings[cl].push(it);

    // ---- Complete -----------------------------------------------
    std::uint64_t ct = it + lat;
    completeHist[i & (cfg.windowSize - 1)] = ct;

    if (op.cls == OpClass::Branch && acc.mispredicted())
        redirectPs = std::max(redirectPs, ct + cfg.redirectPenalty * p);

    // ---- Commit -------------------------------------------------
    std::uint64_t cmt = std::max(ct, lastCommit);
    cmt = std::max(cmt, commitWidthRing.oldest() + p);
    lastCommit = cmt;
    commitWidthRing.push(cmt);
    windowRing.push(cmt);
    if (rc != RegNone)
        regRings[rc].push(cmt);
}

} // namespace gpm

#endif // GPM_UARCH_CORE_HH
