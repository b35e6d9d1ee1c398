/**
 * @file
 * Synthetic SPEC CPU2000-like workload descriptors.
 *
 * The paper's experiments use 12 SPEC CPU2000 benchmarks compiled for
 * POWER4. We cannot redistribute SPEC, so each benchmark is described
 * statistically: operation mix, dependence-distance distribution
 * (ILP), memory-region locality (L1-resident hot set / L2-resident
 * warm set / DRAM-resident cold set / streaming), load-load dependence
 * chains (pointer chasing), branch predictability, code footprint and
 * a repeating *phase* script providing the intra-workload temporal
 * variability that dynamic global management exploits.
 *
 * The descriptors are calibrated so that Turbo IPC, relative power,
 * and DVFS performance sensitivity (elapsed-time increase at Eff1 /
 * Eff2) match the paper's Figure 2 corner cases (sixtrack ~17.3%,
 * mcf ~3.7% at Eff2) and the published CPU- vs memory-boundedness
 * taxonomy of Table 2.
 */

#ifndef GPM_TRACE_WORKLOAD_HH
#define GPM_TRACE_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gpm
{

/**
 * Statistical behaviour of one program phase. Fractions that select
 * op classes must satisfy fracLoad + fracStore + fracBranch <= 1;
 * the remainder is compute.
 */
struct PhaseSpec
{
    /** Instructions per occurrence of this phase. */
    std::uint64_t lengthInsts;

    /** Fraction of ops that are loads. */
    double fracLoad;
    /** Fraction of ops that are stores. */
    double fracStore;
    /** Fraction of ops that are conditional branches. */
    double fracBranch;
    /** FP share of compute ops (0 = pure integer). */
    double fracFp;
    /** Multiply share within FP compute. */
    double fracFpMul = 0.4;
    /** Divide share within FP compute. */
    double fracFpDiv = 0.02;
    /** Multiply share within integer compute. */
    double fracIntMul = 0.05;

    /**
     * Geometric parameter for dependence distances: distance =
     * 1 + Geometric(depP). Smaller depP => longer distances =>
     * more ILP.
     */
    double depP = 0.35;
    /** Probability an op has a second register source. */
    double dep2Prob = 0.35;

    /** Share of memory ops that stream sequentially. */
    double strideFrac = 0.0;
    /** Share of memory ops hitting the hot (L1-resident) set. */
    double hotFrac = 1.0;
    /** Share hitting the warm (L2-resident) set. */
    double warmFrac = 0.0;
    /**
     * Share hitting the cold (DRAM-resident) set. Remaining share
     * (1 - stride - hot - warm - cold) is treated as hot.
     */
    double coldFrac = 0.0;
    /**
     * Probability a load's source depends on the previous load
     * (pointer chasing: serializes misses, destroys MLP).
     */
    double chainFrac = 0.0;

    /** Per-site branch bias (predictability); 0.5 = random. */
    double branchBias = 0.95;
};

/** One synthetic benchmark: footprint geometry plus a phase script. */
struct WorkloadSpec
{
    /** Benchmark name ("mcf", "sixtrack", ...). */
    std::string name;
    /** SPEC FP (vs INT) suite membership. */
    bool isFp;
    /** Table 2 style taxonomy string. */
    std::string memClass;
    /** Total instructions in the trace. */
    std::uint64_t totalInsts;
    /** Generator seed (deterministic workloads). */
    std::uint64_t seed;

    /** Code footprint (drives I-cache behaviour) [bytes]. */
    std::uint64_t codeBytes = 32 * 1024;
    /** Hot data set (L1-resident) [bytes]. */
    std::uint64_t hotBytes = 8 * 1024;
    /** Warm data set (L2-resident) [bytes]. */
    std::uint64_t warmBytes = 512 * 1024;
    /** Cold data set (DRAM-resident) [bytes]. */
    std::uint64_t coldBytes = 128ULL * 1024 * 1024;
    /** Footprint of each sequential stream [bytes]. */
    std::uint64_t streamBytes = 4ULL * 1024 * 1024;

    /** Repeating phase script. */
    std::vector<PhaseSpec> phases;
};

/** Accepted workload length scales (--scale, GPM_SCALE). */
constexpr double minLengthScale = 1e-6;
constexpr double maxLengthScale = 1e6;

/**
 * The 12-benchmark SPEC CPU2000 stand-in suite used throughout the
 * paper's evaluation: ammp, art, mcf, crafty, facerec, gcc, mesa,
 * vortex, sixtrack, gap, perlbmk, wupwise.
 */
const std::vector<WorkloadSpec> &spec2000Suite();

/** Look up a suite workload by name; fatal() if unknown. */
const WorkloadSpec &workload(const std::string &name);

/** True when @p name is a suite workload (non-fatal lookup). */
bool hasWorkload(const std::string &name);

/**
 * The paper's Table 2 benchmark combinations, keyed as "2way1",
 * "2way2", ..., "4way1", ..., "8way1", "8way2".
 */
const std::vector<std::pair<std::string, std::vector<std::string>>> &
benchmarkCombinations();

/** Largest @p n a "many<N>" combination accepts. */
constexpr std::size_t maxManyCoreCores = 1024;

/**
 * Many-core combination: @p n cores cycling through the 12-benchmark
 * suite (core c runs suite[c % 12]). Only 12 distinct workloads ever
 * appear, so profile building stays O(workloads) regardless of n;
 * per-core heterogeneity beyond the cycling pattern comes from the
 * simulator's phase-shifted schedules (SimConfig::phaseShiftStride).
 * The returned reference is stable for the process lifetime.
 * fatal() unless 1 <= n <= maxManyCoreCores.
 */
const std::vector<std::string> &manyCoreCombo(std::size_t n);

/** Look up a Table 2 combination by key; fatal() if unknown. */
const std::vector<std::string> &combination(const std::string &key);

/** Combination lookup returning nullptr instead of fatal(); also
 *  resolves dynamic "many<N>" keys (e.g. "many256") for N in
 *  [1, maxManyCoreCores]. */
const std::vector<std::string> *
findCombination(const std::string &key);

} // namespace gpm

#endif // GPM_TRACE_WORKLOAD_HH
