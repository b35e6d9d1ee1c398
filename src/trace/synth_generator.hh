/**
 * @file
 * Deterministic synthetic micro-op stream generator driven by a
 * WorkloadSpec. Implements OpSource for the core timing model.
 */

#ifndef GPM_TRACE_SYNTH_GENERATOR_HH
#define GPM_TRACE_SYNTH_GENERATOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "trace/workload.hh"
#include "uarch/isa.hh"
#include "util/rng.hh"

namespace gpm
{

/**
 * Generates the micro-op stream for one benchmark instance.
 *
 * Address-space layout (per core; the MemorySystem adds a per-core
 * offset in shared configurations):
 *
 *   hot set     @ 0x0000'0000  (L1-resident)
 *   warm set    @ 0x1000'0000  (L2-resident)
 *   cold set    @ 0x2000'0000  (DRAM-resident)
 *   streams     @ 0x4000'0000 + k * 16 MB (sequential)
 *   code        @ 0x8000'0000
 *
 * The generator is fully deterministic for a given (spec, seed,
 * length_scale), which is what makes per-mode profiling meaningful:
 * the same instruction stream is timed at each DVFS mode.
 */
class SynthGenerator : public OpSource
{
  public:
    /**
     * @param spec          workload descriptor
     * @param length_scale  scales phase lengths and total length
     *                      (used by quick test configurations)
     */
    explicit SynthGenerator(const WorkloadSpec &spec,
                            double length_scale = 1.0);

    bool next(MicroOp &op) override;

    /** Instructions emitted so far. */
    std::uint64_t emitted() const { return emittedOps; }

    /** Total instructions this stream will produce. */
    std::uint64_t totalInsts() const { return limit; }

    /** Index of the phase the generator is currently in. */
    std::size_t currentPhase() const { return phaseIdx; }

  private:
    /** Pick a data address for a memory op in the current phase. */
    std::uint64_t dataAddress(const PhaseSpec &ph);

    /** Advance phase bookkeeping. */
    void nextPhase();

    WorkloadSpec spec;
    Rng rng;
    std::uint64_t limit;
    std::uint64_t emittedOps = 0;

    std::size_t phaseIdx = 0;
    std::uint64_t phaseLeft;
    /** Dependence-distance draw of the current phase. */
    GeometricDist depDist;

    std::uint64_t pc;
    static constexpr std::size_t numStreams = 4;
    std::array<std::uint64_t, numStreams> streamOff{};
    std::size_t nextStream = 0;
    std::uint32_t opsSinceLoad = 255;

    /** Per-site branch direction bias, indexed by hashed PC. */
    std::vector<double> siteBias;
};

} // namespace gpm

#endif // GPM_TRACE_SYNTH_GENERATOR_HH
