#include "synth_generator.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace gpm
{

namespace
{
constexpr std::uint64_t hotBase = 0x0000'0000ULL;
constexpr std::uint64_t warmBase = 0x1000'0000ULL;
constexpr std::uint64_t coldBase = 0x2000'0000ULL;
constexpr std::uint64_t streamBase = 0x4000'0000ULL;
constexpr std::uint64_t streamSpacing = 0x0100'0000ULL;
constexpr std::uint64_t codeBase = 0x8000'0000ULL;
constexpr std::uint64_t strideBytes = 8;
} // namespace

SynthGenerator::SynthGenerator(const WorkloadSpec &spec_,
                               double length_scale)
    : spec(spec_), rng(spec_.seed, 0x9e3779b97f4a7c15ULL),
      limit(static_cast<std::uint64_t>(
          static_cast<double>(spec_.totalInsts) * length_scale)),
      pc(codeBase), siteBias(1024, 0.5)
{
    if (spec.phases.empty())
        fatal("workload '%s' has no phases", spec.name.c_str());
    for (const auto &ph : spec.phases) {
        if (ph.lengthInsts == 0)
            fatal("workload '%s': zero-length phase",
                  spec.name.c_str());
        if (ph.fracLoad + ph.fracStore + ph.fracBranch > 1.0)
            fatal("workload '%s': op-class fractions exceed 1",
                  spec.name.c_str());
    }
    double scale = std::max(length_scale, 1e-6);
    for (auto &ph : spec.phases) {
        ph.lengthInsts = std::max<std::uint64_t>(
            1000,
            static_cast<std::uint64_t>(
                static_cast<double>(ph.lengthInsts) * scale));
    }
    phaseLeft = spec.phases[0].lengthInsts;
    depDist = GeometricDist(spec.phases[0].depP);

    // Stable per-site branch direction biases.
    for (auto &b : siteBias) {
        double bias = rng.uniform(0.0, 1.0);
        b = bias; // direction resolved against phase bias later
    }
}

void
SynthGenerator::nextPhase()
{
    phaseIdx = (phaseIdx + 1) % spec.phases.size();
    phaseLeft = spec.phases[phaseIdx].lengthInsts;
    depDist = GeometricDist(spec.phases[phaseIdx].depP);
}

std::uint64_t
SynthGenerator::dataAddress(const PhaseSpec &ph)
{
    double r = rng.uniform();
    if (r < ph.strideFrac) {
        std::size_t k = nextStream;
        nextStream = (nextStream + 1) % numStreams;
        std::uint64_t off = streamOff[k];
        streamOff[k] =
            (off + strideBytes) % std::max<std::uint64_t>(
                spec.streamBytes, strideBytes * 2);
        return streamBase + k * streamSpacing + off;
    }
    r -= ph.strideFrac;
    if (r < ph.coldFrac) {
        return coldBase +
            (rng.next64() % (spec.coldBytes / 8)) * 8;
    }
    r -= ph.coldFrac;
    if (r < ph.warmFrac) {
        return warmBase +
            (rng.next64() % (spec.warmBytes / 8)) * 8;
    }
    return hotBase + (rng.next64() % (spec.hotBytes / 8)) * 8;
}

bool
SynthGenerator::next(MicroOp &op)
{
    if (emittedOps >= limit)
        return false;
    if (phaseLeft == 0)
        nextPhase();
    phaseLeft--;
    emittedOps++;

    const PhaseSpec &ph = spec.phases[phaseIdx];

    op = MicroOp{};
    op.pc = pc;

    double r = rng.uniform();
    bool is_load = false;
    if (r < ph.fracLoad) {
        op.cls = OpClass::Load;
        is_load = true;
    } else if (r < ph.fracLoad + ph.fracStore) {
        op.cls = OpClass::Store;
    } else if (r < ph.fracLoad + ph.fracStore + ph.fracBranch) {
        op.cls = OpClass::Branch;
    } else if (rng.chance(ph.fracFp)) {
        double rf = rng.uniform();
        if (rf < ph.fracFpDiv)
            op.cls = OpClass::FpDiv;
        else if (rf < ph.fracFpDiv + ph.fracFpMul)
            op.cls = OpClass::FpMul;
        else
            op.cls = OpClass::FpAlu;
    } else {
        op.cls =
            rng.chance(ph.fracIntMul) ? OpClass::IntMul
                                      : OpClass::IntAlu;
    }

    // Register dependences: distance 1 + Geometric(depP), bounded by
    // the encodable range.
    auto draw_dep = [&]() -> std::uint8_t {
        std::uint32_t d = 1 + depDist(rng);
        return static_cast<std::uint8_t>(std::min<std::uint32_t>(d, 63));
    };

    if (is_load && rng.chance(ph.chainFrac) && opsSinceLoad < 63) {
        // Pointer chase: address depends on the previous load.
        op.depA = static_cast<std::uint8_t>(opsSinceLoad + 1);
    } else if (rng.chance(0.9)) {
        op.depA = draw_dep();
    }
    if (rng.chance(ph.dep2Prob))
        op.depB = draw_dep();

    if (isMem(op.cls))
        op.addr = dataAddress(ph);

    if (op.cls == OpClass::Branch) {
        std::size_t site = (pc >> 4) & (siteBias.size() - 1);
        // Resolve the site's stable direction against the phase's
        // predictability: a site is "biased-taken" when its stored
        // uniform draw is below 0.5.
        bool biased_taken = siteBias[site] < 0.5;
        double p_taken =
            biased_taken ? ph.branchBias : 1.0 - ph.branchBias;
        op.taken = rng.chance(p_taken);
        if (op.taken) {
            // Jump to a random 128 B block inside the code footprint.
            std::uint64_t blocks = std::max<std::uint64_t>(
                spec.codeBytes / 128, 1);
            pc = codeBase + (rng.next64() % blocks) * 128;
        } else {
            pc += 4;
        }
    } else {
        pc += 4;
    }

    if (is_load)
        opsSinceLoad = 0;
    else if (opsSinceLoad < 255)
        opsSinceLoad++;

    return true;
}

} // namespace gpm
