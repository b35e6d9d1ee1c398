/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * synthetic workloads. Implements the PCG32 generator (O'Neill) plus
 * the handful of distributions the workload generators need. We avoid
 * <random> distributions because their outputs are not guaranteed to
 * be identical across standard library implementations, and trace
 * reproducibility is a hard requirement.
 */

#ifndef GPM_UTIL_RNG_HH
#define GPM_UTIL_RNG_HH

#include <cstdint>

namespace gpm
{

/**
 * PCG32 pseudo-random generator with stream selection.
 * Deterministic across platforms for a given (seed, stream).
 */
class Rng
{
  public:
    /** Construct with a seed and an optional independent stream id. */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Next raw 32-bit value. */
    std::uint32_t
    next32()
    {
        std::uint64_t old = state;
        state = old * 6364136223846793005ULL + inc;
        auto xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        auto rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /** Next raw 64-bit value: the first 32-bit draw is the high
     *  half. */
    std::uint64_t
    next64()
    {
        std::uint64_t hi = next32();
        return (hi << 32) | next32();
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53-bit mantissa from a 64-bit draw.
        return static_cast<double>(next64() >> 11) *
            (1.0 / 9007199254740992.0);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n) using rejection (unbiased). */
    std::uint32_t below(std::uint32_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Geometric distribution: number of failures before first success
     * with success probability p (p in (0, 1]). Mean (1-p)/p. Draws
     * repeated at one p should use a GeometricDist.
     */
    std::uint32_t geometric(double p);

    /** Standard normal via Box-Muller (deterministic pairing). */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /**
     * Zipf-like selection of an index in [0, n) with exponent s.
     * Uses inverse-power rejection sampling; deterministic.
     */
    std::uint32_t zipf(std::uint32_t n, double s);

  private:
    std::uint64_t state;
    std::uint64_t inc;
    bool haveSpare = false;
    double spare = 0.0;
};

/**
 * Rng::geometric() at one success probability, with its log(1 - p)
 * computed once rather than per draw. Draws are bitwise-identical to
 * Rng::geometric(p).
 */
class GeometricDist
{
  public:
    /** @param p success probability, in (0, 1] when drawn from */
    explicit GeometricDist(double p = 1.0);

    /** Failures before the first success. */
    std::uint32_t operator()(Rng &rng) const;

  private:
    double p;
    double log1mP;
};

} // namespace gpm

#endif // GPM_UTIL_RNG_HH
