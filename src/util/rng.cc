#include "rng.hh"

#include <cmath>

#include "logging.hh"

namespace gpm
{

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state(0), inc((stream << 1u) | 1u)
{
    next32();
    state += seed;
    next32();
}

std::uint32_t
Rng::below(std::uint32_t n)
{
    GPM_ASSERT(n > 0);
    // Lemire-style rejection to stay unbiased.
    std::uint32_t threshold = (-n) % n;
    for (;;) {
        std::uint32_t r = next32();
        if (r >= threshold)
            return r % n;
    }
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    GPM_ASSERT(lo <= hi);
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next64());
    std::uint64_t r = next64() % span;
    return lo + static_cast<std::int64_t>(r);
}

std::uint32_t
Rng::geometric(double p)
{
    return GeometricDist(p)(*this);
}

GeometricDist::GeometricDist(double p_) : p(p_), log1mP(std::log1p(-p_))
{
}

std::uint32_t
GeometricDist::operator()(Rng &rng) const
{
    GPM_ASSERT(p > 0.0 && p <= 1.0);
    if (p >= 1.0)
        return 0;
    double u = rng.uniform();
    // Inverse CDF; clamp to avoid log(0).
    if (u <= 0.0)
        u = 1e-18;
    double v = std::log(u) / log1mP;
    if (v > 4.0e9)
        v = 4.0e9;
    return static_cast<std::uint32_t>(v);
}

double
Rng::gaussian()
{
    if (haveSpare) {
        haveSpare = false;
        return spare;
    }
    double u1 = uniform();
    double u2 = uniform();
    if (u1 <= 0.0)
        u1 = 1e-18;
    double mag = std::sqrt(-2.0 * std::log(u1));
    double z0 = mag * std::cos(2.0 * M_PI * u2);
    spare = mag * std::sin(2.0 * M_PI * u2);
    haveSpare = true;
    return z0;
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

std::uint32_t
Rng::zipf(std::uint32_t n, double s)
{
    GPM_ASSERT(n > 0);
    if (n == 1)
        return 0;
    // Rejection-inversion (simplified for moderate n).
    for (;;) {
        double u = uniform();
        // Inverse of the continuous approximation of the Zipf CDF.
        double x;
        if (s == 1.0) {
            x = std::exp(u * std::log(static_cast<double>(n)));
        } else {
            double t = std::pow(static_cast<double>(n), 1.0 - s);
            x = std::pow(u * (t - 1.0) + 1.0, 1.0 / (1.0 - s));
        }
        std::uint32_t k = static_cast<std::uint32_t>(x) - 1;
        if (k < n)
            return k;
    }
}

} // namespace gpm
