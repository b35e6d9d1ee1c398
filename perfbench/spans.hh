/**
 * @file
 * In-memory span recorder for the traced benchmark pass. A span is
 * one timed call into a layer: name ("<layer>.<what>"), start, end,
 * the span that caused it, and a request id shared by every span of
 * one request. Spans are kept in per-thread buffers while the
 * workload runs and written out once, as NDJSON, when it ends.
 */

#ifndef GPMBENCH_SPANS_HH
#define GPMBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gpmbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds since the process-wide epoch (first call). */
std::int64_t nowNs();

struct Span
{
    const char *name = ""; ///< static string: "<layer>.<call>"
    std::uint64_t id = 0;      ///< this span
    std::uint64_t parent = 0;  ///< causing span; 0 = root
    std::uint64_t request = 0; ///< shared by one request's spans
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * Process-wide recorder. Disabled (the default) it records nothing
 * and begin() returns 0, so the untraced pass pays one branch.
 */
class Tracer
{
  public:
    static void enable(bool on);
    static bool enabled();

    /** Record a finished span; returns its id (0 when disabled). */
    static std::uint64_t record(const char *name, std::int64_t start,
                                std::int64_t end,
                                std::uint64_t parent = 0,
                                std::uint64_t request = 0);

    /** A fresh span id, for parents recorded after their children. */
    static std::uint64_t reserveId();
    /** record() with an id taken from reserveId(). */
    static void recordAs(std::uint64_t id, const char *name,
                         std::int64_t start, std::int64_t end,
                         std::uint64_t parent = 0,
                         std::uint64_t request = 0);

    /** Every span recorded so far, from all threads. */
    static std::vector<Span> collect();

    /** Write collect() as NDJSON to @p path. */
    static bool write(const std::string &path);

    /** Sum of each layer's self time [ms]: a span's duration minus
     *  the part of it its children cover, keyed by the name's
     *  prefix before the first '.'. */
    static std::map<std::string, double>
    selfTimeMs(const std::vector<Span> &spans);
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, std::uint64_t parent = 0,
               std::uint64_t request = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    const char *name_;
    std::uint64_t id_;
    std::uint64_t parent_;
    std::uint64_t request_;
    std::int64_t start_;
};

} // namespace gpmbench

#endif // GPMBENCH_SPANS_HH
