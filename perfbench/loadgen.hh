/**
 * @file
 * NDJSON load generator for gpmd and gpm-router over loopback.
 *
 * One thread per connection, each thread owning exactly one socket,
 * so a phase with C connections runs C threads. Open-loop phases
 * send on a seeded Poisson schedule fixed before the phase starts
 * and time every scenario from its *scheduled* send time, so a
 * stall is charged to every request it delays; how late the sender
 * ran is reported separately. Closed-loop phases keep a fixed
 * number of requests in flight per connection.
 *
 * Every response is checked: a scenario counts as served only when
 * its payload is byte-equal to the expected one (see Expected).
 */

#ifndef GPMBENCH_LOADGEN_HH
#define GPMBENCH_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace gpmbench
{

/** One request: its body after the id field, and the key index of
 *  each scenario it carries (one for submit, B for submit_batch). */
struct Draw
{
    std::string body;
    std::vector<std::uint32_t> keys;
};

/** Draws the next request; must be safe to call from several
 *  threads, each with its own generator. */
using DrawFn = std::function<Draw(std::mt19937_64 &)>;

/**
 * Expected payloads, by key. Keys below its size must match that
 * payload byte for byte; larger keys are cold scenarios whose
 * payloads are kept for a check after the phase.
 */
using Expected = std::vector<std::string>;

/** One answered scenario. */
struct Sample
{
    std::int64_t schedNs = 0; ///< when it was due to be sent
    std::int64_t doneNs = 0;  ///< when its response line arrived
    bool cached = false;
};

struct PhaseResult
{
    std::vector<Sample> samples; ///< served, verified scenarios
    std::vector<std::int64_t> lagNs; ///< send time - scheduled time
    std::uint64_t attempted = 0; ///< scenarios sent
    std::uint64_t failed = 0;    ///< any outcome but a served match
    std::uint64_t degraded = 0;  ///< served with a "degraded" marker
    /** Failures by code: error codes as sent, plus "transport",
     *  "timeout" and "mismatch". */
    std::map<std::string, std::uint64_t> failures;
    /** Cold scenarios' payloads, checked after the phase. */
    std::vector<std::pair<std::uint32_t, std::string>> coldPayloads;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    void merge(PhaseResult &&o);
};

/** Open loop: @p rate scenarios-carrying requests per second over
 *  @p conns connections for @p seconds. */
PhaseResult runOpenLoop(std::uint16_t port, int conns, double rate,
                        double seconds, std::uint64_t seed,
                        const DrawFn &draw, const Expected &expected);

/** Closed loop: @p depth requests in flight on each of @p conns
 *  connections for @p seconds. */
PhaseResult runClosedLoop(std::uint16_t port, int conns, int depth,
                          double seconds, std::uint64_t seed,
                          const DrawFn &draw, const Expected &expected);

/** A blocking one-request-at-a-time NDJSON connection. */
class LineClient
{
  public:
    explicit LineClient(std::uint16_t port);
    ~LineClient();
    LineClient(const LineClient &) = delete;
    LineClient &operator=(const LineClient &) = delete;

    /** Send one line, return the next response line ("" on a
     *  transport failure). */
    std::string call(const std::string &line);
    /** Send @p lines keeping at most @p window unanswered; returns
     *  how many were answered "ok":true. */
    std::size_t pipeline(const std::vector<std::string> &lines,
                         std::size_t window);

  private:
    std::string readLine();

    int fd = -1;
    std::string buf;
};

/**
 * The served payload and markers of one response line. Returns false
 * when the line is not a response at all.
 */
struct Reply
{
    std::uint64_t id = 0;
    bool ok = false;
    bool hasIndex = false;
    std::size_t index = 0;
    bool cached = false;
    bool degraded = false;
    std::string code;    ///< error code when !ok
    std::string payload; ///< "result" as sent, byte for byte
};
bool parseReply(const std::string &line, Reply &out);

} // namespace gpmbench

#endif // GPMBENCH_LOADGEN_HH
