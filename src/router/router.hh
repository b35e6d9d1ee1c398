/**
 * @file
 * GpmRouter — a thin sharding proxy in front of N gpmd backends.
 *
 * The router speaks the gpmd NDJSON protocol on both sides (see
 * docs/SERVICE.md): clients point gpmctl (or anything else that
 * talks to gpmd) at the router with no changes, and the router
 * consistent-hashes every scenario's canonical hash — the same
 * 64-bit key the result cache uses — onto a backend via a
 * rendezvous/HRW ring (ring.hh). A scenario therefore always lands
 * on the same backend, so each backend's memory LRU warms exactly
 * its shard of the keyspace, while the shared --cache-dir /
 * --profile-cache-dir directories make every result reusable
 * fleet-wide.
 *
 * Forwarding is line-oriented and near zero-copy: request lines
 * are re-tagged with an internal correlation id ("r<seq>") and the
 * scenario text is forwarded verbatim; response lines come back on
 * per-backend connection pools, are matched by the correlation id,
 * and the original client id (and, for batch shards, the original
 * scenario index) is spliced back into the line as string spans —
 * no parse/re-serialize on the hot path (a defensive full-parse
 * fallback covers any line that does not match the expected head
 * shape, counted in spliceFallbacks). Request lines routed while a
 * reactor thread handles one pass of client lines are queued per
 * pooled connection and written once when the pass ends
 * (onBatchEnd), so pipelined traffic costs one send per connection
 * per pass; re-dispatches from reader threads write at once.
 *
 * submit_batch splits by shard: scenarios are grouped by owner,
 * each group forwarded as one sub-batch, and responses re-emitted
 * in completion order with indices remapped to the client's
 * request array. A shard-level rejection (busy /
 * rejected_overload / draining) is translated into one per-scenario
 * error line per affected scenario, original code and retryAfterMs
 * preserved — admission control composes through the router.
 *
 * Failure handling rides CircuitBreaker (util/breaker.hh), one per
 * backend: transport failures (connect refusal, write failure,
 * connection EOF) feed the breaker; an open breaker removes the
 * backend from the eligible set, which *re-resolves its shard
 * slice onto the live replicas* via the ring's per-key ranking.
 * This is correct for any scenario because results are
 * content-addressed: a re-routed miss recomputes and
 * write-throughs the shared cache dir, byte-identical. In-flight
 * requests orphaned by a dead connection are re-dispatched the
 * same way (never answered internal_error). A prober thread pings
 * non-closed backends on the breaker's jittered cooldown schedule
 * and closes the breaker when a backend comes back.
 *
 * Observability: `stats` answers a flat router stats object plus a
 * per-backend array; attachMetricsListener() serves aggregated
 * Prometheus metrics (gpm_router_* series with per-backend labels)
 * and /healthz on the same reactor.
 *
 * The client side — request envelope, ping / shutdown, scenario
 * validation, the HTTP surface and the listener lifecycle — is
 * NdjsonFrontend (service/frontend.hh), the same code gpmd runs,
 * so both daemons answer everything but stats and scenario results
 * with identical bytes.
 */

#ifndef GPM_ROUTER_ROUTER_HH
#define GPM_ROUTER_ROUTER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "router/ring.hh"
#include "service/frontend.hh"
#include "util/breaker.hh"

namespace gpm
{

/** One scenario inside a forward unit: the text forwarded
 *  verbatim, the shard key, and where the client expects it in a
 *  batch response. */
struct RouterItem
{
    std::string scenario;
    std::uint64_t hash = 0;
    std::size_t origIndex = 0;
    bool done = false;
};

/** One gpmd backend address. */
using RouterEndpoint = Endpoint;

/** GpmRouter backend-side tuning knobs (the client side is the
 *  front end's ReactorOptions). */
struct RouterOptions
{
    /** Pooled connections per backend. */
    std::size_t backendConns = 2;
    /** Backend connect() timeout; 0 = none. */
    int backendConnectTimeoutMs = 1000;
    /** Per-send progress timeout on backend sockets (wedged-backend
     *  guard); 0 = wait forever. */
    int backendWriteTimeoutMs = 30000;
    /** Prober sweep period; each sweep pings backends whose breaker
     *  allows a probe (the breaker's jittered cooldown gates how
     *  often a dead backend is actually poked). */
    int probeIntervalMs = 50;
    /** Probe connect/response timeout; 0 = none. */
    int probeTimeoutMs = 1000;
    /** Dispatch attempts per forward unit before its scenarios are
     *  answered with a retryable "busy" error. */
    int maxReroutes = 8;
    /** Per-backend circuit breaker tuning. */
    BreakerOptions breaker;
};

/** Per-backend slice of RouterStats. */
struct RouterBackendStats
{
    std::string name;
    std::string breakerState;
    std::uint64_t breakerOpens = 0;
    /** Scenarios dispatched to this backend (incl. re-routes). */
    std::uint64_t routed = 0;
    /** Scenarios routed here while NOT the all-alive ring owner
     *  (the rehash count: failover placements). */
    std::uint64_t rehashes = 0;
    /** Gauge: scenarios awaiting this backend's response. */
    std::uint64_t inflight = 0;
    bool live = false;
};

/** Aggregated router counters (monotonic unless noted). */
struct RouterStats
{
    double uptimeSec = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t connections = 0;
    std::uint64_t routedSubmits = 0;
    std::uint64_t routedBatches = 0;
    std::uint64_t routedScenarios = 0;
    /** Scenarios re-dispatched after a transport failure. */
    std::uint64_t rerouted = 0;
    /** Scenarios answered "busy" with no live backend. */
    std::uint64_t shedNoBackend = 0;
    /** Responses that took the defensive full-parse path. */
    std::uint64_t spliceFallbacks = 0;
    /** Backend transport failures observed. */
    std::uint64_t backendFailures = 0;
    /** Writes to backend sockets; each carries every request line
     *  one reactor pass routed to that connection. */
    std::uint64_t backendWrites = 0;
    /** Health probes sent. */
    std::uint64_t probes = 0;
    /** Gauge: scenarios accepted but not yet answered. */
    std::uint64_t inflight = 0;
    std::size_t backendsTotal = 0;
    std::size_t backendsLive = 0;
    std::vector<RouterBackendStats> backends;
};

/** Render the router /metrics body (gpm_router_* series plus
 *  gpm_build_info; no HTTP framing). */
std::string renderRouterPrometheus(const RouterStats &s,
                                   const ReactorStats &r);

class GpmRouter : public NdjsonFrontend
{
  public:
    GpmRouter(std::vector<RouterEndpoint> endpoints,
              TcpListener listener,
              RouterOptions opts = RouterOptions{},
              ReactorOptions transport = ReactorOptions{});

    /** stopAndDrain() if the owner did not. */
    ~GpmRouter() override;

    RouterStats stats() const;

  private:
    struct Pending;
    struct Channel;
    struct Backend;

    json::Value statsResult() override;
    void submit(const std::shared_ptr<ReactorConn> &conn,
                const json::Value &id, const json::Value &scenario,
                ScenarioSpec spec) override;
    void submitBatch(const std::shared_ptr<ReactorConn> &conn,
                     const json::Value &id,
                     const json::Value::Array &scenarios,
                     std::vector<ScenarioSpec> specs) override;
    std::string metricsBody() override;
    /**
     * Wait (bounded) for every accepted scenario to be answered,
     * then stop the probers and backend readers. Backends are left
     * running — `shutdown` through the router stops the router
     * only.
     */
    void drainWork() override;

    /** Eligible-backend mask: breaker closed, or (when none is)
     *  half-open. All-false when the whole fleet is down. */
    std::vector<char> eligibleMask() const;

    /**
     * Route @p items (grouped by ring owner over the eligible
     * mask, excluding @p exclude when possible), register and
     * forward each group. Items that cannot be placed after
     * opts.maxReroutes attempts are answered with retryable
     * errors.
     */
    void dispatchItems(const std::shared_ptr<ReactorConn> &conn,
                       const std::string &idDump, bool batch,
                       std::vector<RouterItem> items,
                       int attempts, std::size_t exclude,
                       bool coalesce);

    /**
     * Register @p p under a fresh correlation id on one of @p b's
     * pooled connections and queue its request line there. With
     * @p coalesce (a reactor thread, inside a pass) the line waits
     * for onBatchEnd(); otherwise it is written at once. False =
     * transport failure (breaker fed, pending deregistered).
     */
    bool sendUnit(std::size_t bIdx, const std::shared_ptr<Pending> &p,
                  bool coalesce);
    /** Write @p ch's queued lines (caller holds ch.mtx). A failed
     *  write shuts the connection down for its reader to sweep. */
    bool flushLocked(Channel &ch);
    /** Flush every connection this reactor pass queued lines on. */
    void onBatchEnd() override;

    /** Answer every item with a retryable "busy" error. */
    void shedItems(const std::shared_ptr<ReactorConn> &conn,
                   const std::string &idDump, bool batch,
                   const std::vector<RouterItem> &items);

    void onBackendLine(std::size_t bIdx, std::string_view line);
    void fallbackBackendLine(std::size_t bIdx,
                             std::string_view line);
    /** Translate a shard-level backend error into per-scenario
     *  error lines (original code/message/retryAfterMs). */
    void emitShardError(const std::shared_ptr<Pending> &p,
                        std::string_view errorLine);

    void readerLoop(std::size_t bIdx, std::size_t cIdx);
    void channelDown(std::size_t bIdx, std::size_t cIdx,
                     std::uint64_t gen);
    void proberLoop();
    bool probeBackend(Backend &b);

    void oneAnswered(std::size_t n = 1);

    std::vector<std::unique_ptr<Backend>> backends;
    RendezvousRing ring;
    RouterOptions opts;

    std::atomic<bool> stopping{false};
    std::thread prober;
    std::mutex proberMtx;
    std::condition_variable proberCv;

    /** Scenarios accepted but not yet answered (drain gate). */
    std::atomic<std::uint64_t> unanswered{0};
    std::mutex drainMtx;
    std::condition_variable drainCv;

    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> routedSubmits{0};
    std::atomic<std::uint64_t> routedBatches{0};
    std::atomic<std::uint64_t> routedScenarios{0};
    std::atomic<std::uint64_t> rerouted{0};
    std::atomic<std::uint64_t> shedNoBackend{0};
    std::atomic<std::uint64_t> spliceFallbacks{0};
    std::atomic<std::uint64_t> backendFailures{0};
    std::atomic<std::uint64_t> backendWrites{0};
    std::atomic<std::uint64_t> probes{0};

    /** Connections with lines queued by this reactor thread's
     *  current pass (each reactor thread serves one router). */
    static thread_local std::vector<Channel *> unflushedChannels;

    std::chrono::steady_clock::time_point startTime;
};

} // namespace gpm

#endif // GPM_ROUTER_ROUTER_HH
