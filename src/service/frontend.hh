/**
 * @file
 * NdjsonFrontend — the NDJSON-over-TCP front end shared by gpmd
 * (GpmServer, server.hh) and gpm-router (GpmRouter, router.hh).
 *
 * Protocol (one JSON object per line; docs/SERVICE.md has the full
 * contract):
 *
 *   {"id": <scalar?>, "verb": "ping" | "stats" | "shutdown"}
 *   {"id": <scalar?>, "verb": "submit", "scenario": {...}}
 *   {"id": <scalar?>, "verb": "submit_batch", "scenarios": [...]}
 *
 * Responses echo the id and carry "result" or "error": {"code",
 * "message"[, "retryAfterMs"]}. Clients may pipeline: submits are
 * dispatched asynchronously and answered in completion order, so
 * clients match responses by "id".
 *
 * This class owns everything both daemons answer identically: the
 * request envelope (parse, object check, scalar id, unknown fields,
 * verb), ping / shutdown / unknown-verb replies, scenario
 * validation for submit and submit_batch, the line_too_long
 * refusal, the HTTP surface (/healthz, 404, 405) and the listener
 * lifecycle on an epoll reactor pool (reactor.hh: idle reaping,
 * write-progress timeouts, EMFILE shedding). A derived class
 * supplies the stats object, the handling of validated submits,
 * the /metrics body and its drain step — and must call
 * stopAndDrain() from its own destructor, because the drain step is
 * virtual and would no longer dispatch from this class's.
 *
 * run() blocks until requestStop() (signal-safe); stopAndDrain()
 * then answers everything accepted, flushes and closes the
 * connections and joins the reactors.
 */

#ifndef GPM_SERVICE_FRONTEND_HH
#define GPM_SERVICE_FRONTEND_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/json.hh"
#include "service/net.hh"
#include "service/reactor.hh"
#include "service/scenario.hh"

namespace gpm
{

class FlagSet;
struct BreakerOptions;

/** {"code", "message"[, "retryAfterMs" when > 0]}. */
json::Value errorObject(const std::string &code,
                        const std::string &message,
                        double retryAfterMs = 0.0);
/** {"id", "ok": false, "error": errorObject(...)}. */
std::string errorResponse(const json::Value &id,
                          const std::string &code,
                          const std::string &message,
                          double retryAfterMs = 0.0);
/** {"id", "ok": true, "result"}. */
std::string okResponse(const json::Value &id, json::Value result);
/** A canonical scenario hash as 16 lowercase hex digits. */
std::string hashHex(std::uint64_t hash);
/** Frame one complete HTTP/1.0 response. */
std::string httpResponse(int code, const char *status,
                         const char *ctype, std::string body);
/** Enqueue one response line (appends '\n'). */
void sendLine(const std::shared_ptr<ReactorConn> &conn,
              std::string line);

class NdjsonFrontend : private ReactorHandler
{
  public:
    NdjsonFrontend(const NdjsonFrontend &) = delete;
    NdjsonFrontend &operator=(const NdjsonFrontend &) = delete;

    std::uint16_t port() const { return listener.port(); }
    int listenerFd() const { return listener.fd(); }

    /** Serve GET /metrics and /healthz on @p l (same reactor).
     *  Call before run(). */
    void attachMetricsListener(TcpListener l);
    /** The metrics listener's port; 0 when none is attached. */
    std::uint16_t metricsPort() const
    {
        return metricsListener.valid() ? metricsListener.port()
                                       : 0;
    }

    /** Serve; blocks until requestStop(). */
    void run();
    /** Unblock run(). Safe from signal handlers and other threads. */
    void requestStop();
    /** Stop accepting, run the derived drain step, flush and close
     *  the connections, join the reactors. Idempotent. */
    void stopAndDrain();

    /** Connections accepted since start. */
    std::uint64_t connectionCount() const
    {
        return pool->stats().accepted;
    }
    /** Requests (lines) handled since start. */
    std::uint64_t requestCount() const { return requests; }
    /** Connections reaped for idling past idleTimeoutMs. */
    std::uint64_t idleReapedCount() const
    {
        return pool->stats().idleReaped;
    }
    /** Over-long lines answered with "line_too_long". */
    std::uint64_t lineTooLongCount() const
    {
        return pool->stats().lineTooLong;
    }

  private:
    // Declared before the pool so they outlive its reactors.
    TcpListener listener;
    TcpListener metricsListener;

  protected:
    NdjsonFrontend(TcpListener listener, ReactorOptions transport);
    ~NdjsonFrontend() override = default;

    /** The "stats" verb's result object. */
    virtual json::Value statsResult() = 0;
    /** A "submit" whose scenario passed parseScenario(). */
    virtual void submit(const std::shared_ptr<ReactorConn> &conn,
                        const json::Value &id,
                        const json::Value &scenario,
                        ScenarioSpec spec) = 0;
    /** A "submit_batch" whose non-empty array passed
     *  parseScenario() entry by entry. */
    virtual void submitBatch(const std::shared_ptr<ReactorConn> &conn,
                             const json::Value &id,
                             const json::Value::Array &scenarios,
                             std::vector<ScenarioSpec> specs) = 0;
    /** The GET /metrics body (Prometheus text, no HTTP framing). */
    virtual std::string metricsBody() = 0;
    /** Answer everything accepted so far; runs once, inside
     *  stopAndDrain(), before the connections close. */
    virtual void drainWork() = 0;
    /** Every request line of one reactor pass on this thread has
     *  been handled (ReactorHandler::onBatchEnd). */
    void onBatchEnd() override {}

    /** Client-side transport settings. */
    const ReactorOptions transport;
    std::unique_ptr<ReactorPool> pool;
    std::atomic<std::uint64_t> requests{0};

  private:
    void onLine(const std::shared_ptr<ReactorConn> &conn,
                std::string_view line) override;
    std::string onLineTooLong() override;
    std::string onHttpRequest(std::string_view method,
                              std::string_view path) override;
    void onAcceptDone() override;

    /** The immediate reply to @p line, or "" when the verb
     *  answered (or will answer) by itself. */
    std::string answer(const std::shared_ptr<ReactorConn> &conn,
                       std::string_view line);

    std::mutex stopMtx;
    std::condition_variable stopCv;
    bool acceptClosed = false;
    bool drained = false;
};

// ---------------------------------------------------------------
// Daemon skeleton shared by gpmd_main.cc and router_main.cc
// ---------------------------------------------------------------

/** Listener and client-transport settings of one daemon. */
struct DaemonTransport
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Unset: no metrics listener; 0 = ephemeral. */
    std::optional<std::uint16_t> metricsPort;
    int listenBacklog = 1024;
    ReactorOptions client{.idleTimeoutMs = 60000,
                          .writeTimeoutMs = 30000};
};

/** --host, --port, --metrics-port, --reactor-threads,
 *  --listen-backlog, --idle-timeout-ms, --write-timeout-ms and
 *  --max-line-bytes. */
void addTransportFlags(FlagSet &flags, DaemonTransport &t);

/** --breaker-window, --breaker-threshold, --breaker-cooldown-ms;
 *  @p guards names what the breakers protect. */
void addBreakerFlags(FlagSet &flags, BreakerOptions &b,
                     const char *guards);

/** Bind the NDJSON listener or exit with "<name>: <error>". */
TcpListener listenOrDie(const char *name, const DaemonTransport &t);

/** Attach the metrics listener if configured, route SIGINT/SIGTERM
 *  to requestStop(), print "<name>: listening on" (and "metrics
 *  on"), run, print "<name>: draining" and stopAndDrain(). */
void serveUntilStopped(const char *name, NdjsonFrontend &fe,
                       const DaemonTransport &t);

} // namespace gpm

#endif // GPM_SERVICE_FRONTEND_HH
