#include "service/frontend.hh"

#include <csignal>
#include <cstdio>
#include <sys/socket.h>

#include "util/breaker.hh"
#include "util/flags.hh"
#include "util/logging.hh"

namespace gpm
{

using json::Value;

Value
errorObject(const std::string &code, const std::string &message,
            double retryAfterMs)
{
    Value err = Value::object();
    err.set("code", code);
    err.set("message", message);
    if (retryAfterMs > 0.0)
        err.set("retryAfterMs", retryAfterMs);
    return err;
}

std::string
errorResponse(const Value &id, const std::string &code,
              const std::string &message, double retryAfterMs)
{
    Value root = Value::object();
    root.set("id", id);
    root.set("ok", false);
    root.set("error", errorObject(code, message, retryAfterMs));
    return root.dump();
}

std::string
okResponse(const Value &id, Value result)
{
    Value root = Value::object();
    root.set("id", id);
    root.set("ok", true);
    root.set("result", std::move(result));
    return root.dump();
}

std::string
hashHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
httpResponse(int code, const char *status, const char *ctype,
             std::string body)
{
    return "HTTP/1.0 " + std::to_string(code) + " " + status +
           "\r\nContent-Type: " + ctype +
           "\r\nContent-Length: " + std::to_string(body.size()) +
           "\r\nConnection: close\r\n\r\n" + body;
}

void
sendLine(const std::shared_ptr<ReactorConn> &conn, std::string line)
{
    line.push_back('\n');
    conn->send(std::move(line));
}

// ---------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------

NdjsonFrontend::NdjsonFrontend(TcpListener listener_,
                               ReactorOptions transport_)
    : listener(std::move(listener_)), transport(transport_)
{
    // Convert to the private base here, in member context, where
    // the conversion is accessible.
    ReactorHandler &handler = *this;
    pool = std::make_unique<ReactorPool>(handler, transport);
    pool->serveListener(listener.fd());
}

void
NdjsonFrontend::attachMetricsListener(TcpListener l)
{
    metricsListener = std::move(l);
    pool->serveHttpListener(metricsListener.fd());
}

void
NdjsonFrontend::run()
{
    pool->start();
    std::unique_lock<std::mutex> lock(stopMtx);
    stopCv.wait(lock, [&] { return acceptClosed; });
}

void
NdjsonFrontend::requestStop()
{
    listener.shutdownListener();
}

void
NdjsonFrontend::onAcceptDone()
{
    std::lock_guard<std::mutex> lock(stopMtx);
    acceptClosed = true;
    stopCv.notify_all();
}

void
NdjsonFrontend::stopAndDrain()
{
    requestStop();
    {
        std::lock_guard<std::mutex> lock(stopMtx);
        if (drained)
            return;
        drained = true;
    }
    // Every accepted request gets its response enqueued before any
    // socket goes away; then flush, close and join.
    drainWork();
    pool->shutdownAndJoin();
    listener.close();
    metricsListener.close();
}

// ---------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------

std::string
NdjsonFrontend::onLineTooLong()
{
    return errorResponse(Value(nullptr), "line_too_long",
                         "request line exceeds " +
                             std::to_string(transport.maxLineBytes) +
                             " bytes") +
           "\n";
}

std::string
NdjsonFrontend::onHttpRequest(std::string_view method,
                              std::string_view path)
{
    const char *text = "text/plain; charset=utf-8";
    if (method != "GET")
        return httpResponse(405, "Method Not Allowed", text,
                            "method not allowed\n");
    if (path == "/healthz")
        return httpResponse(200, "OK", text, "ok\n");
    if (path == "/metrics")
        return httpResponse(200, "OK",
                            "text/plain; version=0.0.4; charset=utf-8",
                            metricsBody());
    return httpResponse(404, "Not Found", text, "not found\n");
}

void
NdjsonFrontend::onLine(const std::shared_ptr<ReactorConn> &conn,
                       std::string_view line)
{
    requests++;
    std::string reply = answer(conn, line);
    if (!reply.empty())
        sendLine(conn, std::move(reply));
}

std::string
NdjsonFrontend::answer(const std::shared_ptr<ReactorConn> &conn,
                       std::string_view line)
{
    Value id(nullptr);
    auto parsed = json::parse(line);
    if (!parsed.ok())
        return errorResponse(
            id, "parse",
            parsed.error().message + " at offset " +
                std::to_string(parsed.error().offset));
    const Value &req = parsed.value();
    if (!req.isObject())
        return errorResponse(id, "parse",
                             "request must be a JSON object");
    if (const Value *rid = req.find("id")) {
        if (!rid->isScalar())
            return errorResponse(id, "invalid",
                                 "id must be a scalar");
        id = *rid;
    }
    for (const auto &kv : req.asObject())
        if (kv.first != "id" && kv.first != "verb" &&
            kv.first != "scenario" && kv.first != "scenarios")
            return errorResponse(id, "invalid",
                                 "unknown request field '" +
                                     kv.first + "'");
    const Value *verb = req.find("verb");
    if (!verb || !verb->isString())
        return errorResponse(id, "invalid",
                             "missing or non-string 'verb'");
    const std::string &v = verb->asString();

    if (v == "ping") {
        Value result = Value::object();
        result.set("pong", true);
        return okResponse(id, std::move(result));
    }
    if (v == "stats")
        return okResponse(id, statsResult());
    if (v == "submit") {
        const Value *scenario = req.find("scenario");
        if (!scenario)
            return errorResponse(id, "invalid",
                                 "submit needs a 'scenario'");
        auto spec = parseScenario(*scenario);
        if (!spec.ok())
            return errorResponse(id, "invalid", spec.error());
        submit(conn, id, *scenario, std::move(spec.value()));
        return "";
    }
    if (v == "submit_batch") {
        const Value *scenarios = req.find("scenarios");
        if (!scenarios || !scenarios->isArray())
            return errorResponse(
                id, "invalid",
                "submit_batch needs a 'scenarios' array");
        const Value::Array &arr = scenarios->asArray();
        if (arr.empty())
            return errorResponse(id, "invalid",
                                 "'scenarios' must not be empty");
        std::vector<ScenarioSpec> specs;
        specs.reserve(arr.size());
        for (std::size_t i = 0; i < arr.size(); i++) {
            auto spec = parseScenario(arr[i]);
            if (!spec.ok())
                return errorResponse(id, "invalid",
                                     "scenario " + std::to_string(i) +
                                         ": " + spec.error());
            specs.push_back(std::move(spec.value()));
        }
        submitBatch(conn, id, arr, std::move(specs));
        return "";
    }
    if (v == "shutdown") {
        // Enqueue the reply before the stop, so the drain flushes it.
        Value result = Value::object();
        result.set("stopping", true);
        sendLine(conn, okResponse(id, std::move(result)));
        requestStop();
        return "";
    }
    return errorResponse(id, "invalid", "unknown verb '" + v + "'");
}

// ---------------------------------------------------------------
// Daemon skeleton
// ---------------------------------------------------------------

namespace
{

/** Listener fd for the async-signal-safe shutdown handler. */
int g_listen_fd = -1;

void
onSignal(int)
{
    if (g_listen_fd >= 0)
        ::shutdown(g_listen_fd, SHUT_RDWR);
}

} // namespace

void
addTransportFlags(FlagSet &flags, DaemonTransport &t)
{
    constexpr int kMaxMs = std::numeric_limits<int>::max();
    using std::size_t;
    using std::uint16_t;
    flags.add("--host", &t.host, "ADDR", "bind address");
    flags.add("--port", &t.port, uint16_t{0}, uint16_t{65535},
              "TCP port; 0 = ephemeral");
    flags.add("--metrics-port", &t.metricsPort, uint16_t{0},
              uint16_t{65535},
              "serve GET /metrics (Prometheus text) and /healthz on "
              "this port; 0 = ephemeral; unset = no metrics listener");
    flags.add("--reactor-threads", &t.client.threads, size_t{1},
              size_t{256}, "epoll event loops serving the clients");
    flags.add("--listen-backlog", &t.listenBacklog, 1, 1 << 20,
              "listen(2) backlog (clamped by net.core.somaxconn)");
    flags.add("--idle-timeout-ms", &t.client.idleTimeoutMs, 0, kMaxMs,
              "reap client connections idle this long; 0 = never");
    flags.add("--write-timeout-ms", &t.client.writeTimeoutMs, 0,
              kMaxMs, "per-write progress timeout; 0 = none");
    flags.add("--max-line-bytes", &t.client.maxLineBytes, size_t{64},
              size_t{1} << 30,
              "cap on a request line; longer gets 'line_too_long'");
}

void
addBreakerFlags(FlagSet &flags, BreakerOptions &b,
                const char *guards)
{
    std::string what = guards;
    flags.add("--breaker-window", &b.window, std::size_t{1},
              std::size_t{1} << 20,
              "failure window of the " + what + " circuit breakers");
    flags.add("--breaker-threshold", &b.failureThreshold, 0.0, 1.0,
              "failure rate opening a " + what + " breaker");
    flags.add("--breaker-cooldown-ms", &b.cooldownMs, 0.0, 3.6e6,
              "breaker open->half-open cooldown");
}

TcpListener
listenOrDie(const char *name, const DaemonTransport &t)
{
    auto l = TcpListener::listenOn(t.host, t.port, t.listenBacklog);
    if (!l.ok())
        fatal("%s: %s", name, l.error().c_str());
    return std::move(l.value());
}

void
serveUntilStopped(const char *name, NdjsonFrontend &fe,
                  const DaemonTransport &t)
{
    if (t.metricsPort) {
        auto ml = TcpListener::listenOn(t.host, *t.metricsPort, 64);
        if (!ml.ok())
            fatal("%s: metrics listener: %s", name,
                  ml.error().c_str());
        fe.attachMetricsListener(std::move(ml.value()));
    }
    g_listen_fd = fe.listenerFd();
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("%s: listening on %s:%u\n", name, t.host.c_str(),
                static_cast<unsigned>(fe.port()));
    if (fe.metricsPort() != 0)
        std::printf("%s: metrics on %s:%u\n", name, t.host.c_str(),
                    static_cast<unsigned>(fe.metricsPort()));
    std::fflush(stdout);

    fe.run();

    std::printf("%s: draining\n", name);
    std::fflush(stdout);
    fe.stopAndDrain();
}

} // namespace gpm
