/**
 * @file
 * GpmServer — gpmd's front end of a ScenarioService: the
 * service-backed verbs on top of NdjsonFrontend (frontend.hh), which
 * owns the envelope, validation, HTTP surface and listener
 * lifecycle it shares with gpm-router.
 *
 * Error codes: parse | invalid | busy | rejected_overload |
 * draining | deadline_exceeded | internal_error | line_too_long;
 * busy / rejected_overload carry "retryAfterMs", the server's
 * backoff floor hint. A submit response carries "cached", plus
 * "degraded": {from, to, reason} when the ladder substituted a
 * cheaper solver.
 *
 * submit_batch admits its scenarios all-or-nothing and answers with
 * either ONE batch-level error line (no "index") or exactly one
 * line per scenario carrying "index" (position in the request
 * array) and "hash" (canonical scenario hash, 16 hex digits), in
 * completion order.
 *
 * Draining: the service drains first (dispatched submits complete
 * and their responses are enqueued), then the connections close.
 */

#ifndef GPM_SERVICE_SERVER_HH
#define GPM_SERVICE_SERVER_HH

#include <memory>
#include <string>
#include <vector>

#include "service/frontend.hh"
#include "service/service.hh"

namespace gpm
{

class GpmServer : public NdjsonFrontend
{
  public:
    GpmServer(ScenarioService &svc, TcpListener listener,
              ReactorOptions transport = ReactorOptions{});

    /** stopAndDrain() if the owner did not. */
    ~GpmServer() override;

  private:
    json::Value statsResult() override;
    void submit(const std::shared_ptr<ReactorConn> &conn,
                const json::Value &id, const json::Value &scenario,
                ScenarioSpec spec) override;
    void submitBatch(const std::shared_ptr<ReactorConn> &conn,
                     const json::Value &id,
                     const json::Value::Array &scenarios,
                     std::vector<ScenarioSpec> specs) override;
    std::string metricsBody() override;
    void drainWork() override;

    ScenarioService &svc;
};

} // namespace gpm

#endif // GPM_SERVICE_SERVER_HH
