/**
 * @file
 * ServeServer: the transports of the characterization service.
 *
 * Three front-ends drive one ServeEngine:
 *
 *  - serveStream(): the text line protocol on an istream/ostream
 *    pair (the daemon's stdin/stdout mode, and what tests talk to a
 *    popen'd bds_serve through).
 *  - serveSocket(): the same protocol on a Unix-domain socket, one
 *    thread per accepted client, so concurrent clients exercise the
 *    store's single-flight path.
 *  - replayLog(): feed a binary request log (serve/request.h)
 *    straight into the engine and summarize — the CI smoke and the
 *    serve_replay bench both ride on this.
 *
 * Protocol, one request per line:
 *
 *   characterize scale=S seed=N [sampled=0|1] [bypass=0|1]
 *                [workloads=...] [metrics=...]
 *   ping | stats | quit
 *
 * Responses are length-prefixed so payloads never need escaping:
 *
 *   ok id=<n> hash=<hex> hit=0|1 bytes=<k>[ quarantined=a,b]\n
 *   <k payload bytes>
 *   err id=<n> code=<name> msg=<text>\n
 *
 * When the configuration names a request log
 * (BDS_SERVE_LOG/--serve-log), every characterize request that
 * arrives over a stream or socket is appended to it as a binary
 * record, making live traffic replayable.
 */

#ifndef BDS_SERVE_SERVER_H
#define BDS_SERVE_SERVER_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/engine.h"

namespace bds {

/** What replayLog() measured. */
struct ReplaySummary
{
    std::uint64_t requests = 0; ///< records replayed
    std::uint64_t hits = 0;     ///< served from the store
    std::uint64_t errors = 0;   ///< error responses
    double seconds = 0.0;       ///< wall clock for the whole replay

    /** Per-request latencies, seconds, log order. */
    std::vector<double> latencies;
};

/**
 * Append one response to `out` in the framed format above; `id` is
 * the per-connection request index.
 */
void appendResponse(std::string &out, std::uint64_t id,
                    const ServeResponse &resp);

/** The daemon: transports around one ServeEngine. */
class ServeServer
{
  public:
    /**
     * @param cfg The daemon's resolved configuration (cfg.serve
     *        carries the transport/cache knobs).
     * @param session Optional manifest sink, passed to the engine.
     */
    explicit ServeServer(RunConfig cfg, Session *session = nullptr);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Serve the line protocol until EOF or a `quit` line. Thread-safe
     * against other transports of the same server.
     */
    void serveStream(std::istream &in, std::ostream &out);

    /**
     * Bind a Unix-domain socket at `path` (unlinking any stale one)
     * and serve accepted clients, one thread each, until a client
     * sends `quit`. Raises Error(Io) when the socket cannot be bound.
     */
    void serveSocket(const std::string &path);

    /** Replay a binary request log through the engine. */
    ReplaySummary replayLog(const std::string &path);

    /**
     * Mirror every response payload into `dir` as
     * <request-index>.csv (creating the directory). The CI smoke
     * compares these files byte-for-byte against batch-mode output.
     */
    void setPayloadDir(const std::string &dir);

    /** The engine behind the transports. */
    ServeEngine &engine() { return engine_; }

  private:
    /**
     * Handle one protocol line, appending its response to `out`;
     * returns false when the connection should close (quit). `id` is
     * the per-connection request index.
     */
    bool handleLine(const std::string &line, std::uint64_t id,
                    std::string &out);

    /** Mirror a payload to the payload dir (if configured). */
    void mirrorPayload(const std::string &payload);

    ServeEngine engine_;
    std::string requestLogPath_;

    std::mutex mutex_; ///< guards log_, payloadDir_, payloadIndex_
    std::unique_ptr<RequestLogWriter> log_;
    std::string payloadDir_;
    std::uint64_t payloadIndex_ = 0;
};

} // namespace bds

#endif // BDS_SERVE_SERVER_H
