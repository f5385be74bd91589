/**
 * @file
 * ServeServer: the transports of the characterization service.
 *
 * Two front-ends drive one ServeEngine:
 *
 *  - serveStream(): the text line protocol on an istream/ostream
 *    pair (the daemon's stdin/stdout mode, what tests talk to a
 *    popen'd bds_serve through, and how a request log is replayed).
 *  - serveSocket(): the same protocol on a Unix-domain socket, one
 *    thread per accepted client, so concurrent clients exercise the
 *    store's single-flight path.
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
 * parses is appended to it as its canonical protocol line and
 * flushed, so `bds_serve < LOG` replays live traffic. A crash leaves
 * whole lines plus at most one torn last line; serveStream() answers
 * a last line without its newline with an invalid_config err.
 */

#ifndef BDS_SERVE_SERVER_H
#define BDS_SERVE_SERVER_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

#include "serve/engine.h"

namespace bds {

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
     * against other transports of the same server. A last line that
     * EOF cuts before its newline is a torn write, answered with an
     * invalid_config err instead of being served.
     */
    void serveStream(std::istream &in, std::ostream &out);

    /**
     * Bind a Unix-domain socket at `path` (unlinking any stale one)
     * and serve accepted clients, one thread each, until a client
     * sends `quit`. Raises Error(Io) when the socket cannot be bound.
     */
    void serveSocket(const std::string &path);

    /**
     * Mirror every response payload into `dir` as
     * <request-index>.csv (creating the directory). Call it before
     * serving. The CI smoke compares these files byte-for-byte
     * against batch-mode output.
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

    /** The request log; null when none is configured. */
    std::unique_ptr<std::ofstream> log_;
    std::string payloadDir_; ///< set before serving, then read-only

    std::mutex mutex_; ///< guards writes to *log_, and payloadIndex_
    std::uint64_t payloadIndex_ = 0;
};

} // namespace bds

#endif // BDS_SERVE_SERVER_H
