#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bds {

namespace {

/** Trim one trailing '\r' (telnet-style clients). */
std::string
chomp(std::string line)
{
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    return line;
}

/** First whitespace-delimited token of a line. */
std::string
firstToken(const std::string &line)
{
    constexpr const char *kSpace = " \t\n\v\f\r";
    const std::size_t b = line.find_first_not_of(kSpace);
    if (b == std::string::npos)
        return {};
    return line.substr(b, line.find_first_of(kSpace, b) - b);
}

/**
 * Book-keeping shared by the accept loop and its (detached) client
 * threads: the open client fds (so a quit can unblock peers parked
 * in read), the live-thread count (what shutdown waits on instead of
 * an ever-growing vector of thread handles), and the accepting flag.
 */
struct ClientRoster
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<int> fds;   ///< open client sockets
    std::size_t active = 0; ///< client threads still running
    bool running = true;    ///< daemon still accepting
};

} // namespace

ServeServer::ServeServer(RunConfig cfg, Session *session)
    : engine_(cfg, session)
{
    const std::string &path = cfg.serve.logPath;
    if (path.empty())
        return;
    log_ = std::make_unique<std::ofstream>(
        path, std::ios::binary | std::ios::trunc);
    if (!*log_)
        BDS_RAISE(ErrorCode::Io,
                  "cannot write request log '" << path << "'");
}

ServeServer::~ServeServer() = default;

void
ServeServer::setPayloadDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
        // Capture errno before the stream below can clobber it.
        const int err = errno;
        BDS_RAISE(ErrorCode::Io, "cannot create payload dir '" << dir
                                     << "': "
                                     << std::strerror(err));
    }
    payloadDir_ = dir;
}

void
ServeServer::mirrorPayload(const std::string &payload)
{
    if (payloadDir_.empty())
        return;
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        path = payloadDir_ + "/" + std::to_string(payloadIndex_++)
            + ".csv";
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << payload;
    if (!out)
        BDS_RAISE(ErrorCode::Io,
                  "cannot mirror payload to '" << path << "'");
}

void
appendResponse(std::string &out, std::uint64_t id,
               const ServeResponse &resp)
{
    if (resp.ok) {
        out += "ok id=" + std::to_string(id) + " hash=" + resp.hashHex
            + (resp.hit ? " hit=1" : " hit=0")
            + " bytes=" + std::to_string(resp.payload.size());
        for (std::size_t i = 0; i < resp.quarantined.size(); ++i)
            out += (i ? "," : " quarantined=") + resp.quarantined[i];
        out += '\n';
        out += resp.payload;
    } else {
        // Keep the error line one line: the message may carry
        // multi-word diagnostics but never newlines by construction.
        out += "err id=" + std::to_string(id) + " code="
            + errorCodeName(resp.code) + " msg=" + resp.message + '\n';
    }
}

namespace {

/**
 * Count a request line the engine never saw (it failed to parse, was
 * torn, or could not be logged): one request, one error.
 */
void
countUnhandled()
{
    counters::add(Counter::ServeRequests);
    counters::add(Counter::ServeErrors);
}

} // namespace

bool
ServeServer::handleLine(const std::string &raw, std::uint64_t id,
                        std::string &out)
{
    const std::string line = chomp(raw);
    const std::string verb = firstToken(line);

    if (verb.empty())
        return true; // blank line: keep the connection open
    if (verb == "quit") {
        out += "bye\n";
        return false;
    }
    if (verb == "ping") {
        out += "pong\n";
        return true;
    }
    if (verb == "stats") {
        out += "stats";
        counters::forEach([&](const CounterDef &c, std::uint64_t v) {
            out += ' ';
            out += c.statsKey;
            out += '=';
            out += std::to_string(v);
        });
        out += '\n';
        return true;
    }

    ServeResponse resp;
    bool handled = false; // the engine counts what it handles
    try {
        const RequestRecord req = parseRequestLine(line);
        if (log_) {
            const std::string entry = formatRequestLine(req) + '\n';
            std::lock_guard<std::mutex> lock(mutex_);
            *log_ << entry << std::flush;
            if (!*log_)
                BDS_RAISE(ErrorCode::Io, "short write to the request log");
        }
        handled = true;
        resp = engine_.handle(req);
        // Inside the try: a mirror failure (full disk, unwritable
        // --payload-dir) must degrade to an err response, not an
        // exception that kills the daemon or a client thread.
        if (resp.ok)
            mirrorPayload(resp.payload);
    } catch (const Error &e) {
        resp.ok = false;
        resp.code = e.code();
        resp.message = e.what();
    } catch (const FatalError &e) {
        resp.ok = false;
        resp.code = ErrorCode::InvalidConfig;
        resp.message = e.what();
    }
    if (!handled)
        countUnhandled();
    appendResponse(out, id, resp);
    return true;
}

void
ServeServer::serveStream(std::istream &in, std::ostream &out)
{
    std::string line;
    std::string response;
    std::uint64_t id = 0;
    while (std::getline(in, line)) {
        response.clear();
        bool open = true;
        if (in.eof()) {
            // EOF before the newline: a torn write, such as the last
            // line of a request log cut by a crash. Its prefix may
            // still parse as another cell, so it is never served.
            ServeResponse torn;
            torn.code = ErrorCode::InvalidConfig;
            torn.message = "request line '" + chomp(line)
                + "' ends without a newline (torn write)";
            countUnhandled();
            appendResponse(response, id++, torn);
        } else {
            open = handleLine(line, id++, response);
        }
        out << response << std::flush;
        if (!open)
            break;
    }
}

void
ServeServer::serveSocket(const std::string &path)
{
    if (path.empty())
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "serveSocket needs a socket path");
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "socket path too long: '" << path << "'");

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        const int err = errno;
        BDS_RAISE(ErrorCode::Io,
                  "socket(): " << std::strerror(err));
    }
    ::unlink(path.c_str()); // stale socket from a previous daemon
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        const int err = errno;
        ::close(fd);
        BDS_RAISE(ErrorCode::Io, "bind('" << path
                                          << "'): "
                                          << std::strerror(err));
    }
    if (::listen(fd, 16) != 0) {
        const int err = errno;
        ::close(fd);
        BDS_RAISE(ErrorCode::Io,
                  "listen(): " << std::strerror(err));
    }
    inform("bds_serve: listening on " + path);

    auto roster = std::make_shared<ClientRoster>();
    while (true) {
        const int client = ::accept(fd, nullptr, nullptr);
        if (client < 0) {
            if (errno == EINTR)
                continue;
            break; // quit shut the listening socket, or a hard error
        }
        {
            std::lock_guard<std::mutex> lock(roster->mutex);
            if (!roster->running) {
                ::close(client);
                break;
            }
            roster->fds.push_back(client);
            ++roster->active;
        }
        // Detached: shutdown waits on roster->active, so a long-
        // lived daemon never accumulates unreaped thread handles.
        std::thread([this, client, fd, roster] {
            // Stream-ify the fd: read whole lines, answer framed.
            // One response buffer per connection, reused for every
            // request and sent as-is.
            std::string buf;
            std::string out;
            char chunk[4096];
            bool open = true;
            bool quit = false; // explicit quit verb, not a dead peer
            std::uint64_t id = 0;
            while (open) {
                const ssize_t n =
                    ::read(client, chunk, sizeof(chunk));
                if (n <= 0)
                    break;
                buf.append(chunk, static_cast<std::size_t>(n));
                std::size_t nl;
                while (open
                       && (nl = buf.find('\n')) != std::string::npos) {
                    const std::string line = buf.substr(0, nl);
                    buf.erase(0, nl + 1);
                    out.clear();
                    quit = !handleLine(line, id++, out);
                    open = !quit;
                    std::size_t off = 0;
                    while (off < out.size()) {
                        // MSG_NOSIGNAL: a client that closed its
                        // socket mid-response is EPIPE here, not a
                        // SIGPIPE that kills the daemon.
                        const ssize_t w = ::send(
                            client, out.data() + off,
                            out.size() - off, MSG_NOSIGNAL);
                        if (w <= 0) {
                            // Dead peer: drop this client only; the
                            // daemon keeps serving everyone else.
                            open = false;
                            break;
                        }
                        off += static_cast<std::size_t>(w);
                    }
                }
            }
            {
                std::lock_guard<std::mutex> lock(roster->mutex);
                roster->fds.erase(std::remove(roster->fds.begin(),
                                              roster->fds.end(),
                                              client),
                                  roster->fds.end());
                ::close(client);
                if (quit && roster->running) {
                    // Only the explicit quit verb shuts the daemon
                    // down: wake the accept loop and every peer
                    // parked in read so shutdown cannot hang on a
                    // silent client. Under the lock (and before the
                    // active decrement releases serveSocket), every
                    // fd here is still live — no reuse races.
                    roster->running = false;
                    ::shutdown(fd, SHUT_RDWR);
                    for (int peer : roster->fds)
                        ::shutdown(peer, SHUT_RDWR);
                }
                --roster->active;
            }
            roster->cv.notify_all();
        }).detach();
    }
    {
        std::unique_lock<std::mutex> lock(roster->mutex);
        roster->cv.wait(lock, [&] { return roster->active == 0; });
    }
    ::close(fd);
    ::unlink(path.c_str());
}

} // namespace bds
