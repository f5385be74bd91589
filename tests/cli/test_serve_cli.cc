/**
 * @file
 * End-to-end protocol tests of the bds_serve binary over
 * stdin/stdout: framed ok/err responses with exact byte counts, the
 * pinned content address surviving the process boundary, warm
 * restarts answering from the on-disk store, malformed requests as
 * typed err lines that never kill the daemon, and an injected fault
 * quarantined per request while the daemon keeps serving.
 *
 * The binary path is injected by CMake as BDS_SERVE_BIN.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"

namespace bds {
namespace {

/** Run `cmd` under sh, returning its stdout; fails the test on rc != 0. */
std::string
capture(const std::string &cmd)
{
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return {};
    }
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    int rc = ::pclose(pipe);
    EXPECT_EQ(rc, 0) << "command failed: " << cmd;
    return out;
}

/**
 * BDS_* knobs fixed so the ambient environment cannot interfere; the
 * request lines are piped into the daemon's stdin and diagnostics on
 * stderr are dropped so stdout is pure protocol.
 */
std::string
serveCmd(const std::string &requests, const std::string &extraEnv,
         const std::string &extraArgs)
{
    return "printf '" + requests
        + "' | env -u BDS_TRACE_FILE -u BDS_METRICS -u BDS_SAMPLE "
          "-u BDS_FAULT_THROW -u BDS_FAULT_STALL -u BDS_FAULT_CORRUPT "
          "-u BDS_FAULT_ALLOC -u BDS_FAIL_POLICY "
          "-u BDS_SERVE_SOCKET -u BDS_SERVE_CACHE "
          "-u BDS_SERVE_MAX_INFLIGHT -u BDS_SERVE_BYPASS "
          "-u BDS_SERVE_LOG -u BDS_CKPT -u BDS_CKPT_DIR "
          "BDS_SCALE=quick BDS_SEED=42 BDS_THREADS=0 "
          "BDS_TRACE=0 BDS_MANIFEST=0 "
        + extraEnv + " " + BDS_SERVE_BIN + " " + extraArgs
        + " 2>/dev/null";
}

/** One framed response: the header line plus its counted payload. */
struct Frame
{
    std::string header;
    std::string payload;
};

/** Value of `key=` in a response header ("" when absent). */
std::string
field(const std::string &header, const std::string &key)
{
    const std::string needle = " " + key + "=";
    std::size_t pos = header.find(needle);
    if (pos == std::string::npos)
        return {};
    pos += needle.size();
    const std::size_t end = header.find(' ', pos);
    return header.substr(pos, end == std::string::npos ? std::string::npos
                                                       : end - pos);
}

/**
 * Split raw protocol output into frames: every line is a frame, and
 * an "ok ..." line additionally owns the next `bytes=` payload bytes.
 */
std::vector<Frame>
parseFrames(const std::string &out)
{
    std::vector<Frame> frames;
    std::size_t pos = 0;
    while (pos < out.size()) {
        const std::size_t nl = out.find('\n', pos);
        if (nl == std::string::npos)
            break;
        Frame f;
        f.header = out.substr(pos, nl - pos);
        pos = nl + 1;
        if (f.header.rfind("ok ", 0) == 0) {
            const std::size_t bytes = static_cast<std::size_t>(
                std::atol(field(f.header, "bytes").c_str()));
            f.payload = out.substr(pos, bytes);
            pos += bytes;
        }
        frames.push_back(f);
    }
    return frames;
}

/** Remove a known cache entry and the directory. */
void
wipeCache(const std::string &dir, const std::string &hash)
{
    if (!hash.empty())
        std::remove((dir + "/" + hash + ".result").c_str());
    ::rmdir(dir.c_str());
}

// The pinned schema-v2 address of quick/42 with defaults: the same
// literal tests/serve/test_confighash.cc pins in process, asserted
// here across the process boundary.
const char *const kQuick42Hash = "0f05f95f1abacd81";

TEST(ServeCli, StdinProtocolMissHitAndWarmRestart)
{
    const std::string cache =
        ::testing::TempDir() + "bds_serve_cli_cache";
    wipeCache(cache, kQuick42Hash);

    const std::string out = capture(serveCmd(
        "ping\\ncharacterize scale=quick seed=42\\n"
        "characterize scale=quick seed=42\\nstats\\nquit\\n",
        "", "--serve-cache " + cache));
    // stdout is protocol only: no stderr chatter leaked in.
    EXPECT_EQ(out.find("bds_serve:"), std::string::npos);

    const std::vector<Frame> frames = parseFrames(out);
    ASSERT_EQ(frames.size(), 5u) << out;
    EXPECT_EQ(frames[0].header, "pong");

    // Cold request: a miss, addressed by the pinned hash.
    EXPECT_EQ(frames[1].header.rfind("ok id=1 ", 0), 0u)
        << frames[1].header;
    EXPECT_EQ(field(frames[1].header, "hash"), kQuick42Hash);
    EXPECT_EQ(field(frames[1].header, "hit"), "0");
    ASSERT_FALSE(frames[1].payload.empty());
    EXPECT_EQ(frames[1].payload.rfind("workload,", 0), 0u);
    // The byte count frames the payload exactly: the next header
    // parsed cleanly, and the payload ends on a line boundary.
    EXPECT_EQ(frames[1].payload.back(), '\n');

    // Same request again: a hit serving the identical bytes.
    EXPECT_EQ(frames[2].header.rfind("ok id=2 ", 0), 0u)
        << frames[2].header;
    EXPECT_EQ(field(frames[2].header, "hit"), "1");
    EXPECT_EQ(frames[2].payload, frames[1].payload);

    EXPECT_EQ(frames[3].header,
              "stats requests=2 hits=1 misses=1 errors=0 bypassed=0"
              " shed=0"
              " ckpt_hits=0 ckpt_misses=0 ckpt_writes=0"
              " ckpt_fallbacks=0 ckpt_bytes_read=0"
              " ckpt_bytes_written=0"
              " store_publishes=1 store_publish_skipped=0"
              " store_evicted=0 store_evicted_bytes=0"
              " store_downs=0 store_heals=0"
              " store_lease_acquires=1 store_lease_waits=0"
              " store_lease_takeovers=0"
              " capture_hits=0 capture_misses=0 capture_writes=0"
              " capture_fallbacks=0 sample_total_ops=0"
              " sample_detail_ops=0 fault_retries=0 fault_retried_ok=0"
              " fault_timeouts=0 fault_quarantined=0");
    EXPECT_EQ(frames[4].header, "bye");

    // A fresh daemon process answers warm from the on-disk store.
    const std::string warm = capture(serveCmd(
        "characterize scale=quick seed=42\\nquit\\n", "",
        "--serve-cache " + cache));
    const std::vector<Frame> warmFrames = parseFrames(warm);
    ASSERT_EQ(warmFrames.size(), 2u) << warm;
    EXPECT_EQ(field(warmFrames[0].header, "hit"), "1");
    EXPECT_EQ(warmFrames[0].payload, frames[1].payload);

    wipeCache(cache, kQuick42Hash);
}

TEST(ServeCli, MalformedRequestsAreErrLinesAndTheDaemonSurvives)
{
    const std::string cache =
        ::testing::TempDir() + "bds_serve_cli_err_cache";
    const std::string out = capture(serveCmd(
        "reticulate\\ncharacterize scale=galactic\\n"
        "characterize seed=nine\\nping\\nquit\\n",
        "", "--serve-cache " + cache));

    const std::vector<Frame> frames = parseFrames(out);
    ASSERT_EQ(frames.size(), 5u) << out;
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(frames[i].header.rfind("err id=", 0), 0u)
            << frames[i].header;
        EXPECT_EQ(field(frames[i].header, "code"), "invalid_config")
            << frames[i].header;
    }
    // The daemon is still alive and answers after every error.
    EXPECT_EQ(frames[3].header, "pong");
    EXPECT_EQ(frames[4].header, "bye");

    wipeCache(cache, "");
}

TEST(ServeCli, InjectedFaultIsQuarantinedAndTheDaemonKeepsServing)
{
    const std::string cache =
        ::testing::TempDir() + "bds_serve_cli_fault_cache";
    const std::string out = capture(serveCmd(
        "characterize scale=quick seed=7\\nping\\nquit\\n",
        "BDS_FAULT_THROW=H-Sort BDS_FAIL_POLICY=quarantine",
        "--serve-cache " + cache));

    const std::vector<Frame> frames = parseFrames(out);
    ASSERT_EQ(frames.size(), 3u) << out;
    EXPECT_EQ(frames[0].header.rfind("ok id=0 ", 0), 0u)
        << frames[0].header;
    EXPECT_EQ(field(frames[0].header, "quarantined"), "H-Sort");
    // The quarantined row is absent, survivors are served...
    EXPECT_EQ(frames[0].payload.find("H-Sort,"), std::string::npos);
    EXPECT_NE(frames[0].payload.find("H-WordCount,"),
              std::string::npos);
    // ...and the daemon answers the next request.
    EXPECT_EQ(frames[1].header, "pong");
    EXPECT_EQ(frames[2].header, "bye");

    // Quarantined sweeps are served but never cached: the store
    // directory holds no entry to clean up.
    wipeCache(cache, "");
}

TEST(ServeCli, CheckpointTrafficTravelsTheStatsVerb)
{
    const std::string cache =
        ::testing::TempDir() + "bds_serve_cli_ckpt_cache";
    const std::string ckpt =
        ::testing::TempDir() + "bds_serve_cli_ckpt_dir";
    // A stale checkpoint dir would make the first request warm and
    // the miss assertions vacuous.
    std::system(("rm -rf '" + ckpt + "'").c_str());

    // Two identical sampled requests with the result store bypassed:
    // both replay, the first writing interval checkpoints (misses),
    // the second restoring them (hits).
    const std::string out = capture(serveCmd(
        "characterize scale=quick seed=42 sampled=1 bypass=1\\n"
        "characterize scale=quick seed=42 sampled=1 bypass=1\\n"
        "stats\\nquit\\n",
        "", "--serve-cache " + cache + " --ckpt --ckpt-dir " + ckpt));

    const std::vector<Frame> frames = parseFrames(out);
    ASSERT_EQ(frames.size(), 4u) << out;
    EXPECT_EQ(frames[0].header.rfind("ok id=0 ", 0), 0u)
        << frames[0].header;
    EXPECT_EQ(frames[1].header.rfind("ok id=1 ", 0), 0u)
        << frames[1].header;
    // The restore-identity contract across the process boundary: the
    // restored replay serves byte-identical CSV.
    EXPECT_EQ(frames[1].payload, frames[0].payload);

    const std::string &stats = frames[2].header;
    EXPECT_EQ(stats.rfind("stats ", 0), 0u) << stats;
    EXPECT_GT(std::atol(field(stats, "ckpt_misses").c_str()), 0)
        << stats;
    EXPECT_GT(std::atol(field(stats, "ckpt_writes").c_str()), 0)
        << stats;
    EXPECT_GT(std::atol(field(stats, "ckpt_hits").c_str()), 0)
        << stats;
    EXPECT_GT(std::atol(field(stats, "ckpt_bytes_read").c_str()), 0)
        << stats;
    EXPECT_GT(std::atol(field(stats, "ckpt_bytes_written").c_str()),
              0)
        << stats;
    EXPECT_EQ(std::atol(field(stats, "ckpt_fallbacks").c_str()), 0)
        << stats;
    // The capture records: the first request records all 32
    // workloads, the second restores them (CI's warm capture.hits:32
    // gate, seen from the daemon).
    EXPECT_EQ(field(stats, "capture_misses"), "32") << stats;
    EXPECT_EQ(field(stats, "capture_writes"), "32") << stats;
    EXPECT_EQ(field(stats, "capture_hits"), "32") << stats;
    EXPECT_EQ(field(stats, "capture_fallbacks"), "0") << stats;
    EXPECT_EQ(frames[3].header, "bye");

    std::system(("rm -rf '" + ckpt + "'").c_str());
    wipeCache(cache, "");
}

TEST(ServeCli, StatsVerbAndStatsJsonCarryEveryCounter)
{
    const std::string cache =
        ::testing::TempDir() + "bds_serve_cli_parity_cache";
    const std::string ckpt =
        ::testing::TempDir() + "bds_serve_cli_parity_ckpt";
    const std::string json =
        ::testing::TempDir() + "bds_serve_cli_parity.json";
    std::system(("rm -rf '" + cache + "' '" + ckpt + "'").c_str());

    // A sampled, checkpointed cold request moves the serve, store,
    // ckpt, capture and sample groups at once.
    const std::string out = capture(serveCmd(
        "characterize scale=quick seed=42 sampled=1\\nstats\\nquit\\n",
        "",
        "--serve-cache " + cache + " --ckpt --ckpt-dir " + ckpt
            + " --stats-json " + json));
    const std::vector<Frame> frames = parseFrames(out);
    ASSERT_EQ(frames.size(), 3u) << out;
    const std::string &stats = frames[1].header;
    ASSERT_EQ(stats.rfind("stats ", 0), 0u) << stats;

    std::map<std::string, std::string> line;
    std::istringstream tokens(stats.substr(6));
    for (std::string tok; tokens >> tok;) {
        const std::size_t eq = tok.find('=');
        ASSERT_NE(eq, std::string::npos) << tok;
        line[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    EXPECT_EQ(line.size(), kNumCounters) << stats;

    std::ifstream in(json);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue doc = parseJson(text.str());
    std::size_t leaves = 0;
    for (const auto &[name, v] : doc.asObject())
        leaves += v.isObject() ? v.asObject().size() : 1;
    EXPECT_EQ(leaves, kNumCounters) << text.str();

    for (const CounterDef &c : kCounters) {
        const auto [group, key] = counters::jsonField(c);
        const JsonValue &node = group.empty()
            ? doc.at(std::string(key))
            : doc.at(std::string(group)).at(std::string(key));
        EXPECT_EQ(std::to_string(node.asUint()), line[c.statsKey])
            << c.traceName;
    }
    EXPECT_EQ(line["misses"], "1");
    EXPECT_EQ(line["capture_writes"], "32");
    EXPECT_NE(line["sample_total_ops"], "0");

    std::system(
        ("rm -rf '" + cache + "' '" + ckpt + "' '" + json + "'").c_str());
}

/** Connect to a Unix socket with a read timeout; -1 on failure. */
int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr))
        != 0) {
        ::close(fd);
        return -1;
    }
    timeval tv{30, 0}; // a hung daemon fails the test, not CI
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

/** Read from `fd` until the buffer ends in '\n' (or read fails). */
std::string
readReply(int fd)
{
    std::string out;
    char buf[256];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
        out.append(buf, static_cast<std::size_t>(n));
        if (out.back() == '\n')
            break;
    }
    return out;
}

TEST(ServeCli, SocketClientDisconnectNeverKillsTheDaemon)
{
    const std::string sock =
        ::testing::TempDir() + "bds_serve_cli.sock";
    const std::string cache =
        ::testing::TempDir() + "bds_serve_cli_sock_cache";
    wipeCache(cache, kQuick42Hash);
    std::remove(sock.c_str());

    // Daemon in a child process, on a Unix socket, environment
    // scrubbed the same way serveCmd() scrubs the stdin mode.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const std::string cmd =
            "exec env -u BDS_TRACE_FILE -u BDS_METRICS -u BDS_SAMPLE "
            "-u BDS_FAULT_THROW -u BDS_FAULT_STALL "
            "-u BDS_FAULT_CORRUPT -u BDS_FAULT_ALLOC "
            "-u BDS_FAIL_POLICY -u BDS_SERVE_MAX_INFLIGHT "
            "-u BDS_SERVE_BYPASS -u BDS_SERVE_LOG "
            "BDS_SCALE=quick BDS_SEED=42 BDS_THREADS=0 "
            "BDS_TRACE=0 BDS_MANIFEST=0 "
            + std::string(BDS_SERVE_BIN) + " --serve-socket " + sock
            + " --serve-cache " + cache + " 2>/dev/null";
        ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }

    // Client A connects and stays silent for the whole test: with
    // the old per-thread join, its parked read hung daemon shutdown.
    int a = -1;
    for (int i = 0; i < 200 && a < 0; ++i) {
        ::usleep(50 * 1000);
        a = connectUnix(sock);
    }
    ASSERT_GE(a, 0) << "daemon never bound " << sock;

    // Client B requests a sweep and vanishes without reading the
    // response: the daemon's reply hits a closed socket. With plain
    // ::write this raised SIGPIPE (daemon death) or took the shared
    // shutdown path (daemon quit).
    const int b = connectUnix(sock);
    ASSERT_GE(b, 0);
    const char *req = "characterize scale=quick seed=42\n";
    ASSERT_EQ(::write(b, req, std::strlen(req)),
              static_cast<ssize_t>(std::strlen(req)));
    ::close(b);

    // The daemon is unimpressed: a fresh client is served normally.
    const int c = connectUnix(sock);
    ASSERT_GE(c, 0);
    ASSERT_EQ(::write(c, "ping\n", 5), 5);
    EXPECT_EQ(readReply(c), "pong\n");

    // quit shuts the daemon down promptly even though silent client
    // A never spoke — its parked read is unblocked by the roster.
    ASSERT_EQ(::write(c, "quit\n", 5), 5);
    EXPECT_EQ(readReply(c), "bye\n");
    ::close(c);

    // Shutdown has to wait out B's orphaned sweep, which can take
    // tens of seconds on a box saturated by a parallel test run —
    // budget generously, the happy path exits in milliseconds.
    bool exited = false;
    int status = 0;
    for (int i = 0; i < 1200 && !exited; ++i) {
        if (::waitpid(pid, &status, WNOHANG) == pid)
            exited = true;
        else
            ::usleep(50 * 1000);
    }
    if (!exited) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
    }
    EXPECT_TRUE(exited) << "daemon hung on shutdown";
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "daemon exit status " << status;
    // A sees EOF from the shutdown, not a live socket.
    EXPECT_EQ(readReply(a), "");
    ::close(a);

    wipeCache(cache, kQuick42Hash);
    std::remove(sock.c_str());
}

TEST(ServeCli, HelpGoesToStdout)
{
    const std::string out =
        capture(std::string(BDS_SERVE_BIN) + " --help 2>/dev/null");
    EXPECT_NE(out.find("usage: bds_serve"), std::string::npos);
    EXPECT_NE(out.find("--serve-cache"), std::string::npos);
}

} // namespace
} // namespace bds
