/**
 * @file
 * Transport framing tests: the bytes a client reads for each kind of
 * response, pinned to an ostream-built oracle of the framing, and the
 * line protocol end to end through serveStream() on verbs that
 * compute nothing.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "fault/error.h"
#include "serve/server.h"

namespace bds {
namespace {

/** The framing of one response, built with an ostream: the oracle. */
std::string
streamFraming(std::uint64_t id, const ServeResponse &resp)
{
    std::ostringstream out;
    if (resp.ok) {
        out << "ok id=" << id << " hash=" << resp.hashHex
            << " hit=" << (resp.hit ? 1 : 0)
            << " bytes=" << resp.payload.size();
        if (!resp.quarantined.empty()) {
            out << " quarantined=";
            for (std::size_t i = 0; i < resp.quarantined.size(); ++i)
                out << (i ? "," : "") << resp.quarantined[i];
        }
        out << '\n' << resp.payload;
    } else {
        out << "err id=" << id << " code=" << errorCodeName(resp.code)
            << " msg=" << resp.message << '\n';
    }
    return out.str();
}

ServeResponse
okResponse()
{
    ServeResponse resp;
    resp.ok = true;
    resp.hit = true;
    resp.hashHex = "0123456789abcdef";
    resp.payload = "workload,LOAD\nH-Sort,0.375196\nS-Grep,0.179149\n";
    return resp;
}

TEST(ServeFraming, OkResponseMatchesTheStreamFraming)
{
    ServeResponse resp = okResponse();
    std::string out;
    appendResponse(out, 7, resp);
    EXPECT_EQ(out, streamFraming(7, resp));
    EXPECT_EQ(out, "ok id=7 hash=0123456789abcdef hit=1 bytes=46\n"
                       + resp.payload);

    resp.hit = false;
    resp.payload.assign(14000, 'x'); // a full-width payload's size
    out.clear();
    appendResponse(out, 18446744073709551615ULL, resp);
    EXPECT_EQ(out, streamFraming(18446744073709551615ULL, resp));
}

TEST(ServeFraming, QuarantinedResponseMatchesTheStreamFraming)
{
    ServeResponse resp = okResponse();
    resp.hit = false;
    resp.quarantined = {"H-Sort"};
    std::string out;
    appendResponse(out, 3, resp);
    EXPECT_EQ(out, streamFraming(3, resp));

    resp.quarantined = {"H-Sort", "S-Grep", "I-Join"};
    out.clear();
    appendResponse(out, 4, resp);
    EXPECT_EQ(out, streamFraming(4, resp));
    EXPECT_NE(out.find(" quarantined=H-Sort,S-Grep,I-Join\n"),
              std::string::npos)
        << out;
}

TEST(ServeFraming, ErrorResponseMatchesTheStreamFraming)
{
    ServeResponse resp;
    resp.code = ErrorCode::Overloaded;
    resp.message = "compute queue full (2 running, 4 queued)";
    std::string out;
    appendResponse(out, 0, resp);
    EXPECT_EQ(out, streamFraming(0, resp));
    EXPECT_EQ(out, "err id=0 code=overloaded msg=" + resp.message + "\n");
}

TEST(ServeFraming, StreamProtocolFramesEveryVerb)
{
    RunConfig cfg;
    cfg.tool = "test_server";
    cfg.manifest = false;
    cfg.serve.enabled = true;
    cfg.serve.storeDir = ::testing::TempDir() + "bds_server_framing";
    ServeServer server(cfg);

    std::istringstream in("ping\n\n  ping  \r\nbogus request\nquit\nping\n");
    std::ostringstream out;
    server.serveStream(in, out);
    const std::string got = out.str();
    // Blank lines answer nothing but still take a request id; quit
    // ends the stream, so the last ping is never read.
    const std::string head = "pong\npong\nerr id=3 code=";
    ASSERT_EQ(got.rfind(head, 0), 0u) << got;
    const std::size_t nl = got.find('\n', head.size());
    ASSERT_NE(nl, std::string::npos) << got;
    EXPECT_EQ(got.substr(nl + 1), "bye\n");
}

} // namespace
} // namespace bds
