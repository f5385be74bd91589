/**
 * @file
 * bds_serve: the characterization-as-a-service daemon.
 *
 * Modes (docs/SERVING.md has the runbook):
 *
 *   bds_serve                      line protocol on stdin/stdout
 *   bds_serve --serve-socket P     line protocol on Unix socket P
 *   bds_serve --replay LOG         serve a binary request log, exit
 *
 * Extra flags on top of the common RunConfig set
 * (src/obs/runconfig.h; the BDS_SERVE_* environment configures the
 * same serve knobs, flags win):
 *
 *   --replay LOG        replay a binary request log, then exit
 *   --payload-dir DIR   mirror every response payload to DIR/<i>.csv
 *   --stats-json FILE   write the final counter snapshot as JSON
 *
 * All protocol traffic goes to stdout; diagnostics and the shutdown
 * stats line go to stderr, so piping responses stays clean.
 */

#include <csignal>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/runconfig.h"
#include "obs/session.h"
#include "serve/server.h"

namespace {

void
printUsage(std::ostream &os)
{
    os << "usage: bds_serve [options]\n\n"
          "Characterization-as-a-service daemon with a content-\n"
          "addressed result store (docs/SERVING.md).\n\n"
          "modes:\n"
          "  (default)                 line protocol on stdin/stdout\n"
          "  --serve-socket PATH       line protocol on a Unix socket\n"
          "  --replay LOG              replay a binary request log, "
          "exit\n\n"
          "serve options (flags win over BDS_SERVE_*):\n"
          "  --serve-cache DIR         result-store directory\n"
          "  --serve-max-inflight N    concurrent sweep bound (0 = "
          "cores)\n"
          "  --serve-bypass            compute every request, skip "
          "the store\n"
          "  --serve-log FILE          append requests to a binary "
          "log\n"
          "  --payload-dir DIR         mirror payloads to DIR/<i>.csv\n"
          "  --stats-json FILE         final counters as JSON\n"
          "  --ckpt / --ckpt-dir DIR   interval checkpoint cache for\n"
          "                            sampled recomputes "
          "(docs/CHECKPOINT.md)\n\n"
          "plus the common BDS_* knobs: --scale/--seed/--threads/\n"
          "--machine/--sampled/--trace/--manifest... "
          "(src/obs/runconfig.h).\n";
}

/**
 * Every registry counter as JSON: the top-level (serve) counters
 * first, then one object per group, whose counters are contiguous.
 */
void
writeStatsJson(const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        BDS_FATAL("cannot write --stats-json file '" << path << "'");
    std::string_view open; // the group whose object is being written
    const char *sep = "\n";
    out << '{';
    bds::counters::forEach([&](const bds::CounterDef &c,
                               std::uint64_t v) {
        const auto [group, key] = bds::counters::jsonField(c);
        if (group != open) {
            out << (open.empty() ? "" : "\n  }") << sep << "  \""
                << group << "\": {";
            open = group;
            sep = "\n";
        }
        out << sep << (open.empty() ? "  \"" : "    \"") << key
            << "\": " << v;
        sep = ",\n";
    });
    out << (open.empty() ? "" : "\n  }") << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // A client (or stdout pipe) that vanishes mid-response must be a
    // write error for that request, never a SIGPIPE daemon death.
    std::signal(SIGPIPE, SIG_IGN);

    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &a : args)
        if (a == "--help" || a == "-h") {
            printUsage(std::cout);
            return 0;
        }

    try {
        bds::RunConfig cfg;
        cfg.tool = "bds_serve";
        cfg.scaleName = "quick";
        cfg.argv.assign(argv, argv + argc);
        cfg.applyEnv();
        std::vector<std::string> leftovers = cfg.applyArgs(args);
        cfg.serve.enabled = true;

        std::string replay_log, payload_dir, stats_json;
        for (auto it = leftovers.begin(); it != leftovers.end();) {
            auto take = [&](std::string *out) {
                if (it + 1 == leftovers.end())
                    BDS_FATAL(*it << " needs a value");
                it = leftovers.erase(it);
                *out = *it;
                it = leftovers.erase(it);
            };
            if (*it == "--replay")
                take(&replay_log);
            else if (*it == "--payload-dir")
                take(&payload_dir);
            else if (*it == "--stats-json")
                take(&stats_json);
            else
                BDS_FATAL("unknown bds_serve argument '" << *it
                          << "' (--help lists the options)");
        }

        bds::Session session(cfg);
        bds::ServeServer server(cfg, &session);
        if (!payload_dir.empty())
            server.setPayloadDir(payload_dir);

        if (!replay_log.empty()) {
            const bds::ReplaySummary sum = server.replayLog(replay_log);
            std::cerr << "bds_serve: replayed " << sum.requests
                      << " request(s) from " << replay_log << " in "
                      << sum.seconds << " s (" << sum.hits
                      << " hit(s), " << sum.errors << " error(s))\n";
        } else if (!cfg.serve.socketPath.empty()) {
            server.serveSocket(cfg.serve.socketPath);
        } else {
            server.serveStream(std::cin, std::cout);
        }

        using bds::Counter;
        using bds::counters::value;
        const std::uint64_t requests = value(Counter::ServeRequests);
        const std::uint64_t errors = value(Counter::ServeErrors);
        std::cerr << "bds_serve: requests=" << requests
                  << " hits=" << value(Counter::ServeHits)
                  << " misses=" << value(Counter::ServeMisses)
                  << " errors=" << errors
                  << " bypassed=" << value(Counter::ServeBypass)
                  << " shed=" << value(Counter::ServeShed) << '\n';
        if (!stats_json.empty())
            writeStatsJson(stats_json);
        session.noteArtifact(server.engine().store().dir());
        return errors == requests && requests > 0 ? 2 : 0;
    } catch (const bds::FatalError &e) {
        std::cerr << "bds_serve: " << e.what() << "\n";
        return 1;
    } catch (const bds::PanicError &e) {
        std::cerr << "bds_serve: internal error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "bds_serve: " << e.what() << "\n";
        return 1;
    }
}
