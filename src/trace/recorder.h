/**
 * @file
 * Trace recording and replay.
 *
 * The paper's deliverable is a "simulator version" of the selected
 * workloads: capture once, then drive architecture studies from the
 * trace. TraceRecorder captures a micro-op stream (optionally teeing
 * it into a live SystemModel) and replays it into any OpSink — e.g.,
 * fresh SystemModels with different cache geometries. Replay into an
 * identically configured model reproduces the original counters
 * exactly, because the whole simulator is a deterministic function
 * of the op stream.
 */

#ifndef BDS_TRACE_RECORDER_H
#define BDS_TRACE_RECORDER_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/microop.h"

namespace bds {

/** Records an op stream; optionally forwards it to a live sink. */
class TraceRecorder : public OpSink
{
  public:
    /**
     * @param tee Optional downstream sink every op is forwarded to
     *        (typically the live SystemModel).
     */
    explicit TraceRecorder(OpSink *tee = nullptr) : tee_(tee) {}

    void consume(unsigned core, const MicroOp &op) override;

    /**
     * Record a device DMA fill (SystemModel::dmaFill). DMA events
     * are part of the trace: without them a replay would see warm
     * caches where the original run saw device-invalidated lines.
     */
    void recordDma(std::uint64_t addr, std::uint64_t bytes);

    /** Number of recorded events (micro-ops + DMA fills). */
    std::size_t size() const { return entries_.size(); }

    /** Drop all recorded ops. */
    void clear() { entries_.clear(); }

    /**
     * Replay the recorded stream into a sink.
     * @param sink Consumer for the micro-ops.
     * @param dma Callback for DMA events (address, bytes); pass the
     *        target SystemModel's dmaFill for faithful replay. DMA
     *        events are skipped when empty.
     */
    void replay(OpSink &sink,
                const std::function<void(std::uint64_t, std::uint64_t)>
                    &dma = {}) const;

    /**
     * The recorded events in the slice encoding checkpoint entries
     * carry (docs/CHECKPOINT.md, "The slice encoding"). Each event is
     * one byte — bits 0-2 the op class (6 marks a DMA fill), bit 3
     * kernel mode, bit 4 taken, bit 5 newInstruction, bit 6
     * dependsOnPrevLoad, bit 7 set when a varint `core << 1 | a`
     * follows (the core changed, or `a`: a non-memory op carries a
     * nonzero addr) — then zigzag-varint deltas against the same
     * core's previous event: `ip` always, `addr` for loads, stores
     * and (when `a`) other ops. A DMA fill is the byte 6 and deltas
     * of its address and size against the previous fill.
     */
    std::string encode() const;

    /**
     * Feed encode() bytes to `sink` (and DMA fills to `dma`, when
     * set) as they decode, without materializing them; returns the
     * number of events. Only the canonical encoding is accepted: an
     * event naming a core >= `numCores`, class 7, undefined bits on a
     * DMA fill, a redundant core escape, or a varint that is
     * truncated, overlong or over 64 bits is an Error(Io) naming
     * `what`. The events before a bad one have reached the sink.
     */
    static std::size_t
    replayEncoded(std::string_view bytes, unsigned numCores,
                  const std::string &what, OpSink &sink,
                  const std::function<void(std::uint64_t, std::uint64_t)>
                      &dma);

    /** replayEncoded() into a new recorder. */
    static TraceRecorder decode(std::string_view bytes,
                                unsigned numCores,
                                const std::string &what);

  private:
    /** One packed trace entry. */
    struct Entry
    {
        std::uint64_t ip;
        std::uint64_t addr;
        std::uint8_t core;
        std::uint8_t cls;
        std::uint8_t mode;
        std::uint8_t flags; // bit0 taken, bit1 newInstruction,
                            // bit2 dependsOnPrevLoad, bit3 DMA event
                            // (then ip = address, addr = byte count)
    };

    OpSink *tee_;
    std::vector<Entry> entries_;
};

} // namespace bds

#endif // BDS_TRACE_RECORDER_H
