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
     * The recorded events, kEventBytes each, little-endian: ip and
     * addr as u64, then the core, op-class, mode and flag bytes.
     * Checkpoint entries carry a representative's detail slice in
     * them.
     */
    std::string encode() const;

    /**
     * Decode encode() bytes. The byte count must be a multiple of
     * kEventBytes, checked before anything is allocated; an event
     * naming a core >= `numCores`, an unknown op class or mode, or
     * undefined flag bits is an Error(Io) naming `what`.
     */
    static TraceRecorder decode(std::string_view bytes,
                                unsigned numCores,
                                const std::string &what);

    /** Bytes one event occupies in encode()'s layout. */
    static constexpr std::size_t kEventBytes = 20;

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
