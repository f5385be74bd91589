#include "uarch/branch.h"

#include "common/log.h"
#include "fault/error.h"

namespace bds {

GshareBranchPredictor::GshareBranchPredictor(unsigned history_bits)
{
    if (history_bits == 0 || history_bits > 24)
        BDS_FATAL("gshare history bits must be in [1, 24]");
    mask_ = (1u << history_bits) - 1;
    table_.assign(1u << history_bits, 2); // weakly taken
}

void
GshareBranchPredictor::saveState(StateSink &sink) const
{
    sink.section("BPRD");
    sink.u64(table_.size());
    sink.u32(history_);
    // Dense: 2-bit counters pack poorly as sparse records and the
    // whole table is at most 2^24 bytes.
    RecordWriter rec = sink.records(table_.size(), 1);
    for (std::uint8_t ctr : table_)
        rec.u8(ctr);
}

void
GshareBranchPredictor::loadState(StateSource &src)
{
    src.section("BPRD");
    src.check("gshare.table_size", table_.size());
    history_ = src.u32() & mask_;
    RecordReader rec = src.records(table_.size(), 1, "gshare counter");
    for (std::uint8_t &ctr : table_) {
        std::uint8_t v = rec.u8();
        if (v > 3)
            BDS_RAISE(ErrorCode::Io,
                      "gshare state holds counter value "
                          << unsigned(v)
                          << " outside [0, 3] (corrupt payload)");
        ctr = v;
    }
}

} // namespace bds
