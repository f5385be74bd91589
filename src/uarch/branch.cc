#include "uarch/branch.h"

#include <algorithm>

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
    // Dense, four 2-bit counters per byte, the first in the low bits.
    RecordWriter rec = sink.records((table_.size() + 3) / 4, 1);
    for (std::size_t i = 0; i < table_.size(); i += 4) {
        unsigned packed = 0;
        for (std::size_t k = 0; k < 4 && i + k < table_.size(); ++k)
            packed |= unsigned(table_[i + k]) << (2 * k);
        rec.u8(static_cast<std::uint8_t>(packed));
    }
}

void
GshareBranchPredictor::loadState(StateSource &src)
{
    src.section("BPRD");
    src.check("gshare.table_size", table_.size());
    history_ = src.u32() & mask_;
    RecordReader rec =
        src.records((table_.size() + 3) / 4, 1, "gshare counters");
    for (std::size_t i = 0; i < table_.size(); i += 4) {
        const unsigned packed = rec.u8();
        const std::size_t n = std::min<std::size_t>(4, table_.size() - i);
        if (n < 4 && packed >> (2 * n) != 0)
            src.fail("gshare state sets bits past the last counter");
        for (std::size_t k = 0; k < n; ++k)
            table_[i + k] = static_cast<std::uint8_t>(packed >> (2 * k) & 3);
    }
}

} // namespace bds
