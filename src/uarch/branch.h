/**
 * @file
 * Gshare branch predictor.
 *
 * A global-history XOR-indexed table of 2-bit saturating counters.
 * Branch outcomes come from the workloads' real data-dependent
 * control flow, so prediction accuracy — and with it the paper's
 * BR MISS metric — is emergent.
 *
 * The table is always a power of two (2^history_bits counters), so
 * indexing is a stored mask; the predict-and-train path is inline.
 */

#ifndef BDS_UARCH_BRANCH_H
#define BDS_UARCH_BRANCH_H

#include <cstdint>
#include <vector>

#include "ckpt/state.h"

namespace bds {

/** Gshare predictor with configurable history length. */
class GshareBranchPredictor
{
  public:
    /**
     * @param history_bits Global-history length; the table holds
     *        2^history_bits 2-bit counters.
     */
    explicit GshareBranchPredictor(unsigned history_bits = 12);

    /**
     * Predict-and-train on one branch.
     * @param ip Branch instruction address.
     * @param taken Actual outcome.
     * @return True when the prediction was correct.
     */
    bool predictAndTrain(std::uint64_t ip, bool taken)
    {
        std::uint32_t idx =
            (static_cast<std::uint32_t>(ip >> 2) ^ history_) & mask_;
        std::uint8_t &ctr = table_[idx];
        bool prediction = ctr >= 2;
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        history_ = ((history_ << 1) | (taken ? 1u : 0u)) & mask_;
        return prediction == taken;
    }

    /**
     * Serialize the global history and the full counter table, four
     * 2-bit counters to a byte.
     */
    void saveState(StateSink &sink) const;

    /** Restore a saveState() payload; Error(Io) on any mismatch. */
    void loadState(StateSource &src);

  private:
    std::uint32_t mask_;    ///< table size - 1
    std::uint32_t history_ = 0;
    std::vector<std::uint8_t> table_;
};

} // namespace bds

#endif // BDS_UARCH_BRANCH_H
