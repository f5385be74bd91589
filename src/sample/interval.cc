#include "sample/interval.h"

#include "common/log.h"

namespace bds {

namespace {

/** SplitMix64-style avalanche of a branch IP into a BBV bucket. */
std::uint64_t
hashIp(std::uint64_t ip)
{
    std::uint64_t h = ip + 0x9E3779B97F4A7C15ULL;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
}

} // namespace

IntervalProfiler::IntervalProfiler(std::uint64_t interval_uops,
                                   std::size_t bbv_dims)
    : intervalUops_(interval_uops), bbvDims_(bbv_dims),
      bbv_(bbv_dims, 0.0), classMix_(6, 0.0), modeMix_(2, 0.0)
{
    if (intervalUops_ == 0)
        BDS_FATAL("interval size must be at least one uop");
    if (bbvDims_ == 0)
        BDS_FATAL("BBV needs at least one bucket");
}

void
IntervalProfiler::consume(unsigned core, const MicroOp &op)
{
    if (core >= sinceBranch_.size())
        sinceBranch_.resize(core + 1, 0);

    ++classMix_[static_cast<std::size_t>(op.cls)];
    ++modeMix_[static_cast<std::size_t>(op.mode)];
    if (op.newInstruction)
        ++instructions_;

    // Branch-based basic-block vector: a branch at `ip` closes the
    // basic block its core was executing, so credit the block's
    // instruction count to the branch's hash bucket.
    if (op.cls == OpClass::Branch) {
        std::size_t bucket =
            static_cast<std::size_t>(hashIp(op.ip) % bbvDims_);
        bbv_[bucket] +=
            static_cast<double>(sinceBranch_[core] + 1);
        sinceBranch_[core] = 0;
    } else if (op.newInstruction) {
        ++sinceBranch_[core];
    }

    ++opCount_;
    ++streamPos_;
    if (opCount_ >= intervalUops_)
        closeInterval();
}

void
IntervalProfiler::finish()
{
    if (opCount_ > 0)
        closeInterval();
}

void
IntervalProfiler::closeInterval()
{
    IntervalRecord rec;
    rec.firstOp = streamPos_ - opCount_;
    rec.opCount = opCount_;
    rec.instructions = instructions_;
    intervals_.push_back(rec);

    // Per-uop rates: interval length divides out, so a short trailing
    // interval is comparable with the full-size ones.
    double inv = 1.0 / static_cast<double>(opCount_);
    std::vector<double> row;
    row.reserve(bbvDims_ + classMix_.size() + modeMix_.size());
    for (double v : bbv_)
        row.push_back(v * inv);
    for (double v : classMix_)
        row.push_back(v * inv);
    for (double v : modeMix_)
        row.push_back(v * inv);
    features_.push_back(std::move(row));

    opCount_ = 0;
    instructions_ = 0;
    bbv_.assign(bbvDims_, 0.0);
    classMix_.assign(6, 0.0);
    modeMix_.assign(2, 0.0);
    sinceBranch_.assign(sinceBranch_.size(), 0);
}

void
ProfilingTarget::consume(unsigned core, const MicroOp &op)
{
    profiler_.consume(core, op);
}

Matrix
IntervalProfiler::featureMatrix() const
{
    std::size_t dims = bbvDims_ + 6 + 2;
    Matrix m(features_.size(), dims);
    for (std::size_t i = 0; i < features_.size(); ++i)
        for (std::size_t j = 0; j < dims; ++j)
            m(i, j) = features_[i][j];
    return m;
}

} // namespace bds
