/**
 * @file
 * Deterministic fixed-bucket histograms for the telemetry layer.
 *
 * Distributions in the simulator (load-to-use delay, replay distance,
 * window occupancy, predictor confidence) span several orders of
 * magnitude, so the histogram uses fixed log2 buckets: bucket 0 holds
 * the value 0 and bucket k (k >= 1) holds [2^(k-1), 2^k). All
 * bookkeeping — per-bucket counts and the exact min/max/sum — is
 * plain unsigned 64-bit arithmetic, which makes two properties fall
 * out for free:
 *
 *  - merge() is an exact element-wise add, so merging per-cell
 *    histograms in slot (cell-id) order produces bit-identical
 *    aggregates for any parallelFor() worker count (the determinism
 *    contract, docs/PARALLELISM.md);
 *  - the JSON export round-trips exactly (json::Value stores 64-bit
 *    integers natively; nothing is squeezed through a double).
 *
 * Sums may wrap modulo 2^64 on astronomically long runs; wrapping is
 * itself deterministic so merges and comparisons stay exact.
 */

#ifndef LRS_COMMON_HISTOGRAM_HH
#define LRS_COMMON_HISTOGRAM_HH

#include <array>
#include <bit>
#include <cstdint>

#include "common/json.hh"

namespace lrs
{

/** A mergeable log2-bucketed histogram over unsigned 64-bit samples. */
class Log2Histogram
{
  public:
    /** Bucket 0 = {0}; bucket k = [2^(k-1), 2^k) for k in 1..64. */
    static constexpr std::size_t kBuckets = 65;

    /** Bucket index for @p v (== bit width of v). */
    static constexpr std::size_t
    bucketOf(std::uint64_t v)
    {
        return static_cast<std::size_t>(std::bit_width(v));
    }

    /** Inclusive lower bound of bucket @p b (0, 1, 2, 4, 8, ...). */
    static constexpr std::uint64_t
    bucketLow(std::size_t b)
    {
        return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    }

    void
    record(std::uint64_t v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        ++count_;
        sum_ += v;
        ++buckets_[bucketOf(v)];
    }

    /**
     * Record @p n identical samples of value @p v in O(1). Exactly
     * equivalent (including modulo-2^64 sum wrapping) to calling
     * record(v) @p n times — the bulk-accounting primitive the core's
     * idle-cycle skip-ahead relies on (docs/PERFORMANCE.md).
     */
    void
    record(std::uint64_t v, std::uint64_t n)
    {
        if (n == 0)
            return;
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        count_ += n;
        sum_ += v * n;
        buckets_[bucketOf(v)] += n;
    }

    /** Element-wise exact add of @p other into this histogram. */
    void merge(const Log2Histogram &other);

    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    /** Exact extrema; both 0 while the histogram is empty. */
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    std::uint64_t bucket(std::size_t b) const { return buckets_.at(b); }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Export as {"count","sum","min","max","buckets":[...]} with the
     * bucket array trimmed after the last non-zero bucket (an empty
     * histogram exports an empty array). All fields are exact.
     */
    json::Value toJson() const;

    /** Rebuild from a toJson() document (throws on malformed input). */
    static Log2Histogram fromJson(const json::Value &v);

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::array<std::uint64_t, kBuckets> buckets_{};
};

} // namespace lrs

#endif // LRS_COMMON_HISTOGRAM_HH
