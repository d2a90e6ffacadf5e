/**
 * @file
 * Tests of the deterministic telemetry histograms
 * (common/histogram.hh): log2 bucket boundaries, exact extrema/sums,
 * merge exactness (including above 2^53, where a double would lose
 * bits), JSON round-tripping, registry integration, and the headline
 * guarantee — a sweep grid's merged histograms are byte-identical for
 * any worker count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/stats_registry.hh"
#include "core/supervisor.hh"
#include "trace/library.hh"

namespace lrs
{
namespace
{

TEST(Histogram, BucketBoundaries)
{
    // Bucket 0 holds only 0; bucket k holds [2^(k-1), 2^k).
    EXPECT_EQ(Log2Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Log2Histogram::bucketOf(7), 3u);
    EXPECT_EQ(Log2Histogram::bucketOf(8), 4u);
    for (unsigned k = 1; k < 64; ++k) {
        const std::uint64_t lo = std::uint64_t{1} << (k - 1);
        EXPECT_EQ(Log2Histogram::bucketOf(lo), k) << "k=" << k;
        EXPECT_EQ(Log2Histogram::bucketOf(2 * lo - 1), k) << "k=" << k;
        EXPECT_EQ(Log2Histogram::bucketLow(k), lo) << "k=" << k;
    }
    EXPECT_EQ(Log2Histogram::bucketOf(~std::uint64_t{0}), 64u);
    EXPECT_EQ(Log2Histogram::bucketLow(0), 0u);
}

TEST(Histogram, RecordTracksExactExtremaAndSum)
{
    Log2Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    h.record(5);
    h.record(0);
    h.record(1000);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 1005u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.bucket(Log2Histogram::bucketOf(5)), 1u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 335.0);
}

TEST(Histogram, BulkRecordEqualsRepeatedSingles)
{
    // record(v, n) is the skip-ahead's bulk accounting: it must be
    // indistinguishable (mod 2^64) from n single records, including
    // first-sample extrema initialisation and the zero-count no-op.
    Log2Histogram bulk;
    Log2Histogram singles;
    bulk.record(7, 0); // no-op: still empty
    EXPECT_EQ(bulk.toJson().dump(0), Log2Histogram().toJson().dump(0));

    const struct { std::uint64_t v, n; } plan[] = {
        {42, 3}, {0, 1}, {42, 1}, {1u << 20, 5}, {5, 1000}, {7, 0},
    };
    for (const auto &p : plan) {
        bulk.record(p.v, p.n);
        for (std::uint64_t i = 0; i < p.n; ++i)
            singles.record(p.v);
    }
    EXPECT_EQ(bulk.toJson().dump(0), singles.toJson().dump(0));
    EXPECT_EQ(bulk.count(), 1010u);
    EXPECT_EQ(bulk.min(), 0u);
    EXPECT_EQ(bulk.max(), std::uint64_t{1} << 20);

    // A bulk record on an empty histogram must seed min AND max from
    // the value even when the value is 0 (the "count_ == 0" branch).
    Log2Histogram zero;
    zero.record(0, 4);
    EXPECT_EQ(zero.min(), 0u);
    EXPECT_EQ(zero.max(), 0u);
    EXPECT_EQ(zero.count(), 4u);
}

TEST(Histogram, EmptyExport)
{
    const json::Value v = Log2Histogram{}.toJson();
    EXPECT_EQ(v.at("count").asU64(), 0u);
    EXPECT_EQ(v.at("sum").asU64(), 0u);
    EXPECT_EQ(v.at("min").asU64(), 0u);
    EXPECT_EQ(v.at("max").asU64(), 0u);
    EXPECT_EQ(v.at("buckets").size(), 0u);
    // And it parses back to an empty histogram.
    const Log2Histogram h = Log2Histogram::fromJson(v);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, MergeIsExactAdd)
{
    Log2Histogram a, b;
    a.record(3);
    a.record(100);
    b.record(0);
    b.record(7);
    b.record(1 << 20);
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_EQ(a.sum(), 3u + 100u + 0u + 7u + (1u << 20));
    EXPECT_EQ(a.min(), 0u);
    EXPECT_EQ(a.max(), std::uint64_t{1} << 20);
    // Merging an empty histogram changes nothing.
    const std::string before = a.toJson().dump();
    a.merge(Log2Histogram{});
    EXPECT_EQ(a.toJson().dump(), before);
    // Merging *into* an empty one copies exactly.
    Log2Histogram c;
    c.merge(a);
    EXPECT_EQ(c.toJson().dump(), a.toJson().dump());
}

TEST(Histogram, JsonRoundTripAbove2To53)
{
    // Values above 2^53 are not representable in a double; the JSON
    // path must keep them exact end to end (the satellite fix in
    // common/json.hh).
    const std::uint64_t big = (std::uint64_t{1} << 60) + 1;
    Log2Histogram h;
    h.record(big);
    h.record(big - 2);
    const std::string text = h.toJson().dump(2);
    const Log2Histogram back =
        Log2Histogram::fromJson(json::Value::parse(text));
    EXPECT_EQ(back.count(), 2u);
    EXPECT_EQ(back.sum(), 2 * big - 2);
    EXPECT_EQ(back.min(), big - 2);
    EXPECT_EQ(back.max(), big);
    EXPECT_EQ(back.toJson().dump(2), text);
}

TEST(Histogram, JsonNumberExactness)
{
    // The underlying json::Value must round-trip u64 exactly.
    const std::uint64_t v = 9007199254740993ull; // 2^53 + 1
    json::Value j(v);
    EXPECT_EQ(j.asU64(), v);
    EXPECT_EQ(json::Value::parse(j.dump()).asU64(), v);
}

TEST(Histogram, RegistryIntegration)
{
    StatsRegistry reg;
    Log2Histogram &h =
        reg.group("hist").log2hist("load_to_use");
    h.record(4);
    h.record(4);
    ASSERT_TRUE(reg.has("hist.load_to_use"));
    EXPECT_DOUBLE_EQ(reg.value("hist.load_to_use"), 2.0);
    const json::Value j = reg.toJson();
    EXPECT_EQ(
        j.at("hist").at("load_to_use").at("count").asU64(), 2u);
}

/**
 * Run a small (trace x scheme) grid with histogram collection on and
 * return the serialized cell-order merge of every per-cell histogram
 * — the exact aggregation lrs_sim --batch --histograms performs.
 */
std::string
gridHistograms(unsigned workers)
{
    std::vector<SimJob> jobs;
    std::vector<std::string> keys;
    for (const char *name : {"wd", "gcc"}) {
        for (const auto scheme :
             {OrderingScheme::Traditional, OrderingScheme::Perfect}) {
            SimJob j;
            j.trace = TraceLibrary::byName(name, 20000);
            j.cfg.scheme = scheme;
            j.cfg.cht.trackDistance = true;
            j.cfg.collectHistograms = true;
            jobs.push_back(std::move(j));
            keys.push_back(std::string(name) + "/" +
                           orderingSchemeName(scheme));
        }
    }
    SweepOptions so;
    so.workers = workers;
    SweepSupervisor sup(so);
    const std::vector<JobOutcome> outcomes = sup.run(jobs, keys);

    std::vector<std::string> order;
    std::map<std::string, Log2Histogram> merged;
    for (const JobOutcome &o : outcomes) {
        EXPECT_EQ(o.status, CellStatus::Ok) << o.error;
        const json::Value *h = o.resultJson.find("histograms");
        if (!h)
            continue;
        for (const auto &m : h->members()) {
            auto it = merged.find(m.first);
            if (it == merged.end()) {
                order.push_back(m.first);
                merged.emplace(m.first,
                               Log2Histogram::fromJson(m.second));
            } else {
                it->second.merge(Log2Histogram::fromJson(m.second));
            }
        }
    }
    json::Value doc = json::Value::object();
    for (const std::string &name : order)
        doc.set(name, merged.at(name).toJson());
    return doc.dump(2);
}

TEST(Histogram, GridMergeIdenticalForAnyWorkerCount)
{
    const std::string serial = gridHistograms(1);
    // The merge must actually have content, or the comparison below
    // proves nothing.
    EXPECT_NE(serial.find("load_to_use"), std::string::npos);
    EXPECT_NE(serial.find("occ_rob"), std::string::npos);
    EXPECT_EQ(gridHistograms(2), serial);
    EXPECT_EQ(gridHistograms(8), serial);
}

} // namespace
} // namespace lrs
