/**
 * @file
 * Tests for the JSON layer and the exports built on it: scalar dump
 * and parse, round-tripping SimResult (including interval series)
 * through the JSON parser, and the core's component counters, which
 * hold only what the result lacks.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/json.hh"
#include "core/runner.hh"
#include "trace/library.hh"

namespace lrs
{
namespace
{

TEST(JsonValue, ScalarDumpAndParse)
{
    json::Value obj = json::Value::object();
    obj.set("a", json::Value(true));
    obj.set("b", json::Value(3.5));
    obj.set("c", json::Value(std::uint64_t{12345678901234ULL}));
    obj.set("d", json::Value("he\"llo\n"));
    obj.set("e", json::Value(nullptr));

    const json::Value back = json::Value::parse(obj.dump());
    EXPECT_TRUE(back.at("a").asBool());
    EXPECT_DOUBLE_EQ(back.at("b").asDouble(), 3.5);
    EXPECT_DOUBLE_EQ(back.at("c").asDouble(), 12345678901234.0);
    EXPECT_EQ(back.at("d").asString(), "he\"llo\n");
    EXPECT_TRUE(back.at("e").isNull());
}

TEST(JsonValue, NanAndInfSerializeAsNull)
{
    json::Value arr = json::Value::array();
    arr.push(json::Value(std::nan("")));
    arr.push(json::Value(HUGE_VAL));
    const json::Value back = json::Value::parse(arr.dump());
    EXPECT_TRUE(back.at(0).isNull());
    EXPECT_TRUE(back.at(1).isNull());
}

TEST(JsonValue, ParseErrorsReportOffset)
{
    EXPECT_THROW(json::Value::parse("{\"a\":}"), json::ParseError);
    EXPECT_THROW(json::Value::parse("[1,2"), json::ParseError);
    EXPECT_THROW(json::Value::parse("tru"), json::ParseError);
    EXPECT_THROW(json::Value::parse("{} x"), json::ParseError);
}

TEST(SimResult, IpcIsNanBeforeAnyRun)
{
    SimResult r;
    EXPECT_TRUE(std::isnan(r.ipc()));
    SimResult other;
    other.cycles = 100;
    other.uops = 50;
    EXPECT_TRUE(std::isnan(other.speedupOver(r)));
    EXPECT_TRUE(std::isnan(r.speedupOver(other)));
}

/** Every SimResult counter must survive the JSON round trip, and a
 *  statsInterval'd run must produce at least four interval series. */
TEST(SimResult, JsonRoundTripWithIntervals)
{
    MachineConfig cfg;
    cfg.statsInterval = 1000;
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 20000));
    OooCore core(cfg);
    const SimResult r = core.run(*trace);
    ASSERT_GT(r.cycles, 0u);
    ASSERT_FALSE(r.intervals.empty());

    const json::Value doc = json::Value::parse(r.toJson().dump(2));
    EXPECT_EQ(doc.at("trace").asString(), r.trace);
    for (const SimResult::CounterSpec &c : SimResult::kCounters)
        EXPECT_EQ(doc.at(c.key).asU64(), r.*c.field) << c.key;
    EXPECT_DOUBLE_EQ(doc.at("derived").at("ipc").asDouble(), r.ipc());

    const json::Value &iv = doc.at("intervals");
    EXPECT_DOUBLE_EQ(iv.at("interval_cycles").asDouble(), 1000.0);
    // The acceptance bar: at least four parallel series, all the same
    // length as the sample vector.
    const char *series[] = {"cycle", "ipc", "replay_rate",
                            "sched_occupancy", "rob_occupancy"};
    for (const char *name : series) {
        ASSERT_TRUE(iv.has(name)) << name;
        EXPECT_EQ(iv.at(name).size(), r.intervals.size()) << name;
    }
    EXPECT_DOUBLE_EQ(iv.at("ipc").at(0).asDouble(),
                     r.intervals[0].ipc);
}

/** The core's export holds every component group, each number once:
 *  no SimResult counter, no ipc and no histogram is repeated there. */
TEST(CoreRegistry, ComponentGroupsPresent)
{
    MachineConfig cfg;
    cfg.collectHistograms = true;
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 5000));
    OooCore core(cfg);
    const SimResult r = core.run(*trace);

    const json::Value st = json::Value::parse(core.statsJson().dump());
    const json::Value &mem = st.at("mem");
    EXPECT_GT(mem.at("l1").at("hits").asU64(), 0u);
    EXPECT_TRUE(mem.at("l2").has("dynamic_misses"));
    EXPECT_EQ(mem.at("mob").at("inserted").asU64(), r.stores);
    EXPECT_EQ(st.at("audit").at("checks").asU64(), 0u);
    // The default machine has no CHT, no hit-miss or bank predictor.
    EXPECT_FALSE(st.has("pred"));
    for (const char *gone : {"core", "sched", "hist"})
        EXPECT_FALSE(st.has(gone)) << gone;
    EXPECT_FALSE(mem.has("load_misses"));
    EXPECT_FALSE(mem.has("dynamic_misses"));

    // Each predictor the machine has adds its storage budget.
    cfg.scheme = OrderingScheme::Inclusive;
    cfg.hmp = HmpKind::Chooser;
    cfg.bankMode = BankMode::Sliced;
    cfg.bankPred = BankPredKind::Addr;
    OooCore pred_core(cfg);
    pred_core.run(*trace);
    const json::Value pred = pred_core.statsJson().at("pred");
    EXPECT_GT(pred.at("hmp").at("storage_bits").asU64(), 0u);
    EXPECT_GT(pred.at("cht").at("updates").asU64(), 0u);
    EXPECT_GT(pred.at("cht").at("storage_bits").asU64(), 0u);
    EXPECT_GT(pred.at("bank").at("storage_bits").asU64(), 0u);
    EXPECT_EQ(pred.at("bank").size(), 1u);
}

} // namespace
} // namespace lrs
