/**
 * @file
 * Tests for the stats registry and the JSON layer underneath it:
 * registration styles (bound/derived), duplicate-name rejection,
 * nested JSON export, round-tripping SimResult (including interval
 * series) through the JSON parser, and the core's registry agreeing
 * with every SimResult counter it binds.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/json.hh"
#include "common/stats_registry.hh"
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

TEST(StatsRegistry, BoundCounterTracksExternalSlot)
{
    StatsRegistry reg;
    std::uint64_t slot = 0;
    reg.bindCounter("mem.hits", &slot);
    slot = 7;
    EXPECT_DOUBLE_EQ(reg.value("mem.hits"), 7.0);
    EXPECT_THROW(reg.bindCounter("mem.null", nullptr),
                 std::logic_error);
}

TEST(StatsRegistry, DerivedEvaluatedAtExport)
{
    StatsRegistry reg;
    double x = 1.0;
    reg.derived("rate", [&] { return x; });
    EXPECT_DOUBLE_EQ(reg.value("rate"), 1.0);
    x = 2.5;
    EXPECT_DOUBLE_EQ(reg.value("rate"), 2.5);
}

TEST(StatsRegistry, DuplicateNameThrows)
{
    StatsRegistry reg;
    std::uint64_t slot = 0;
    reg.bindCounter("a.b", &slot);
    EXPECT_THROW(reg.bindCounter("a.b", &slot), std::logic_error);
    EXPECT_THROW(reg.derived("a.b", [] { return 0.0; }),
                 std::logic_error);
    EXPECT_THROW(reg.bindCounter("", &slot), std::logic_error);
}

TEST(StatsRegistry, GroupPrefixesAndNests)
{
    StatsRegistry reg;
    std::uint64_t hits = 0, misses = 0;
    StatsGroup mem = reg.group("mem");
    StatsGroup l1 = mem.group("l1");
    EXPECT_EQ(l1.prefix(), "mem.l1");
    l1.bindCounter("hits", &hits);
    mem.bindCounter("misses", &misses);
    EXPECT_TRUE(reg.has("mem.l1.hits"));
    EXPECT_TRUE(reg.has("mem.misses"));
    EXPECT_FALSE(reg.has("l1.hits"));
    EXPECT_EQ(reg.size(), 2u);
    // Registration order is export order.
    EXPECT_EQ(reg.toJson().dump(),
              R"({"mem":{"l1":{"hits":0},"misses":0}})");
}

TEST(StatsRegistry, JsonExportNestsDottedNames)
{
    StatsRegistry reg;
    std::uint64_t hits = 3, misses = 1, cycles = 10;
    reg.bindCounter("mem.l1.hits", &hits);
    reg.bindCounter("mem.l1.misses", &misses);
    reg.bindCounter("core.cycles", &cycles);

    const json::Value back = json::Value::parse(reg.toJson().dump(2));
    EXPECT_DOUBLE_EQ(
        back.at("mem").at("l1").at("hits").asDouble(), 3.0);
    EXPECT_DOUBLE_EQ(
        back.at("mem").at("l1").at("misses").asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(back.at("core").at("cycles").asDouble(), 10.0);
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

/** Every SimResult counter reads the same through the core's registry
 *  as in the result, on a machine with a CHT, the chooser hit-miss
 *  predictor and a sliced bank predictor, so every group the table
 *  names is bound. */
TEST(CoreRegistry, EveryCounterRowMatchesItsField)
{
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Inclusive;
    cfg.hmp = HmpKind::Chooser;
    cfg.bankMode = BankMode::Sliced;
    cfg.bankPred = BankPredKind::Addr;
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 20000));
    OooCore core(cfg);
    const SimResult r = core.run(*trace);
    ASSERT_GT(r.bankMispredicts, 0u);
    ASSERT_GT(r.acPc, 0u);

    const StatsRegistry &reg = core.stats();
    ASSERT_TRUE(reg.has("pred.cht.updates"));
    ASSERT_TRUE(reg.has("pred.bank.storage_bits"));
    for (const SimResult::CounterSpec &c : SimResult::kCounters) {
        const std::string path = std::string(c.group) + "." + c.leaf;
        ASSERT_TRUE(reg.has(path)) << path;
        EXPECT_EQ(reg.value(path), static_cast<double>(r.*c.field))
            << path;
    }
}

/** The registry the core builds exposes every major component group. */
TEST(CoreRegistry, ComponentGroupsPresent)
{
    MachineConfig cfg;
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 5000));
    OooCore core(cfg);
    const SimResult r = core.run(*trace);

    const StatsRegistry &reg = core.stats();
    EXPECT_TRUE(reg.has("core.cycles"));
    EXPECT_TRUE(reg.has("core.uops"));
    EXPECT_TRUE(reg.has("sched.forwarded"));
    EXPECT_TRUE(reg.has("sched.class.not_conflicting"));
    EXPECT_TRUE(reg.has("mem.l1.hits"));
    EXPECT_TRUE(reg.has("mem.mob.inserted"));
    EXPECT_TRUE(reg.has("pred.hmp.ah_ph"));
    EXPECT_DOUBLE_EQ(reg.value("core.cycles"),
                     static_cast<double>(r.cycles));
    EXPECT_DOUBLE_EQ(reg.value("core.uops"),
                     static_cast<double>(r.uops));
}

} // namespace
} // namespace lrs
