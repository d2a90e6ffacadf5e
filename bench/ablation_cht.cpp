/**
 * @file
 * Ablation — CHT design choices the paper calls out.
 *
 * Sweeps (on the inclusive scheme): counter width (sticky / 1-bit /
 * 2-bit / 3-bit), cyclic clearing of sticky tables ([Chry98]-style,
 * section 2.1 note), and associativity. Reports speedup over
 * Traditional plus the misprediction mix that explains it.
 */

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

namespace
{

struct Variant
{
    std::string label;
    ChtParams cht;
};

std::vector<Variant>
variants()
{
    std::vector<Variant> out;

    auto base = [] {
        ChtParams p;
        p.kind = ChtKind::Full;
        p.entries = 2048;
        p.assoc = 4;
        p.trackDistance = true;
        return p;
    };

    {
        Variant v{"sticky", base()};
        v.cht.sticky = true;
        v.cht.counterBits = 1;
        out.push_back(v);
    }
    {
        Variant v{"sticky+clear8k", base()};
        v.cht.sticky = true;
        v.cht.counterBits = 1;
        v.cht.clearInterval = 8192;
        out.push_back(v);
    }
    for (const unsigned bits : {1u, 2u, 3u}) {
        Variant v{strprintf("%u-bit counter", bits), base()};
        v.cht.counterBits = bits;
        out.push_back(v);
    }
    for (const unsigned assoc : {1u, 2u, 8u}) {
        Variant v{strprintf("2-bit, %u-way", assoc), base()};
        v.cht.counterBits = 2;
        v.cht.assoc = assoc;
        out.push_back(v);
    }
    return out;
}

} // namespace

int
main()
{
    printHeader("Ablation: CHT counter/clearing/associativity",
                "sticky minimises AC-PNC; counters track behaviour "
                "changes; clearing rescues sticky tables");

    const auto traces = groupTraces(TraceGroup::SysmarkNT, 3);

    Report rep("ablation_cht",
               {{"variant", "variant"},
                {"speedup", "speedup", Fmt::Fixed, 3},
                {"AC-PNC%", "ac_pnc_frac_conf", Fmt::Pct, 2},
                {"ANC-PC%", "anc_pc_frac_conf", Fmt::Pct, 2},
                {"penalized/kload", "penalized_per_kload", Fmt::Fixed, 1}});

    // One pool job per (variant × trace): the Traditional baseline
    // plus the variant run over the same generated trace. Slots are
    // folded per variant in the original loop order.
    const auto vs = variants();
    struct Slot
    {
        SimResult base, r;
    };
    std::vector<Slot> slots(vs.size() * traces.size());
    parallelFor(slots.size(), [&](std::size_t idx) {
        const auto &v = vs[idx / traces.size()];
        const auto &tp = traces[idx % traces.size()];
        auto trace = TraceLibrary::make(tp);
        MachineConfig cfg;
        cfg.scheme = OrderingScheme::Traditional;
        slots[idx].base = runSim(*trace, cfg);
        cfg.scheme = OrderingScheme::Inclusive;
        cfg.cht = v.cht;
        slots[idx].r = runSim(*trace, cfg);
    });

    for (std::size_t vi = 0; vi < vs.size(); ++vi) {
        const auto &v = vs[vi];
        double speedup = 0.0;
        std::uint64_t ac_pnc = 0, anc_pc = 0, conf = 0, pen = 0,
                      loads = 0;
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            const Slot &s = slots[vi * traces.size() + ti];
            const SimResult &r = s.r;
            speedup += r.speedupOver(s.base);
            ac_pnc += r.acPnc;
            anc_pc += r.ancPc;
            conf += r.conflicting();
            pen += r.collisionPenalties;
            loads += r.loads;
        }
        rep.row({v.label, speedup / static_cast<double>(traces.size()),
                 conf ? static_cast<double>(ac_pnc) / conf : 0,
                 conf ? static_cast<double>(anc_pc) / conf : 0,
                 loads ? 1000.0 * pen / loads : 0});
    }
    rep.print(std::cout);
    rep.write();
    return 0;
}
