/**
 * @file
 * Figure 9 — CHT design space.
 *
 * Prediction behaviour (not speedup) of the four CHT organisations
 * across sizes, on NT traces: the four conflicting-load categories as
 * a percentage of conflicting loads. The CHT runs in shadow mode (it
 * predicts and trains but does not steer scheduling), matching the
 * figure's focus on predictor behaviour. Paper reference points at 2K
 * entries: Full 3.4% ANC-PC / 0.9% AC-PNC (of all loads); Tagless
 * 3.8% / 0.8%; Tag-only 11% / 0.2%; Combined (with 4K tagless)
 * 12.6% / 0.16%.
 */

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

namespace
{

struct ChtSpec
{
    std::string label;
    ChtParams params;
};

std::vector<ChtSpec>
specs()
{
    std::vector<ChtSpec> out;
    for (const std::size_t n : {128, 256, 512, 1024, 2048}) {
        ChtParams p;
        p.kind = ChtKind::Full;
        p.entries = n;
        p.assoc = 4;
        p.counterBits = 2;
        out.push_back({strprintf("Full-%zu", n), p});
    }
    for (const std::size_t n : {2048, 4096, 8192, 16384, 32768}) {
        ChtParams p;
        p.kind = ChtKind::Tagless;
        p.entries = n;
        p.counterBits = 1;
        out.push_back({strprintf("Tagless-%zu", n), p});
    }
    for (const std::size_t n : {128, 256, 512, 1024, 2048}) {
        ChtParams p;
        p.kind = ChtKind::TagOnly;
        p.entries = n;
        p.assoc = 4;
        out.push_back({strprintf("TagOnly-%zu", n), p});
    }
    for (const std::size_t n : {128, 256, 512, 1024, 2048}) {
        ChtParams p;
        p.kind = ChtKind::Combined;
        p.entries = n;
        p.assoc = 4;
        p.counterBits = 1;
        p.taglessEntries = 4096;
        out.push_back({strprintf("Combined-%zu", n), p});
    }
    return out;
}

} // namespace

int
main()
{
    printHeader(
        "Figure 9: CHT configuration behaviour",
        "at 2K entries (% of all loads): Full 3.4 ANC-PC / 0.9 "
        "AC-PNC; Tagless 3.8/0.8; TagOnly 11/0.2; Combined 12.6/0.16");

    const auto traces = groupTraces(TraceGroup::SysmarkNT, 3);

    Report rep("fig09_cht_configs",
               {{"config", "config"},
                {"AC-PNC%c", "ac_pnc_frac_conf", Fmt::Pct, 2},
                {"AC-PC%c", "ac_pc_frac_conf", Fmt::Pct, 2},
                {"ANC-PNC%c", "anc_pnc_frac_conf", Fmt::Pct, 2},
                {"ANC-PC%c", "anc_pc_frac_conf", Fmt::Pct, 2},
                {"ANC-PC%all", "anc_pc_frac_all", Fmt::Pct, 2},
                {"AC-PNC%all", "ac_pnc_frac_all", Fmt::Pct, 2}});

    // Submit the (CHT variant × trace) grid through the pool, then
    // aggregate the slots per variant in the original order.
    const auto variant_specs = specs();
    std::vector<SimJob> jobs;
    for (const auto &spec : variant_specs) {
        MachineConfig cfg;
        cfg.scheme = OrderingScheme::Traditional;
        cfg.chtShadow = true;
        cfg.cht = spec.params;
        for (const auto &tp : traces)
            jobs.push_back({tp, cfg, {}});
    }
    const auto outcomes = runJobs(jobs);

    for (std::size_t si = 0; si < variant_specs.size(); ++si) {
        const auto &spec = variant_specs[si];
        std::uint64_t ac_pnc = 0, ac_pc = 0, anc_pnc = 0, anc_pc = 0;
        std::uint64_t loads = 0;
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            const SimResult &r =
                outcomes[si * traces.size() + ti].result;
            ac_pnc += r.acPnc;
            ac_pc += r.acPc;
            anc_pnc += r.ancPnc;
            anc_pc += r.ancPc;
            loads += r.classifiedLoads();
        }
        const double conf =
            static_cast<double>(ac_pnc + ac_pc + anc_pnc + anc_pc);
        const double all = static_cast<double>(loads);
        rep.row({spec.label, ac_pnc / conf, ac_pc / conf, anc_pnc / conf,
                 anc_pc / conf, anc_pc / all, ac_pnc / all});
    }
    rep.print(std::cout);
    rep.write();
    return 0;
}
