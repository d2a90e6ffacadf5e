/**
 * @file
 * lrs_sim — command-line front end to the simulator.
 *
 * Runs a named synthetic trace or an imported trace file through an
 * arbitrary machine configuration and prints the full result block;
 * can also export generated traces for external use.
 *
 * Examples:
 *   lrs_sim --trace wd --scheme exclusive --window 64
 *   lrs_sim --trace tpcc --compare-schemes
 *   lrs_sim --trace swim --bank-mode sliced --bank-pred addr
 *   lrs_sim --trace gcc --len 500000 --dump-trace gcc.lrstrc
 *   lrs_sim --trace-file gcc.lrstrc --hmp local+timing
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buildinfo.hh"
#include "common/diag.hh"
#include "common/fault_injector.hh"
#include "common/histogram.hh"
#include "common/json.hh"
#include "common/parse.hh"
#include "common/profiler.hh"
#include "common/stats.hh"
#include "core/config_io.hh"
#include "core/core.hh"
#include "core/flight_recorder.hh"
#include "core/grid.hh"
#include "core/parallel.hh"
#include "core/runner.hh"
#include "core/snapshot.hh"
#include "core/supervisor.hh"
#include "core/tracer.hh"
#include "trace/champsim_reader.hh"
#include "trace/library.hh"
#include "trace/serialize.hh"

using namespace lrs;

extern "C" void
lrsOnSweepSignal(int)
{
    // Async-signal-safe: a relaxed store into an atomic flag. The
    // core's cycle loop and the sweep supervisor poll it; cells
    // unwind cooperatively, the journal and a partial JSON report
    // are flushed, and the process exits with kExitInterrupted.
    requestSweepInterrupt();
}

namespace
{

// Exit codes (docs/ROBUSTNESS.md): 0 success, 1 runtime failure
// (including audit violations), 2 usage, 3 invalid configuration,
// 4 I/O or trace-content failure, 5 interrupted by SIGINT/SIGTERM
// (journaled sweep cells are resumable with --resume).
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitConfig = 3;
constexpr int kExitIo = 4;
constexpr int kExitInterrupted = 5;

/**
 * The runs lrs_sim makes, one per command line: a single run of one
 * trace unless a run flag asks for another.
 */
enum Run : unsigned
{
    kSingle = 1, kCompare = 2, kFamilies = 4, kBatch = 8, kDumpTrace = 16,
    kDumpConfig = 32, kCheckJournal = 64,
    /** Not runs: a command line gives one flag of each of these marks
     *  at most (kOneOf says why). kAsks marks a flag that asks for a
     *  run, kSource one that names the trace, kSized one that sets or
     *  fixes its length. */
    kAsks = 128, kSource = 256, kSized = 512,
};

/** How diagnostics and --help name each run, in bit order. */
constexpr std::array<const char *, 7> kRunNames = {
    "a single run", "--compare-schemes", "--families", "--batch",
    "--dump-trace", "--dump-config",     "--check-journal"};

constexpr std::pair<unsigned, const char *> kOneOf[] = {
    {kAsks, "lrs_sim makes one run per command line"},
    {kSource, "a run reads one trace"},
    {kSized, "a trace file holds its own length"}};

constexpr unsigned kTraceRuns = kSingle | kCompare | kDumpTrace;
constexpr unsigned kSimRuns = kSingle | kCompare | kFamilies | kBatch;
/** The runs that read the machine config, and so its every layer. */
constexpr unsigned kConfigRuns = kSimRuns | kDumpConfig;

/** Everything the command line sets; every run reads it from here. */
struct Options
{
    unsigned run = kSingle;
    /** The machine the run starts from (main() sets it), then every
     *  config layer in command-line order. */
    MachineConfig cfg;
    /** The operand of --batch, --dump-trace or --check-journal. */
    std::string runPath;
    /** The --batch grid; its base is cfg as --batch left it. */
    BatchGrid grid;
    std::string traceName = "wd";
    std::string traceFile;
    std::string champsimFile;
    ChampSimReadOptions champsim;
    TraceReadOptions read;
    std::uint64_t len = 200000;
    unsigned jobs = 0;
    SweepOptions sweep;
    std::string flightDir;
    std::string jsonPath;
    std::string traceEventsPath;
    std::uint64_t traceBuf = PipelineTracer::kDefaultCapacity;
    bool profile = false;
    std::string snapshotPath;
    std::optional<std::uint64_t> snapshotAfter;
    std::string fromSnapshot;
    bool validateSnapshot = false;
    bool injectTraceFaults = false;
    FaultConfig faults;
};

/** @p v as printf's %llu takes it. */
unsigned long long
ull(std::uint64_t v)
{
    return v;
}

void
printResult(FILE *out, const SimResult &r)
{
    const auto pct = [&](std::uint64_t n, std::uint64_t d) {
        return d ? 100.0 * static_cast<double>(n) /
                       static_cast<double>(d)
                 : 0.0;
    };
    const std::uint64_t cls = r.classifiedLoads();
    std::fprintf(out, "trace          %s\n", r.trace.c_str());
    std::fprintf(out, "config         %s\n", r.config.c_str());
    std::fprintf(out, "cycles         %llu\n", ull(r.cycles));
    std::fprintf(out, "uops           %llu (IPC %.2f)\n", ull(r.uops),
                 r.ipc());
    std::fprintf(out, "loads          %llu (%.1f%% of uops)\n",
                 ull(r.loads), pct(r.loads, r.uops));
    std::fprintf(out,
                 "  no-conflict  %.1f%%   ANC %.1f%%   AC %.1f%%\n",
                 pct(r.notConflicting, cls), pct(r.ancPnc + r.ancPc, cls),
                 pct(r.actuallyColliding(), cls));
    std::fprintf(out,
                 "  pred mix     AC-PC %.2f%%  AC-PNC %.2f%%  "
                 "ANC-PC %.2f%%\n",
                 pct(r.acPc, cls), pct(r.acPnc, cls), pct(r.ancPc, cls));
    std::fprintf(out,
                 "  forwarded    %llu   penalized %llu   violations "
                 "%llu\n",
                 ull(r.forwarded), ull(r.collisionPenalties),
                 ull(r.orderViolations));
    std::fprintf(out,
                 "L1 misses      %llu (%.2f%% of loads, %llu "
                 "dynamic)\n",
                 ull(r.l1Misses), pct(r.l1Misses, r.loads),
                 ull(r.dynamicMisses));
    std::fprintf(out,
                 "hit-miss pred  AH-PH %llu  AH-PM %llu  AM-PH %llu  "
                 "AM-PM %llu\n",
                 ull(r.ahPh), ull(r.ahPm), ull(r.amPh), ull(r.amPm));
    std::fprintf(out, "branches       %llu (%.2f%% mispredicted)\n",
                 ull(r.branches), pct(r.branchMispredicts, r.branches));
    std::fprintf(out,
                 "issue waste    %llu wasted slots, %llu replayed "
                 "uops\n",
                 ull(r.wastedIssues), ull(r.replayedUops));
    if (r.bankConflicts || r.bankMispredicts || r.bankReplications) {
        std::fprintf(out,
                     "banked pipe    %llu conflicts, %llu mispredicts, "
                     "%llu replications\n",
                     ull(r.bankConflicts), ull(r.bankMispredicts),
                     ull(r.bankReplications));
    }
}

/**
 * Emit a JSON document to a path, or to stdout for "-". Every
 * top-level export leads with the "build" provenance block (compiler,
 * build type, sanitizer mode, git SHA — common/buildinfo.hh) as its
 * first member, so a result file always states which binary produced
 * it. Provenance lives only here, at the document root: per-cell
 * result documents (journal records, resume restores) never carry it,
 * keeping resumed sweeps byte-identical to uninterrupted ones.
 */
void
emitJson(const std::string &path, const json::Value &doc)
{
    json::Value out = json::Value::object();
    out.set("build", buildProvenanceJson());
    for (const auto &m : doc.members())
        out.set(m.first, m.second);
    if (path == "-") {
        std::cout << out.dump(2) << "\n";
        return;
    }
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        throw IoError(makeDiag(DiagCode::IoOpenFailed, "lrs_sim",
                               "path", "cannot open " + path));
    }
    if (!(os << out.dump(2))) {
        throw IoError(makeDiag(DiagCode::IoWriteFailed, "lrs_sim",
                               "path", "write failed: " + path));
    }
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now() - t0).count();
}

/** Create @p dir, which flag @p param names, and its parents. */
void
makeDir(const std::string &dir, const char *param)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        throw IoError(makeDiag(DiagCode::IoOpenFailed, "lrs_sim", param,
                               "cannot create " + dir + ": " +
                                   ec.message()));
    }
}

/**
 * Run a batch grid under the sweep supervisor and print one table row
 * per (trace, scheme) cell, in grid order regardless of worker count.
 *
 * Resumed (journal-restored) cells re-emit their stored result, so
 * the table and the JSON document of an interrupted-then-resumed
 * sweep are byte-identical to an uninterrupted run — their status
 * column deliberately reads "OK", and the status counts go to the
 * stderr `sweep:` line instead of the report.
 *
 * Returns kExitInterrupted if the sweep was cut short (partial JSON
 * still written), kExitRuntime if any cell finally failed.
 */
int
runBatch(const Options &opts)
{
    BatchGrid grid = opts.grid;
    grid.base = opts.cfg;

    std::vector<SimJob> jobs;
    std::vector<std::string> keys;
    buildGridJobs(grid, jobs, keys);

    SweepOptions sopts = opts.sweep;
    sopts.workers = opts.jobs ? opts.jobs : grid.jobs;

    // Warm-once sampling: checkpoint each trace once under the base
    // config, then fork every scheme cell from the checkpoint. In
    // --validate-snapshot mode cells instead run cold AND through a
    // same-config save/restore (below), so the fork is skipped — the
    // validation target is the bit-identity contract, and cross-scheme
    // forks are a deliberate protocol change, not bit-equivalence.
    std::string snap_dir;
    if (grid.warmupSnapshot || opts.validateSnapshot)
        snap_dir = snapshotDirFor(grid, opts.runPath);
    if (grid.warmupSnapshot && !opts.validateSnapshot) {
        const auto warm0 = std::chrono::steady_clock::now();
        prepareWarmupSnapshots(grid, snap_dir, sopts.workers);
        attachWarmupSnapshots(grid, snap_dir, jobs);
        std::fprintf(stderr,
                     "warmup: %zu trace(s) checkpointed at cycle %llu in "
                     "%.2fs (%s); %zu cell(s) fork from the checkpoints\n",
                     grid.traces.size(), ull(grid.warmupSnapshot),
                     secondsSince(warm0), snap_dir.c_str(), jobs.size());
    } else if (opts.validateSnapshot) {
        makeDir(snap_dir, "validate-snapshot");
    }

    // Chaos hook for tools/chaos_sweep.sh and the isolation tests:
    // LRS_CHAOS_CRASH_CELL names a cell that raises
    // LRS_CHAOS_CRASH_SIG (default SIGSEGV) instead of simulating.
    // Without --isolate that kills the whole sweep — which is exactly
    // the crash-mid-sweep scenario the journal exists for.
    const std::uint64_t chaos_cell =
        envU64("LRS_CHAOS_CRASH_CELL", ~std::uint64_t{0});
    const int chaos_sig = static_cast<int>(
        envU64("LRS_CHAOS_CRASH_SIG", SIGSEGV));

    // Per-cell flight-recorder dump paths. The recorder is armed
    // (identity + initial snapshot on disk) *before* the chaos hook
    // fires, so even a cell SIGKILLed on entry leaves a CRC-valid
    // dump for the failure entry to reference.
    const auto flightPath = [&](std::size_t cell) {
        return opts.flightDir + "/cell_" + std::to_string(cell) +
               ".flight.jsonl";
    };
    if (!opts.flightDir.empty())
        makeDir(opts.flightDir, "flight-recorder");

    SweepSupervisor sup(sopts);
    const auto wall0 = std::chrono::steady_clock::now();
    const std::vector<JobOutcome> outcomes =
        sup.run(jobs.size(), keys, [&](std::size_t cell, unsigned) {
            std::unique_ptr<FlightRecorder> fr;
            if (!opts.flightDir.empty()) {
                fr = std::make_unique<FlightRecorder>();
                fr->setIdentity(cell, keys[cell]);
                fr->setDumpPath(flightPath(cell));
            }
            if (cell == chaos_cell)
                ::raise(chaos_sig);
            JobOutcome o = runOneSimJob(jobs[cell], fr.get());
            if (opts.validateSnapshot && o.status == CellStatus::Ok) {
                // Same-config save/restore must reproduce the full
                // run's statistics bit for bit (every counter,
                // interval sample and histogram bucket — doubles
                // compared as IEEE-754 bit patterns).
                try {
                    const Cycle stop = grid.warmupSnapshot
                                           ? grid.warmupSnapshot
                                           : o.result.cycles / 2;
                    auto trace = TraceLibrary::make(jobs[cell].trace);
                    if (!snapshotRoundTripIdentical(
                            jobs[cell].cfg, FaultConfig{}, *trace, stop,
                            snap_dir + "/validate_cell_" +
                                std::to_string(cell) + ".snap")) {
                        o.status = CellStatus::Failed;
                        o.code = diagCodeName(DiagCode::DataInvalid);
                        o.error = "snapshot round-trip diverged from "
                                  "the full run at checkpoint cycle " +
                                  std::to_string(stop);
                    }
                } catch (const std::exception &e) {
                    classifyJobException(o, e);
                }
            }
            if (fr && o.status == CellStatus::Ok)
                fr->removeDump();
            return o;
        });
    const double wall = secondsSince(wall0);

    bool any_gave_up = false;
    TextTable t({"trace", "scheme", "status", "cycles", "IPC",
                 "speedup"});
    json::Value rows = json::Value::array();
    json::Value fails = json::Value::array();
    const std::size_t nschemes = grid.schemes.size();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const JobOutcome &o = outcomes[i];
        const std::string &trace = grid.traces[i / nschemes];
        const char *scheme =
            orderingSchemeName(grid.schemes[i % nschemes]);
        const bool done = o.status == CellStatus::Ok ||
                          o.status == CellStatus::Skipped;
        t.startRow();
        t.cell(trace);
        t.cell(scheme);
        if (!done) {
            if (o.code != diagCodeName(DiagCode::Interrupted)) {
                any_gave_up = true;
                std::fprintf(
                    stderr,
                    "batch cell %s %s [%s] after %u attempt(s): %s\n",
                    keys[i].c_str(), cellStatusName(o.status),
                    o.code.c_str(), o.attempts, o.error.c_str());
            }
            t.cell(cellStatusName(o.status));
            for (int k = 0; k < 3; ++k)
                t.cell("-");
            json::Value f = outcomeRecord(i, keys[i], o);
            if (!opts.flightDir.empty()) {
                // A dump survives for any cell that got past arming
                // the recorder — including a SIGKILLed child.
                std::error_code ec;
                if (std::filesystem::exists(flightPath(i), ec))
                    f.set("flight_recorder", flightPath(i));
            }
            fails.push(std::move(f));
            continue;
        }
        // Speedup is against the first scheme of the same trace (the
        // grid's baseline column), matching --compare-schemes.
        const JobOutcome &base = outcomes[(i / nschemes) * nschemes];
        t.cell("OK");
        t.cell(strprintf("%llu", ull(o.result.cycles)));
        t.cell(o.result.ipc(), 2);
        if (base.status == CellStatus::Ok ||
            base.status == CellStatus::Skipped)
            t.cell(o.result.speedupOver(base.result), 3);
        else
            t.cell("-");
        rows.push(o.resultJson.isNull() ? o.result.toJson()
                                        : o.resultJson);
    }
    t.print(opts.jsonPath == "-" ? std::cerr : std::cout);

    // Fresh simulated uops this run (resumed cells did no host work).
    const SweepStats &ss = sup.sweepStats();
    if (opts.profile)
        std::fputs(prof::reportText(ss.uops, wall).c_str(), stderr);

    if (!opts.jsonPath.empty()) {
        json::Value doc = json::Value::object();
        doc.set("grid", std::move(rows));
        if (grid.base.collectHistograms) {
            // Merge per-cell histograms serially in ascending cell-id
            // order — exact u64 adds, so the aggregate is
            // bit-identical for any worker count (the same
            // determinism contract as the table rows). Resumed cells
            // contribute their journaled histograms, so a resumed
            // sweep aggregates identically to an uninterrupted one.
            std::vector<std::string> order;
            std::map<std::string, Log2Histogram> merged;
            for (const JobOutcome &o : outcomes) {
                const json::Value *h =
                    o.resultJson.isObject()
                        ? o.resultJson.find("histograms")
                        : nullptr;
                if ((o.status != CellStatus::Ok &&
                     o.status != CellStatus::Skipped) ||
                    !h || !h->isObject())
                    continue;
                for (const auto &[name, hist] : h->members()) {
                    const auto [it, fresh] = merged.try_emplace(name);
                    if (fresh)
                        order.push_back(name);
                    it->second.merge(Log2Histogram::fromJson(hist));
                }
            }
            json::Value hj = json::Value::object();
            for (const std::string &name : order)
                hj.set(name, merged.at(name).toJson());
            doc.set("histograms", std::move(hj));
        }
        if (opts.profile)
            doc.set("profile", prof::reportJson(ss.uops, wall));
        if (fails.size())
            doc.set("failures", std::move(fails));
        if (sup.interrupted())
            doc.set("interrupted", true);
        emitJson(opts.jsonPath, doc);
    }

    std::fprintf(stderr,
                 "sweep: %llu cells: %llu ok, %llu resumed, %llu "
                 "failed, %llu timeout, %llu crashed, %llu not-run; "
                 "%llu retries, %llu gave up\n",
                 ull(ss.cells), ull(ss.ok), ull(ss.skipped),
                 ull(ss.failed), ull(ss.timeout), ull(ss.crashed),
                 ull(ss.interrupted), ull(ss.retries), ull(ss.gaveUp));
    if (sup.interrupted()) {
        if (!sopts.journalPath.empty()) {
            std::fprintf(stderr,
                         "sweep interrupted; continue with "
                         "--batch %s --resume %s\n",
                         opts.runPath.c_str(), sopts.journalPath.c_str());
        } else {
            std::fprintf(stderr,
                         "sweep interrupted (no --journal: completed "
                         "cells were not checkpointed)\n");
        }
        return kExitInterrupted;
    }
    return any_gave_up ? kExitRuntime : kExitOk;
}

/** The --families layer: every predictor engaged (CHT-based ordering,
 *  chooser HMP, sliced banks with the stride bank predictor). */
void
familiesLayer(Options &o, const char *)
{
    o.cfg.scheme = OrderingScheme::Inclusive;
    o.cfg.hmp = HmpKind::Chooser;
    o.cfg.bankMode = BankMode::Sliced;
    o.cfg.bankPred = BankPredKind::Addr;
}

/**
 * --families: run every adversarial workload family and report how
 * each predictor holds up per family. These workloads are built to
 * strain specific predictors — spoiler4k floods the CHT with
 * 4K-aliasing store/load fans, flipper phase-inverts collision and
 * hit/miss behaviour, gcmark drags a pointer-chase through a
 * cache-hostile footprint — so the per-family accuracy triple is the
 * robustness profile the JSON "families" block exports.
 */
int
runFamilies(const Options &o)
{
    static const char *const kAccuracyKeys[] = {
        "cht_accuracy", "hmp_accuracy", "bank_accuracy"};
    const std::vector<std::string> names =
        TraceLibrary::names(TraceGroup::Adversarial);
    std::vector<SimJob> jobs;
    for (const std::string &name : names)
        jobs.push_back({TraceLibrary::byName(name, o.len), o.cfg, {}});
    const std::vector<JobOutcome> outcomes = runJobs(jobs, o.jobs);

    const auto ratio = [](std::uint64_t n, std::uint64_t d) {
        return d ? static_cast<double>(n) / static_cast<double>(d)
                 : 0.0;
    };

    TextTable t({"family", "cycles", "IPC", "CHT acc", "HMP acc",
                 "bank acc"});
    json::Value fam = json::Value::object();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const JobOutcome &out = outcomes[i];
        if (out.failed()) {
            std::fprintf(stderr, "family %s %s [%s]: %s\n",
                         names[i].c_str(), cellStatusName(out.status),
                         out.code.c_str(), out.error.c_str());
            return out.code == diagCodeName(DiagCode::Interrupted)
                       ? kExitInterrupted
                       : kExitRuntime;
        }
        const SimResult &r = out.result;
        const double acc[] = {
            ratio(r.ancPnc + r.acPc, r.classifiedLoads()),
            ratio(r.ahPh + r.amPm, r.ahPh + r.ahPm + r.amPh + r.amPm),
            r.loads ? 1.0 - ratio(r.bankMispredicts, r.loads) : 0.0};
        t.startRow();
        t.cell(names[i]);
        t.cell(strprintf("%llu", ull(r.cycles)));
        t.cell(r.ipc(), 2);
        json::Value f = json::Value::object();
        for (std::size_t k = 0; k < std::size(acc); ++k) {
            t.cell(acc[k], 4);
            f.set(kAccuracyKeys[k], acc[k]);
        }
        f.set("result", r.toJson());
        fam.set(names[i], std::move(f));
    }
    t.print(o.jsonPath == "-" ? std::cerr : std::cout);
    if (!o.jsonPath.empty()) {
        json::Value doc = json::Value::object();
        doc.set("families", std::move(fam));
        emitJson(o.jsonPath, doc);
    }
    return kExitOk;
}

/**
 * A single run of @p trace: optionally restored from --from-snapshot,
 * checkpointed at --snapshot-after and checked by --validate-snapshot.
 */
int
runSingle(const Options &o, VecTrace &trace, FaultInjector &faults,
          TraceReadStats &read_stats)
{
    OooCore core(o.cfg);
    // The reader/injector accounting joins the core's registry so
    // one JSON document tells the whole robustness story
    // ("trace.*", "fault.*", "audit.*").
    read_stats.registerStats(core.stats().group("trace"));
    faults.registerStats(core.stats().group("fault"));
    if (faults.enabled())
        core.attachFaultInjector(&faults);
    std::unique_ptr<PipelineTracer> tracer;
    if (!o.traceEventsPath.empty()) {
        tracer = std::make_unique<PipelineTracer>(o.traceBuf);
        core.attachTracer(tracer.get());
    }
    const auto wall0 = std::chrono::steady_clock::now();
    // A restored run simulates only the remainder, bit-identically.
    if (!o.fromSnapshot.empty())
        loadSnapshotInto(o.fromSnapshot, core, trace);
    else
        core.beginRun(trace);
    if (!o.snapshotPath.empty()) {
        core.advanceTo(trace, *o.snapshotAfter);
        writeSnapshot(o.snapshotPath, core, trace, *o.snapshotAfter);
        std::fprintf(stderr, "snapshot: %s at cycle %llu\n",
                     o.snapshotPath.c_str(), ull(core.now()));
    }
    core.advanceTo(trace);
    const SimResult r = core.finishRun();
    const double wall = secondsSince(wall0);
    if (o.validateSnapshot) {
        // Save/restore at --snapshot-after (default: half the run).
        const Cycle stop = o.snapshotAfter.value_or(r.cycles / 2);
        const bool same = snapshotRoundTripIdentical(
            o.cfg, faults.config(), trace, stop,
            std::filesystem::temp_directory_path().string() +
                "/lrs_validate_" + std::to_string(::getpid()) + ".snap");
        std::fprintf(stderr,
                     same ? "validate-snapshot: OK — save/restore at cycle "
                            "%llu is bit-identical\n"
                          : "validate-snapshot: FAILED — round trip at "
                            "cycle %llu diverged from the full run\n",
                     ull(stop));
        if (!same)
            return kExitRuntime;
    }
    printResult(o.jsonPath == "-" ? stderr : stdout, r);
    if (o.profile)
        std::fputs(prof::reportText(r.uops, wall).c_str(), stderr);
    if (!o.jsonPath.empty()) {
        json::Value doc = r.toJson();
        doc.set("registry", core.stats().toJson());
        if (o.profile)
            doc.set("profile", prof::reportJson(r.uops, wall));
        emitJson(o.jsonPath, doc);
    }
    if (tracer)
        tracer->writeChromeTrace(o.traceEventsPath);
    return kExitOk;
}

/** The runs of one trace: single, --compare-schemes, --dump-trace. */
int
runTrace(const Options &o)
{
    FaultConfig fault_cfg = o.faults;
    if (o.injectTraceFaults && fault_cfg.traceRate <= 0.0)
        fault_cfg.traceRate = 0.01;
    FaultInjector faults(fault_cfg);
    TraceReadStats read_stats;

    std::unique_ptr<VecTrace> trace;
    if (!o.champsimFile.empty()) {
        ChampSimReadOptions cs_opts = o.champsim;
        cs_opts.read = o.read;
        cs_opts.maxInstructions = o.len;
        ChampSimTraceInfo cs_info;
        trace = readChampSimFile(o.champsimFile, cs_opts, &read_stats,
                                 &cs_info);
        std::fprintf(stderr,
                     "champsim: %llu instruction(s) -> %zu uops, %llu "
                     "byte(s), %llu page(s), crc32 %08x\n",
                     ull(cs_info.instructions), trace->size(),
                     ull(cs_info.bytes), ull(cs_info.pages), cs_info.crc);
    } else if (!o.traceFile.empty()) {
        trace = readTraceFile(o.traceFile, o.read, &read_stats);
    } else {
        trace = TraceLibrary::make(TraceLibrary::byName(o.traceName, o.len));
    }

    if (o.injectTraceFaults) {
        // Corrupt the serialized bytes (header protected) and read them
        // back in recovery mode: the graceful-degradation path.
        std::stringstream ss;
        writeTrace(ss, *trace);
        std::string bytes = ss.str();
        faults.corruptBuffer(reinterpret_cast<std::uint8_t *>(bytes.data()),
                             bytes.size(), traceHeaderBytes(trace->name()),
                             kTraceRecordBytes);
        std::stringstream back(bytes);
        TraceReadOptions recover = o.read;
        recover.recover = true;
        trace = readTrace(back, recover, &read_stats);
        std::fprintf(stderr,
                     "fault injection: corrupted %llu records, reader "
                     "skipped %llu (seed %llu)\n",
                     ull(faults.traceFaults()),
                     ull(read_stats.skippedRecords), ull(fault_cfg.seed));
    }

    if (o.run == kDumpTrace) {
        writeTraceFile(o.runPath, *trace);
        std::printf("wrote %zu uops to %s\n", trace->size(),
                    o.runPath.c_str());
        return kExitOk;
    }
    if (o.run == kSingle)
        return runSingle(o, *trace, faults, read_stats);
    // --compare-schemes: the trace under every ordering scheme.
    const auto wall0 = std::chrono::steady_clock::now();
    const auto results = runAllSchemes(*trace, o.cfg, o.jobs);
    const double wall = secondsSince(wall0);
    std::uint64_t total_uops = 0;
    for (const auto &r : results)
        total_uops += r.uops;
    if (o.profile)
        std::fputs(prof::reportText(total_uops, wall).c_str(), stderr);
    const SimResult &base = results.front();
    TextTable t({"scheme", "cycles", "IPC", "speedup"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        t.startRow();
        t.cell(orderingSchemeName(allSchemes()[i]));
        t.cell(strprintf("%llu", ull(results[i].cycles)));
        t.cell(results[i].ipc(), 2);
        t.cell(results[i].speedupOver(base), 3);
    }
    t.print(o.jsonPath == "-" ? std::cerr : std::cout);
    if (!o.jsonPath.empty()) {
        json::Value doc = json::Value::object();
        json::Value schemes = json::Value::array();
        for (const auto &r : results)
            schemes.push(r.toJson());
        doc.set("schemes", std::move(schemes));
        if (o.profile)
            doc.set("profile", prof::reportJson(total_uops, wall));
        emitJson(o.jsonPath, doc);
    }
    return kExitOk;
}

/**
 * --check-journal: offline CRC validation of any LRSJ1-framed file,
 * a checkpoint journal, a flight-recorder dump or a machine snapshot.
 */
int
checkJournal(const std::string &path)
{
    JournalReadStats jst;
    const std::vector<json::Value> recs = readJournal(path, &jst);
    // Wrong-format diagnosis before damage accounting: a file with
    // zero valid records that does not even open with the "LRSJ1 "
    // magic was never a journal — and the most common mix-up is
    // pointing this at a raw ChampSim trace. (A real journal whose
    // every record is damaged still starts with the magic and gets
    // the damage report.)
    if (recs.empty() && jst.badLines && !startsWithJournalMagic(path)) {
        std::fprintf(stderr, "%s: not an LRSJ1 file%s\n", path.c_str(),
                     looksLikeChampSimFile(path)
                         ? " (looks like a raw ChampSim trace; run it "
                           "with --champsim instead)"
                         : "");
        return kExitRuntime;
    }
    // A machine snapshot announces itself in its first record; those
    // get the full strict structural check on top of line-level CRC
    // validation.
    const json::Value *kind =
        !jst.badLines && !recs.empty() && recs.front().isObject()
            ? recs.front().find("kind")
            : nullptr;
    if (kind && kind->isString() && kind->asString() == "lrs-snapshot") {
        try {
            const SnapshotImage img = readSnapshot(path);
            std::printf("%s: valid snapshot (format v%llu, trace %s, "
                        "cycle %llu, %zu section(s))\n",
                        path.c_str(), ull(img.version),
                        img.traceName.c_str(), ull(img.cycle),
                        img.state.members().size());
            return kExitOk;
        } catch (const ConfigError &e) {
            std::fprintf(stderr, "%s: invalid snapshot:\n%s\n",
                         path.c_str(), e.what());
            return kExitRuntime;
        }
    }
    std::printf("%s: %zu valid record(s)\n", path.c_str(), recs.size());
    if (jst.badLines) {
        std::fprintf(
            stderr,
            "%s: %llu damaged line(s), %llu byte(s) dropped%s; first "
            "damaged record: line %llu, byte offset %llu\n",
            path.c_str(), ull(jst.badLines), ull(jst.droppedBytes),
            jst.truncatedTail ? " (torn tail)" : "", ull(jst.firstBadLine),
            ull(jst.firstBadOffset));
        return kExitRuntime;
    }
    return kExitOk;
}

/** Store operand @p v in the Options field at member path @p Path: a
 *  string as given, a rate in [0, 1], a strictly parsed integer, or
 *  true for a flag that takes no operand. */
template <auto... Path>
void
into(Options &o, const char *v)
{
    auto &field = (o .* ... .* Path);
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>)
        field = true;
    else if constexpr (std::is_same_v<T, double>)
        field = parseRate(v);
    else if constexpr (std::is_same_v<T, std::string>)
        field = v;
    else if constexpr (std::is_same_v<T, std::optional<std::uint64_t>>)
        field = parseUnsigned(v);
    else
        field = parseUnsigned<T>(v);
}

/** One lrs_sim flag. The parser, --help and the check that rejects a
 *  flag its run would not read all come from these rows. */
struct Flag
{
    const char *name; ///< null: a --help heading, held in help
    /** Null: takes none. "[X]": optional, the next argument unless it
     *  starts with '-'. "[=X]": optional and attached. */
    const char *operand;
    unsigned runs; ///< the runs that read it, | kAsks if it asks for one
    /** Flags it depends on, any one of them. A flag given its optional
     *  operand needs none: --resume PATH names the journal itself. */
    std::array<const char *, 3> needs;
    void (*set)(Options &, const char *value); ///< null: stores nothing
    const char *help; ///< null: --help prints it with the config flags
};

using O = Options;
using SO = SweepOptions;
using RO = TraceReadOptions;
using FC = FaultConfig;

const Flag kFlags[] = {
    {nullptr, nullptr, 0, {}, nullptr, "runs (one per command line):"},
    {"--compare-schemes", nullptr, kCompare | kAsks, {}, nullptr,
     "run one trace under every ordering scheme and report speedups"},
    {"--families", nullptr, kFamilies | kAsks, {}, familiesLayer,
     "report CHT/HMP/bank accuracy per adversarial family (spoiler4k, "
     "flipper, gcmark); a config layer of scheme inclusive, hmp "
     "chooser, bank_mode sliced and bank_pred addr"},
    {"--batch", "PATH", kBatch | kAsks, {},
     [](O &o, const char *v) {
         o.runPath = v;
         o.grid = parseBatchGridFile(v, o.cfg);
         o.cfg = o.grid.base;
     },
     "run a (traces x schemes) grid file. Its keys: traces, schemes, "
     "len, jobs, warmup_snapshot, snapshot_dir; any other line is a "
     "config layer. Its layers start from cht_track_distance = 0"},
    {"--dump-trace", "PATH", kDumpTrace | kAsks, {}, into<&O::runPath>,
     "write the trace and exit"},
    {"--dump-config", nullptr, kDumpConfig | kAsks, {}, nullptr,
     "print the final config as INI and exit"},
    {"--check-journal", "PATH", kCheckJournal | kAsks, {}, into<&O::runPath>,
     "check a CRC-framed journal, flight dump or snapshot"},
    {nullptr, nullptr, 0, {}, nullptr, "trace selection:"},
    {"--trace", "NAME", kTraceRuns | kSource, {}, into<&O::traceName>,
     "named synthetic trace (e.g. wd, gcc, swim, tpcc; default wd)"},
    {"--trace-file", "PATH", kTraceRuns | kSource | kSized, {},
     into<&O::traceFile>, "run a serialised trace file instead"},
    {"--champsim", "PATH", kTraceRuns | kSource, {}, into<&O::champsimFile>,
     "ingest a raw ChampSim trace ('-' reads stdin; docs/TRACES.md)"},
    {"--max-pages", "N", kTraceRuns, {"--champsim"},
     into<&O::champsim, &ChampSimReadOptions::maxPages>,
     "refuse a trace touching more 4KiB pages (default 1048576)"},
    {"--max-file-bytes", "N", kTraceRuns, {"--champsim"},
     into<&O::champsim, &ChampSimReadOptions::maxFileBytes>,
     "refuse a larger source (default 2147483648)"},
    {"--len", "N", kTraceRuns | kFamilies | kSized, {}, into<&O::len>,
     "uops to generate, or ChampSim instructions (default 200000)"},
    {nullptr, nullptr, 0, {}, nullptr, "output:"},
    {"--json", "PATH", kSimRuns, {}, into<&O::jsonPath>,
     "write the result as JSON; '-' writes it to stdout, text to stderr"},
    {"--jobs", "N", kCompare | kFamilies | kBatch, {}, into<&O::jobs>,
     "worker threads (default: the grid's jobs, else LRS_JOBS, else "
     "the hardware's; results are identical for any N)"},
    {"--trace-events", "PATH", kSingle, {}, into<&O::traceEventsPath>,
     "write per-uop pipeline events as a Chrome trace_event file"},
    {"--trace-buf", "N", kSingle, {"--trace-events"}, into<&O::traceBuf>,
     "event ring-buffer capacity (default 262144)"},
    {nullptr, nullptr, 0, {}, nullptr, "telemetry (docs/OBSERVABILITY.md):"},
    {"--histograms", nullptr, kConfigRuns, {},
     into<&O::cfg, &MachineConfig::collectHistograms>,
     "collect deterministic log2 histograms; a config layer"},
    {"--profile", nullptr, kSingle | kCompare | kBatch, {}, into<&O::profile>,
     "time the simulator's own stages and report uops/sec"},
    {"--flight-recorder", "DIR", kBatch, {}, into<&O::flightDir>,
     "a failed cell leaves its event ring in DIR/cell_N.flight.jsonl"},
    {"--progress", "[=FD]", kBatch, {},
     [](O &o, const char *v) {
         o.sweep.progressFd = v ? parseUnsigned<int>(v) : 2;
     },
     "stream a JSON heartbeat line per finished cell to FD (default 2)"},
    {nullptr, nullptr, 0, {}, nullptr, "snapshots (docs/ROBUSTNESS.md):"},
    {"--snapshot", "FILE", kSingle, {"--snapshot-after"},
     into<&O::snapshotPath>, "checkpoint the machine to FILE, then run on"},
    {"--snapshot-after", "N", kSingle, {"--snapshot", "--validate-snapshot"},
     into<&O::snapshotAfter>, "cycle to checkpoint at"},
    {"--from-snapshot", "FILE", kSingle, {}, into<&O::fromSnapshot>,
     "restore FILE and simulate the remainder, bit-identically"},
    {"--validate-snapshot", nullptr, kSingle | kBatch, {},
     into<&O::validateSnapshot>,
     "fail unless a save/restore at --snapshot-after (default half the "
     "run; per batch cell, warmup_snapshot or half) is bit-identical"},
    {nullptr, nullptr, 0, {}, nullptr, "robustness (docs/ROBUSTNESS.md):"},
    {"--audit", nullptr, kConfigRuns, {},
     [](O &o, const char *) {
         if (o.cfg.auditInterval == 0)
             o.cfg.auditInterval = 8192;
     },
     "audit invariants every 8192 cycles (unless --audit-interval); a "
     "config layer"},
    {"--recover", nullptr, kTraceRuns, {"--trace-file", "--champsim"},
     into<&O::read, &RO::recover>, "skip malformed trace records"},
    {"--bad-record-budget", "N", kTraceRuns,
     {"--trace-file", "--champsim", "--inject-trace-faults"},
     into<&O::read, &RO::badRecordBudget>,
     "abort after N skipped records (default unlimited)"},
    {"--inject-trace-faults", nullptr, kTraceRuns, {},
     into<&O::injectTraceFaults>,
     "corrupt the trace (rate 0.01 unless --fault-trace-rate) and read "
     "it back in recovery mode"},
    {"--fault-seed", "N", kTraceRuns,
     {"--inject-trace-faults", "--fault-bit-rate", "--fault-lat-rate"},
     into<&O::faults, &FC::seed>, "fault injector seed"},
    {"--fault-trace-rate", "R", kTraceRuns, {"--inject-trace-faults"},
     into<&O::faults, &FC::traceRate>, "per-record corruption probability"},
    {"--fault-bit-rate", "R", kSingle, {}, into<&O::faults, &FC::bitRate>,
     "per-load CHT bit-flip probability"},
    {"--fault-lat-rate", "R", kSingle, {}, into<&O::faults, &FC::latRate>,
     "per-access latency perturbation probability"},
    {nullptr, nullptr, 0, {}, nullptr, "sweeps (docs/ROBUSTNESS.md):"},
    {"--journal", "PATH", kBatch, {}, into<&O::sweep, &SO::journalPath>,
     "append a crash-safe checkpoint record per finished cell"},
    {"--resume", "[PATH]", kBatch, {"--journal"},
     [](O &o, const char *v) {
         o.sweep.resume = true;
         o.sweep.journalPath = v ? v : o.sweep.journalPath;
     },
     "skip the cells the journal (PATH, else --journal's) holds as OK"},
    {"--retries", "N", kBatch, {}, into<&O::sweep, &SO::retries>,
     "re-run FAILED/TIMEOUT/CRASHED cells up to N extra times"},
    {"--isolate", nullptr, kBatch, {}, into<&O::sweep, &SO::isolate>,
     "fork each cell into a subprocess; a crash fails only that cell"},
    {"--cell-timeout-ms", "N", kBatch, {"--isolate"},
     into<&O::sweep, &SO::cellTimeoutMs>,
     "wall-clock watchdog per isolated cell (0 disables)"},
    {nullptr, nullptr, 0, {}, nullptr,
     "machine config (its layers apply in command-line order):"},
    {"--config", "PATH", kConfigRuns, {},
     [](O &o, const char *v) { o.cfg = machineConfigFromFile(v, o.cfg); },
     "load a machine config file (see --dump-config)"},
    // --compare-schemes and the --batch schemes axis set each cell's
    // scheme themselves.
    {"--scheme", "NAME", kSingle | kFamilies | kDumpConfig, {},
     [](O &o, const char *v) { setMachineConfigFlag(o.cfg, "--scheme", v); },
     nullptr},
};

/** The row of every other config flag, a kFields row (config_io.cc). */
const Flag kConfigFlag = {"", "VALUE", kConfigRuns, {}, nullptr, nullptr};

const Flag *
findFlag(std::string_view name)
{
    for (const Flag &f : kFlags) {
        if (f.name && name == f.name)
            return &f;
    }
    return isMachineConfigFlag(name) ? &kConfigFlag : nullptr;
}

/** "a, b or c": the @p names, up to a null, whose bit is in @p mask. */
template <std::size_t N>
std::string
orList(const std::array<const char *, N> &names, unsigned mask = ~0u)
{
    std::vector<std::string> on;
    for (std::size_t i = 0; i < N && names[i]; ++i) {
        if (mask >> i & 1u)
            on.push_back(names[i]);
    }
    std::string out;
    for (std::size_t i = 0; i < on.size(); ++i)
        out += (i == 0 ? "" : i + 1 < on.size() ? ", " : " or ") + on[i];
    return out;
}

/** Print @p why, if any, then the help, and exit with @p code. */
[[noreturn]] void
usage(FILE *out, int code, const char *argv0, const std::string &why = "")
{
    if (!why.empty())
        std::fprintf(out, "%s\n", why.c_str());
    std::fprintf(out, "usage: %s [options]\n", argv0);
    std::string note =
        "config flags are for " + orList(kRunNames, kConfigRuns);
    for (const Flag &f : kFlags) {
        if (!f.name) {
            std::fprintf(out, "%s\n", f.help);
            continue;
        }
        std::string head = f.name, runs = orList(kRunNames, f.runs);
        if (f.operand)
            head += (f.operand[1] == '=' ? "" : " ") + std::string(f.operand);
        if (f.needs[0])
            runs += ", with " + orList(f.needs);
        if (!f.help)
            note += "; " + head + " only for " + runs;
        else if (f.runs & kAsks)
            std::fputs(helpEntry(head, f.help).c_str(), out);
        else
            std::fputs(helpEntry(head, f.help + (". For " + runs)).c_str(),
                       out);
    }
    std::fputs(machineConfigFlagHelp().c_str(), out);
    std::fputs(helpEntry("", "(" + note + ")").c_str(), out);
    std::fputs("exit codes: 0 ok, 1 runtime/audit failure, 2 usage, 3 bad "
               "config, 4 I/O,\n            5 interrupted (resume with "
               "--resume)\n",
               out);
    std::exit(code);
}

/** A flag as given, and its operand (null if it took none). */
using Given = std::tuple<std::string, const Flag *, const char *>;

/**
 * Set Options::run from @p given and return the usage error of the
 * first flag, in command-line order, that follows a flag of the same
 * kOneOf mark, that the run does not read or whose dependency is
 * missing, or "".
 */
std::string
checkFlags(Options &o, const std::vector<Given> &given)
{
    const auto asks = [](const Given &g) {
        return (std::get<1>(g)->runs & kAsks) != 0;
    };
    const auto first = std::find_if(given.begin(), given.end(), asks);
    o.run = first == given.end() ? kSingle
                                 : std::get<1>(*first)->runs & ~kAsks;
    const auto isGiven = [&](const char *name) {
        return name && std::any_of(given.begin(), given.end(),
                                   [&](const Given &g) {
                                       return std::get<0>(g) == name;
                                   });
    };
    for (auto g = given.begin(); g != given.end(); ++g) {
        const auto &[name, f, value] = *g;
        const bool own_operand = value && f->operand && f->operand[0] == '[';
        for (const auto &[mark, why] : kOneOf) {
            const auto same = std::find_if(given.begin(), g, [&](auto &e) {
                return std::get<1>(e)->runs & mark;
            });
            if (f->runs & mark && same != g)
                return name + " conflicts with " + std::get<0>(*same) +
                       ": " + why;
        }
        if (!(f->runs & o.run))
            return name + " needs " + orList(kRunNames, f->runs);
        if (f->needs[0] && !own_operand &&
            std::none_of(f->needs.begin(), f->needs.end(), isGiven))
            return name + " needs " + orList(f->needs);
    }
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    {
        // SIGINT/SIGTERM request a cooperative stop: running cells
        // unwind, the journal stays consistent, and we exit with the
        // distinct "interrupted" code. SA_RESTART keeps the blocking
        // file I/O paths oblivious; the cycle loop polls the flag.
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = &lrsOnSweepSignal;
        sa.sa_flags = SA_RESTART;
        ::sigemptyset(&sa.sa_mask);
        ::sigaction(SIGINT, &sa, nullptr);
        ::sigaction(SIGTERM, &sa, nullptr);
    }

    Options o;
    std::vector<Given> given;
    // The flag being applied, so that a bad value's error names it.
    std::string flag;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--help" || a == "-h")
                usage(stdout, kExitOk, argv[0]);
            const auto eq = a.find('=');
            const std::string name = a.substr(0, eq);
            const Flag *f = findFlag(name);
            const char *operand = f ? f->operand : nullptr;
            // An optional operand is the next argument unless that is
            // a flag, or attached with '=' ("[=X]").
            const bool optional = operand && operand[0] == '[';
            const bool attached = optional && operand[1] == '=';
            if (!f || (eq != a.npos && !attached))
                usage(stderr, kExitUsage, argv[0], "unknown option: " + a);
            const char *value = eq != a.npos ? argv[i] + eq + 1 : nullptr;
            if (operand && !attached) {
                if (i + 1 < argc && !(optional && argv[i + 1][0] == '-'))
                    value = argv[++i];
                else if (!optional)
                    usage(stderr, kExitUsage, argv[0]);
            }
            given.emplace_back(name, f, value);
        }
        if (const std::string bad = checkFlags(o, given); !bad.empty())
            usage(stderr, kExitUsage, argv[0], bad);
        // lrs_sim's machine has the CHT track distances; a --batch
        // grid starts from the library default, as perfbench's do.
        o.cfg.cht.trackDistance = o.run != kBatch;
        for (const auto &[name, f, value] : given) {
            flag = name;
            if (f == &kConfigFlag)
                setMachineConfigFlag(o.cfg, name, value);
            else if (f->set)
                f->set(o, value);
        }
        flag.clear();
        if (o.sweep.resume && o.sweep.journalPath.empty())
            usage(stderr, kExitUsage, argv[0],
                  "--resume needs a journal path: --resume or --journal PATH");
        // The config every layer left, checked as a --config file is.
        if (o.run & kConfigRuns)
            o.cfg.validateOrThrow();
        if (o.profile)
            prof::setEnabled(true);
        switch (o.run) {
          case kDumpConfig:
            std::cout << machineConfigToIni(o.cfg);
            return kExitOk;
          case kCheckJournal:
            return checkJournal(o.runPath);
          case kBatch:
            return runBatch(o);
          case kFamilies:
            return runFamilies(o);
          default:
            return runTrace(o);
        }
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "config error:\n%s\n", e.what());
        return kExitConfig;
    } catch (const IoError &e) { // includes TraceError
        std::fprintf(stderr, "I/O error:\n%s\n", e.what());
        return kExitIo;
    } catch (const AuditError &e) {
        std::fprintf(stderr,
                     "AUDIT FAILURE — simulator state is corrupt, "
                     "results are untrustworthy:\n%s\n",
                     e.what());
        return kExitRuntime;
    } catch (const InterruptError &e) {
        std::fprintf(stderr, "interrupted:\n%s\n", e.what());
        return kExitInterrupted;
    } catch (const std::invalid_argument &e) {
        // Flag-value parse errors (strict integers, the config flags
        // and the fault rates) name their flag.
        std::fprintf(stderr, "error: %s%s%s\n", flag.c_str(),
                     flag.empty() ? "" : ": ", e.what());
        return kExitUsage;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitRuntime;
    }
}
