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
#include <utility>

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

[[noreturn]] void
usage(FILE *out, int code, const char *argv0)
{
    std::fprintf(out, "usage: %s [options]\n", argv0);
    std::fputs(R"(trace selection:
  --trace NAME          named synthetic trace (e.g. wd, gcc, swim, tpcc)
  --trace-file PATH     run a serialised trace file instead
  --champsim PATH       ingest a raw ChampSim input_instr trace ('-' reads
                        stdin); hostile-input-proof — see docs/TRACES.md
                        (--len bounds the instruction count; --recover and
                        --bad-record-budget apply)
  --max-pages N         refuse a ChampSim trace touching more distinct 4KiB
                        pages (default 1048576)
  --max-file-bytes N    refuse a ChampSim source larger than N bytes
                        (default 2147483648)
  --len N               uops to generate (default 200000)
  --families            run the adversarial workload families (spoiler4k,
                        flipper, gcmark) under a predictor-active machine
                        and report per-family CHT/HMP/bank accuracy (adds a
                        "families" block to --json)
machine config (flags and --config files apply in command-line order):
  --config PATH         load a machine config file (see --dump-config)
  --dump-config         print the final config as INI and exit
)",
               out);
    std::fputs(machineConfigFlagHelp().c_str(), out);
    std::fputs(R"(runs and output:
  --compare-schemes     run all ordering schemes and report speedups
  --batch PATH          run a (traces x schemes) grid from a grid file
                        (keys: traces, schemes, len, jobs; any other
                        "key = value" line is the shared machine config)
  --jobs N              worker threads for --batch and --compare-schemes
                        (default: LRS_JOBS, else hardware concurrency;
                        results are identical for any N)
  --dump-trace PATH     write the generated trace and exit
  --json PATH           write the result (all counters, interval series,
                        stats registry) as JSON; '-' writes JSON to stdout
                        (human-readable output then goes to stderr)
  --trace-events PATH   record per-uop pipeline events and write a Chrome
                        trace_event file (chrome://tracing / Perfetto)
  --trace-buf N         event ring-buffer capacity (default 262144; needs
                        --trace-events)
telemetry (docs/OBSERVABILITY.md):
  --histograms          collect deterministic log2 histograms (load-to-use
                        delay, replay distance, occupancy, predictor
                        confidence); exported under "histograms"
  --profile             time the simulator's own stages (host clock) and
                        report the breakdown + uops/sec (stderr and a
                        "profile" JSON block)
  --flight-recorder DIR keep a per-cell event ring during --batch; a failed
                        cell leaves DIR/cell_N.flight.jsonl (CRC-framed)
  --progress[=FD]       stream one JSON heartbeat line per finished --batch
                        cell to FD (default 2, stderr)
  --check-journal PATH  validate a CRC-framed JSONL file (checkpoint journal,
                        flight dump, or machine snapshot — snapshots get the
                        full strict structural check); exit nonzero on damage
machine snapshots (docs/ROBUSTNESS.md, "Snapshots"):
  --snapshot FILE       checkpoint the machine state to FILE during a single
                        run (atomic tmp+rename; requires --snapshot-after)
  --snapshot-after N    cycle to checkpoint at (the run then continues to
                        completion as usual; needs --snapshot or
                        --validate-snapshot)
  --from-snapshot FILE  restore FILE instead of starting cold and simulate
                        the remainder; stats are bit-identical to the
                        uninterrupted run under the same config
  --validate-snapshot   prove that contract: run everything twice (full, and
                        through a save/restore at --snapshot-after, default
                        half the run; for --batch: warmup_snapshot or half,
                        per cell) and fail on any non-identical statistic
                        (grid key warmup_snapshot=N warms each trace once and
                        forks every scheme cell from the checkpoint)
robustness (docs/ROBUSTNESS.md):
  --audit               audit ROB/window/MOB invariants (LRS_AUDIT=1)
  --recover             skip malformed trace records instead of aborting
  --bad-record-budget N abort after N skipped records (default unlimited)
  --inject-trace-faults corrupt the trace through the fault injector and
                        read it back in recovery mode
  --fault-seed N        fault injector seed (LRS_FAULT_SEED)
  --fault-trace-rate R  per-record corruption probability
                        (LRS_FAULT_TRACE_RATE; needs --inject-trace-faults)
  --fault-bit-rate R    per-load CHT bit-flip probability (LRS_FAULT_BIT_RATE)
  --fault-lat-rate R    per-access latency perturbation probability
                        (LRS_FAULT_LAT_RATE)
                        (fault settings need a single run; --compare-schemes
                        and --dump-trace take only the trace corruption)
resilient sweeps (docs/ROBUSTNESS.md, "Sweep supervisor"):
  --journal PATH        append one crash-safe checkpoint record per finished
                        --batch cell (CRC-guarded JSONL, fsync per record)
  --resume [PATH]       validate the journal against the grid, skip cells it
                        records as OK, and keep appending to it (PATH may be
                        omitted when --journal PATH names the journal)
  --retries N           re-run FAILED/TIMEOUT/CRASHED cells up to N extra
                        times
  --isolate             fork each cell into a subprocess; a crash (SIGSEGV,
                        abort) marks only that cell CRASHED
  --cell-timeout-ms N   wall-clock watchdog per isolated cell (SIGKILL +
                        TIMEOUT on expiry; 0 disables)
exit codes: 0 ok, 1 runtime/audit failure, 2 usage, 3 bad config, 4 I/O,
            5 interrupted (SIGINT/SIGTERM; resume with --resume)
)",
               out);
    std::exit(code);
}

void
printResult(FILE *out, const SimResult &r)
{
    const auto pct = [&](std::uint64_t n, std::uint64_t d) {
        return d ? 100.0 * static_cast<double>(n) /
                       static_cast<double>(d)
                 : 0.0;
    };
    std::fprintf(out, "trace          %s\n", r.trace.c_str());
    std::fprintf(out, "config         %s\n", r.config.c_str());
    std::fprintf(out, "cycles         %llu\n",
                 static_cast<unsigned long long>(r.cycles));
    std::fprintf(out, "uops           %llu (IPC %.2f)\n",
                 static_cast<unsigned long long>(r.uops), r.ipc());
    std::fprintf(out, "loads          %llu (%.1f%% of uops)\n",
                 static_cast<unsigned long long>(r.loads),
                 pct(r.loads, r.uops));
    std::fprintf(out,
                 "  no-conflict  %.1f%%   ANC %.1f%%   AC %.1f%%\n",
                 pct(r.notConflicting, r.classifiedLoads()),
                 pct(r.ancPnc + r.ancPc, r.classifiedLoads()),
                 pct(r.actuallyColliding(), r.classifiedLoads()));
    std::fprintf(out,
                 "  pred mix     AC-PC %.2f%%  AC-PNC %.2f%%  "
                 "ANC-PC %.2f%%\n",
                 pct(r.acPc, r.classifiedLoads()),
                 pct(r.acPnc, r.classifiedLoads()),
                 pct(r.ancPc, r.classifiedLoads()));
    std::fprintf(out,
                 "  forwarded    %llu   penalized %llu   violations "
                 "%llu\n",
                 static_cast<unsigned long long>(r.forwarded),
                 static_cast<unsigned long long>(r.collisionPenalties),
                 static_cast<unsigned long long>(r.orderViolations));
    std::fprintf(out,
                 "L1 misses      %llu (%.2f%% of loads, %llu "
                 "dynamic)\n",
                 static_cast<unsigned long long>(r.l1Misses),
                 pct(r.l1Misses, r.loads),
                 static_cast<unsigned long long>(r.dynamicMisses));
    std::fprintf(out,
                 "hit-miss pred  AH-PH %llu  AH-PM %llu  AM-PH %llu  "
                 "AM-PM %llu\n",
                 static_cast<unsigned long long>(r.ahPh),
                 static_cast<unsigned long long>(r.ahPm),
                 static_cast<unsigned long long>(r.amPh),
                 static_cast<unsigned long long>(r.amPm));
    std::fprintf(out, "branches       %llu (%.2f%% mispredicted)\n",
                 static_cast<unsigned long long>(r.branches),
                 pct(r.branchMispredicts, r.branches));
    std::fprintf(out,
                 "issue waste    %llu wasted slots, %llu replayed "
                 "uops\n",
                 static_cast<unsigned long long>(r.wastedIssues),
                 static_cast<unsigned long long>(r.replayedUops));
    if (r.bankConflicts || r.bankMispredicts || r.bankReplications) {
        std::fprintf(
            out,
            "banked pipe    %llu conflicts, %llu mispredicts, "
            "%llu replications\n",
            static_cast<unsigned long long>(r.bankConflicts),
            static_cast<unsigned long long>(r.bankMispredicts),
            static_cast<unsigned long long>(r.bankReplications));
    }
}

} // namespace

namespace
{

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        throw IoError(makeDiag(DiagCode::IoOpenFailed, "lrs_sim",
                               "path", "cannot open " + path));
    }
    os << text;
    if (!os) {
        throw IoError(makeDiag(DiagCode::IoWriteFailed, "lrs_sim",
                               "path", "write failed: " + path));
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
    writeTextFile(path, out.dump(2));
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
runBatch(const std::string &path, unsigned jobs_flag,
         const std::string &json_path, SweepOptions sopts,
         std::uint64_t max_cycles, bool histograms, bool profile,
         const std::string &flight_dir, bool validate_snapshot)
{
    BatchGrid grid = parseBatchGridFile(path);
    if (max_cycles)
        grid.base.maxCycles = max_cycles;
    if (histograms)
        grid.base.collectHistograms = true;
    const bool hist_on = grid.base.collectHistograms;

    std::vector<SimJob> jobs;
    std::vector<std::string> keys;
    buildGridJobs(grid, jobs, keys);

    sopts.workers = jobs_flag ? jobs_flag : grid.jobs;

    // Warm-once sampling: checkpoint each trace once under the base
    // config, then fork every scheme cell from the checkpoint. In
    // --validate-snapshot mode cells instead run cold AND through a
    // same-config save/restore (below), so the fork is skipped — the
    // validation target is the bit-identity contract, and cross-scheme
    // forks are a deliberate protocol change, not bit-equivalence.
    std::string snap_dir;
    if (grid.warmupSnapshot || validate_snapshot)
        snap_dir = snapshotDirFor(grid, path);
    if (grid.warmupSnapshot && !validate_snapshot) {
        const auto warm0 = std::chrono::steady_clock::now();
        prepareWarmupSnapshots(grid, snap_dir, sopts.workers);
        attachWarmupSnapshots(grid, snap_dir, jobs);
        const double warm_wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - warm0)
                .count();
        std::fprintf(
            stderr,
            "warmup: %zu trace(s) checkpointed at cycle %llu in "
            "%.2fs (%s); %zu cell(s) fork from the checkpoints\n",
            grid.traces.size(),
            static_cast<unsigned long long>(grid.warmupSnapshot),
            warm_wall, snap_dir.c_str(), jobs.size());
    } else if (validate_snapshot) {
        std::error_code ec;
        std::filesystem::create_directories(snap_dir, ec);
        if (ec) {
            throw IoError(makeDiag(DiagCode::IoOpenFailed, "lrs_sim",
                                   "validate-snapshot",
                                   "cannot create " + snap_dir + ": " +
                                       ec.message()));
        }
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
        return flight_dir + "/cell_" + std::to_string(cell) +
               ".flight.jsonl";
    };
    if (!flight_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(flight_dir, ec);
        if (ec) {
            throw IoError(makeDiag(DiagCode::IoOpenFailed, "lrs_sim",
                                   "flight-recorder",
                                   "cannot create " + flight_dir +
                                       ": " + ec.message()));
        }
    }

    SweepSupervisor sup(sopts);
    const auto wall0 = std::chrono::steady_clock::now();
    const std::vector<JobOutcome> outcomes =
        sup.run(jobs.size(), keys, [&](std::size_t cell, unsigned) {
            std::unique_ptr<FlightRecorder> fr;
            if (!flight_dir.empty()) {
                fr = std::make_unique<FlightRecorder>();
                fr->setIdentity(cell, keys[cell]);
                fr->setDumpPath(flightPath(cell));
            }
            if (cell == chaos_cell)
                ::raise(chaos_sig);
            JobOutcome o = runOneSimJob(jobs[cell], fr.get());
            if (validate_snapshot && o.status == CellStatus::Ok) {
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
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall0)
            .count();

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
            const bool cut =
                o.code == diagCodeName(DiagCode::Interrupted);
            if (!cut) {
                any_gave_up = true;
                std::fprintf(
                    stderr,
                    "batch cell %s %s [%s] after %u attempt(s): %s\n",
                    keys[i].c_str(), cellStatusName(o.status),
                    o.code.c_str(), o.attempts, o.error.c_str());
            }
            t.cell(cellStatusName(o.status));
            t.cell("-");
            t.cell("-");
            t.cell("-");
            json::Value f = outcomeRecord(i, keys[i], o);
            if (!flight_dir.empty()) {
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
        t.cell(strprintf(
            "%llu", static_cast<unsigned long long>(o.result.cycles)));
        t.cell(o.result.ipc(), 2);
        if (base.status == CellStatus::Ok ||
            base.status == CellStatus::Skipped)
            t.cell(o.result.speedupOver(base.result), 3);
        else
            t.cell("-");
        rows.push(o.resultJson.isNull() ? o.result.toJson()
                                        : o.resultJson);
    }
    t.print(json_path == "-" ? std::cerr : std::cout);

    // Fresh simulated uops this run (resumed cells did no host work).
    const SweepStats &ss = sup.sweepStats();
    if (profile)
        std::fputs(prof::reportText(ss.uops, wall).c_str(), stderr);

    if (!json_path.empty()) {
        json::Value doc = json::Value::object();
        doc.set("grid", std::move(rows));
        if (hist_on) {
            // Merge per-cell histograms serially in ascending cell-id
            // order — exact u64 adds, so the aggregate is
            // bit-identical for any worker count (the same
            // determinism contract as the table rows). Resumed cells
            // contribute their journaled histograms, so a resumed
            // sweep aggregates identically to an uninterrupted one.
            std::vector<std::string> order;
            std::map<std::string, Log2Histogram> merged;
            for (const JobOutcome &o : outcomes) {
                if (o.status != CellStatus::Ok &&
                    o.status != CellStatus::Skipped)
                    continue;
                const json::Value *h =
                    o.resultJson.isObject()
                        ? o.resultJson.find("histograms")
                        : nullptr;
                if (!h || !h->isObject())
                    continue;
                for (const auto &m : h->members()) {
                    auto it = merged.find(m.first);
                    if (it == merged.end()) {
                        order.push_back(m.first);
                        merged.emplace(
                            m.first, Log2Histogram::fromJson(m.second));
                    } else {
                        it->second.merge(
                            Log2Histogram::fromJson(m.second));
                    }
                }
            }
            json::Value hj = json::Value::object();
            for (const std::string &name : order)
                hj.set(name, merged.at(name).toJson());
            doc.set("histograms", std::move(hj));
        }
        if (profile)
            doc.set("profile", prof::reportJson(ss.uops, wall));
        if (fails.size())
            doc.set("failures", std::move(fails));
        if (sup.interrupted())
            doc.set("interrupted", true);
        emitJson(json_path, doc);
    }

    const auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    std::fprintf(stderr,
                 "sweep: %llu cells: %llu ok, %llu resumed, %llu "
                 "failed, %llu timeout, %llu crashed, %llu not-run; "
                 "%llu retries, %llu gave up\n",
                 u(ss.cells), u(ss.ok), u(ss.skipped), u(ss.failed),
                 u(ss.timeout), u(ss.crashed), u(ss.interrupted),
                 u(ss.retries), u(ss.gaveUp));
    if (sup.interrupted()) {
        if (!sopts.journalPath.empty()) {
            std::fprintf(stderr,
                         "sweep interrupted; continue with "
                         "--batch %s --resume %s\n",
                         path.c_str(), sopts.journalPath.c_str());
        } else {
            std::fprintf(stderr,
                         "sweep interrupted (no --journal: completed "
                         "cells were not checkpointed)\n");
        }
        return kExitInterrupted;
    }
    return any_gave_up ? kExitRuntime : kExitOk;
}

/**
 * --families: run every adversarial workload family under a machine
 * with all three predictors engaged (CHT-based Inclusive ordering,
 * chooser HMP, sliced banks with the stride bank predictor) and report
 * how each predictor holds up per family. These workloads are built to
 * strain specific predictors — spoiler4k floods the CHT with
 * 4K-aliasing store/load fans, flipper phase-inverts collision and
 * hit/miss behaviour, gcmark drags a pointer-chase through a
 * cache-hostile footprint — so the per-family accuracy triple is the
 * robustness profile the JSON "families" block exports.
 */
int
runFamilies(MachineConfig cfg, std::uint64_t len,
            const std::string &json_path)
{
    cfg.scheme = OrderingScheme::Inclusive;
    cfg.hmp = HmpKind::Chooser;
    cfg.bankMode = BankMode::Sliced;
    cfg.bankPred = BankPredKind::Addr;
    cfg.validateOrThrow();

    const auto ratio = [](std::uint64_t n, std::uint64_t d) {
        return d ? static_cast<double>(n) / static_cast<double>(d)
                 : 0.0;
    };

    TextTable t({"family", "cycles", "IPC", "CHT acc", "HMP acc",
                 "bank acc"});
    json::Value fam = json::Value::object();
    for (const std::string &name :
         TraceLibrary::names(TraceGroup::Adversarial)) {
        const auto trace =
            TraceLibrary::make(TraceLibrary::byName(name, len));
        OooCore core(cfg);
        const SimResult r = core.run(*trace);
        const std::uint64_t cls = r.classifiedLoads();
        const std::uint64_t hm = r.ahPh + r.ahPm + r.amPh + r.amPm;
        const double cht_acc = ratio(r.ancPnc + r.acPc, cls);
        const double hmp_acc = ratio(r.ahPh + r.amPm, hm);
        const double bank_acc =
            r.loads ? 1.0 - ratio(r.bankMispredicts, r.loads) : 0.0;
        t.startRow();
        t.cell(name);
        t.cell(strprintf(
            "%llu", static_cast<unsigned long long>(r.cycles)));
        t.cell(r.ipc(), 2);
        t.cell(cht_acc, 4);
        t.cell(hmp_acc, 4);
        t.cell(bank_acc, 4);
        json::Value f = json::Value::object();
        f.set("cht_accuracy", cht_acc);
        f.set("hmp_accuracy", hmp_acc);
        f.set("bank_accuracy", bank_acc);
        f.set("result", r.toJson());
        fam.set(name, std::move(f));
    }
    t.print(json_path == "-" ? std::cerr : std::cout);
    if (!json_path.empty()) {
        json::Value doc = json::Value::object();
        doc.set("families", std::move(fam));
        emitJson(json_path, doc);
    }
    return kExitOk;
}

/**
 * Push the trace through the fault injector at the serialized-bytes
 * level (header protected) and read it back in recovery mode — the
 * end-to-end graceful-degradation path.
 */
std::unique_ptr<VecTrace>
injectTraceFaults(const VecTrace &trace, FaultInjector &fi,
                  const TraceReadOptions &opts, TraceReadStats &st)
{
    std::stringstream ss;
    writeTrace(ss, trace);
    std::string bytes = ss.str();
    fi.corruptBuffer(reinterpret_cast<std::uint8_t *>(bytes.data()),
                     bytes.size(), traceHeaderBytes(trace.name()),
                     kTraceRecordBytes);
    std::stringstream back(bytes);
    TraceReadOptions o = opts;
    o.recover = true;
    return readTrace(back, o, &st);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_name = "wd";
    std::string trace_file;
    std::string champsim_file;
    bool families = false;
    ChampSimReadOptions cs_opts;
    std::string dump_path;
    std::string json_path;
    std::string trace_events_path;
    std::optional<std::uint64_t> trace_buf;
    std::uint64_t len = 200000;
    unsigned jobs_flag = 0;
    std::string batch_path;
    SweepOptions sweep_opts;
    bool compare = false;
    bool dump_config = false;
    bool profile = false;
    std::string flight_dir;
    std::string check_journal_path;
    std::string snapshot_path;
    std::string from_snapshot;
    std::optional<std::uint64_t> snapshot_after;
    bool validate_snapshot = false;
    bool inject_trace_faults = false;
    TraceReadOptions read_opts;
    FaultConfig fault_cfg = FaultConfig::fromEnv();
    // The --fault-*-rate flags given, if any (see the mode check).
    const char *trace_rate_flag = nullptr;
    const char *bit_rate_flag = nullptr;
    const char *lat_rate_flag = nullptr;

    MachineConfig cfg;
    cfg.cht.trackDistance = true;
    if (const char *v = std::getenv("LRS_AUDIT");
        v && *v && std::string(v) != "0") {
        cfg.auditInterval = 8192;
    }

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

    // The flag being parsed, so that a bad value's error names it.
    std::string flag;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = flag = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    usage(stderr, kExitUsage, argv[0]);
                return argv[++i];
            };
            if (a == "--trace") trace_name = next();
            else if (a == "--trace-file") trace_file = next();
            else if (a == "--champsim") champsim_file = next();
            else if (a == "--families") families = true;
            else if (a == "--max-pages")
                cs_opts.maxPages = parseUnsigned(next());
            else if (a == "--max-file-bytes")
                cs_opts.maxFileBytes = parseUnsigned(next());
            else if (a == "--len") len = parseUnsigned(next());
            else if (isMachineConfigFlag(a))
                setMachineConfigFlag(cfg, a, next());
            else if (a == "--config")
                cfg = machineConfigFromFile(next(), cfg);
            else if (a == "--dump-config") dump_config = true;
            else if (a == "--compare-schemes") compare = true;
            else if (a == "--batch") batch_path = next();
            else if (a == "--jobs")
                jobs_flag = parseUnsigned<unsigned>(next());
            else if (a == "--journal")
                sweep_opts.journalPath = next();
            else if (a == "--resume") {
                // The journal operand is optional so bare --resume
                // composes with an explicit --journal PATH. The old
                // unconditional next() consumed whatever followed —
                // "--resume --progress=3" silently made
                // "--progress=3" the journal path and re-ran the
                // whole grid as fresh work.
                sweep_opts.resume = true;
                if (i + 1 < argc && argv[i + 1][0] != '-')
                    sweep_opts.journalPath = argv[++i];
            }
            else if (a == "--retries")
                sweep_opts.retries = parseUnsigned<unsigned>(next());
            else if (a == "--isolate") sweep_opts.isolate = true;
            else if (a == "--cell-timeout-ms")
                sweep_opts.cellTimeoutMs = parseUnsigned(next());
            else if (a == "--histograms")
                cfg.collectHistograms = true;
            else if (a == "--profile") profile = true;
            else if (a == "--flight-recorder") flight_dir = next();
            else if (a == "--progress") sweep_opts.progressFd = 2;
            else if (a.rfind("--progress=", 0) == 0)
                sweep_opts.progressFd =
                    parseUnsigned<int>(a.substr(11));
            else if (a == "--check-journal")
                check_journal_path = next();
            else if (a == "--snapshot") snapshot_path = next();
            else if (a == "--snapshot-after")
                snapshot_after = parseUnsigned(next());
            else if (a == "--from-snapshot") from_snapshot = next();
            else if (a == "--validate-snapshot")
                validate_snapshot = true;
            else if (a == "--dump-trace") dump_path = next();
            else if (a == "--json") json_path = next();
            else if (a == "--trace-events")
                trace_events_path = next();
            else if (a == "--trace-buf") trace_buf = parseUnsigned(next());
            else if (a == "--audit") {
                if (cfg.auditInterval == 0)
                    cfg.auditInterval = 8192;
            }
            else if (a == "--recover") read_opts.recover = true;
            else if (a == "--bad-record-budget")
                read_opts.badRecordBudget = parseUnsigned(next());
            else if (a == "--inject-trace-faults")
                inject_trace_faults = true;
            else if (a == "--fault-seed")
                fault_cfg.seed = parseUnsigned(next());
            else if (a == "--fault-trace-rate") {
                fault_cfg.traceRate = parseRate(next());
                trace_rate_flag = "--fault-trace-rate";
            } else if (a == "--fault-bit-rate") {
                fault_cfg.bitRate = parseRate(next());
                bit_rate_flag = "--fault-bit-rate";
            } else if (a == "--fault-lat-rate") {
                fault_cfg.latRate = parseRate(next());
                lat_rate_flag = "--fault-lat-rate";
            }
            else if (a == "--help" || a == "-h")
                usage(stdout, kExitOk, argv[0]);
            else {
                std::fprintf(stderr, "unknown option: %s\n", a.c_str());
                usage(stderr, kExitUsage, argv[0]);
            }
        }
        flag.clear();
        if (dump_config) {
            // The config every flag left, checked as --config checks
            // a file.
            cfg.validateOrThrow();
            std::cout << machineConfigToIni(cfg);
            return kExitOk;
        }
        if (!check_journal_path.empty()) {
            // Offline CRC validation of any LRSJ1-framed file: a
            // checkpoint journal or a flight-recorder dump.
            JournalReadStats jst;
            const std::vector<json::Value> recs =
                readJournal(check_journal_path, &jst);
            // Wrong-format diagnosis before damage accounting: a file
            // with zero valid records that does not even open with
            // the "LRSJ1 " magic was never a journal — and the most
            // common mix-up is pointing this at a raw ChampSim trace.
            // (A real journal whose every record is damaged still
            // starts with the magic and gets the damage report.)
            if (recs.empty() && jst.badLines &&
                !startsWithJournalMagic(check_journal_path)) {
                const bool champsim =
                    looksLikeChampSimFile(check_journal_path);
                std::fprintf(stderr, "%s: not an LRSJ1 file%s\n",
                             check_journal_path.c_str(),
                             champsim
                                 ? " (looks like a raw ChampSim trace; "
                                   "run it with --champsim instead)"
                                 : "");
                return kExitRuntime;
            }
            // A machine snapshot announces itself in its first
            // record; those get the full strict structural check on
            // top of line-level CRC validation.
            if (!jst.badLines && !recs.empty() &&
                recs.front().isObject()) {
                const json::Value *kind = recs.front().find("kind");
                if (kind && kind->isString() &&
                    kind->asString() == "lrs-snapshot") {
                    try {
                        const SnapshotImage img =
                            readSnapshot(check_journal_path);
                        std::printf(
                            "%s: valid snapshot (format v%llu, trace "
                            "%s, cycle %llu, %zu section(s))\n",
                            check_journal_path.c_str(),
                            static_cast<unsigned long long>(
                                img.version),
                            img.traceName.c_str(),
                            static_cast<unsigned long long>(
                                img.cycle),
                            img.state.members().size());
                        return kExitOk;
                    } catch (const ConfigError &e) {
                        std::fprintf(stderr,
                                     "%s: invalid snapshot:\n%s\n",
                                     check_journal_path.c_str(),
                                     e.what());
                        return kExitRuntime;
                    }
                }
            }
            std::printf("%s: %zu valid record(s)\n",
                        check_journal_path.c_str(), recs.size());
            if (jst.badLines) {
                std::fprintf(
                    stderr,
                    "%s: %llu damaged line(s), %llu byte(s) "
                    "dropped%s; first damaged record: line %llu, "
                    "byte offset %llu\n",
                    check_journal_path.c_str(),
                    static_cast<unsigned long long>(jst.badLines),
                    static_cast<unsigned long long>(jst.droppedBytes),
                    jst.truncatedTail ? " (torn tail)" : "",
                    static_cast<unsigned long long>(jst.firstBadLine),
                    static_cast<unsigned long long>(
                        jst.firstBadOffset));
                return kExitRuntime;
            }
            return kExitOk;
        }
        if (profile)
            prof::setEnabled(true);
        // --jobs also sizes the parallelFor() behind runAllSchemes
        // (used by --compare-schemes), which reads LRS_JOBS.
        if (jobs_flag)
            ::setenv("LRS_JOBS", std::to_string(jobs_flag).c_str(), 1);
        // A flag whose work needs another flag or another mode would
        // be silently ignored without it: name the first such flag.
        const auto need = [&](bool missing, const char *flag,
                              const char *what) {
            if (missing) {
                std::fprintf(stderr, "%s needs %s\n", flag, what);
                usage(stderr, kExitUsage, argv[0]);
            }
        };
        need(!snapshot_path.empty() && !snapshot_after, "--snapshot",
             "--snapshot-after N");
        // runBatch takes no --snapshot-after.
        need(snapshot_after &&
                 (!batch_path.empty() ||
                  (snapshot_path.empty() && !validate_snapshot)),
             "--snapshot-after", "--snapshot or --validate-snapshot");
        need(trace_buf && trace_events_path.empty(), "--trace-buf",
             "--trace-events");
        const bool no_batch = batch_path.empty();
        need(no_batch && sweep_opts.resume, "--resume", "--batch");
        need(no_batch && !sweep_opts.journalPath.empty(), "--journal",
             "--batch");
        need(no_batch && sweep_opts.retries, "--retries", "--batch");
        need(no_batch && sweep_opts.isolate, "--isolate", "--batch");
        need(no_batch && sweep_opts.cellTimeoutMs, "--cell-timeout-ms",
             "--batch");
        need(no_batch && !flight_dir.empty(), "--flight-recorder",
             "--batch");
        need(no_batch && sweep_opts.progressFd >= 0, "--progress",
             "--batch");
        // Fault injection reaches only the modes that build an
        // injector: a single run applies all of it, --compare-schemes
        // and --dump-trace only the trace corruption (no core gets the
        // injector), --batch and --families none. A setting the mode
        // would ignore is named instead: a flag, or a nonzero
        // LRS_FAULT_*_RATE.
        {
            const bool grid = !batch_path.empty() || families;
            const bool no_core = grid || compare || !dump_path.empty();
            const auto setBy = [](const char *flag, const char *env,
                                  double rate) -> const char * {
                return flag ? flag : rate > 0.0 ? env : nullptr;
            };
            const char *trace_rate = setBy(
                trace_rate_flag, "LRS_FAULT_TRACE_RATE",
                fault_cfg.traceRate);
            const std::pair<const char *, bool> settings[] = {
                {inject_trace_faults ? "--inject-trace-faults" : nullptr,
                 grid},
                {trace_rate, grid},
                {setBy(bit_rate_flag, "LRS_FAULT_BIT_RATE",
                       fault_cfg.bitRate),
                 no_core},
                {setBy(lat_rate_flag, "LRS_FAULT_LAT_RATE",
                       fault_cfg.latRate),
                 no_core},
            };
            for (const auto &[name, ignored] : settings)
                need(name && ignored, name, "a single run");
            // Only --inject-trace-faults corrupts the trace; a rate
            // without it would be reported but never applied.
            need(trace_rate && !inject_trace_faults, trace_rate,
                 "--inject-trace-faults");
        }
        need(sweep_opts.cellTimeoutMs && !sweep_opts.isolate,
             "--cell-timeout-ms",
             "--isolate (in-process cells use --max-cycles)");
        need(sweep_opts.resume && sweep_opts.journalPath.empty(),
             "--resume", "a journal path (operand or --journal PATH)");
        if (!batch_path.empty())
            return runBatch(batch_path, jobs_flag, json_path,
                            sweep_opts, cfg.maxCycles,
                            cfg.collectHistograms, profile,
                            flight_dir, validate_snapshot);

        if (families)
            return runFamilies(cfg, len, json_path);

        if (inject_trace_faults && fault_cfg.traceRate <= 0.0)
            fault_cfg.traceRate = 0.01;

        FaultInjector faults(fault_cfg);
        TraceReadStats read_stats;

        std::unique_ptr<VecTrace> trace;
        ChampSimTraceInfo cs_info;
        if (!champsim_file.empty()) {
            cs_opts.read = read_opts;
            cs_opts.maxInstructions = len;
            trace = readChampSimFile(champsim_file, cs_opts,
                                     &read_stats, &cs_info);
            std::fprintf(
                stderr,
                "champsim: %llu instruction(s) -> %zu uops, %llu "
                "byte(s), %llu page(s), crc32 %08x\n",
                static_cast<unsigned long long>(cs_info.instructions),
                trace->size(),
                static_cast<unsigned long long>(cs_info.bytes),
                static_cast<unsigned long long>(cs_info.pages),
                cs_info.crc);
        } else if (!trace_file.empty())
            trace = readTraceFile(trace_file, read_opts, &read_stats);
        else
            trace = TraceLibrary::make(
                TraceLibrary::byName(trace_name, len));

        if (inject_trace_faults) {
            trace = injectTraceFaults(*trace, faults, read_opts,
                                      read_stats);
            std::fprintf(stderr,
                         "fault injection: corrupted %llu records, "
                         "reader skipped %llu (seed %llu)\n",
                         static_cast<unsigned long long>(
                             faults.traceFaults()),
                         static_cast<unsigned long long>(
                             read_stats.skippedRecords),
                         static_cast<unsigned long long>(
                             fault_cfg.seed));
        }

        if (!dump_path.empty()) {
            writeTraceFile(dump_path, *trace);
            std::printf("wrote %zu uops to %s\n", trace->size(),
                        dump_path.c_str());
            return kExitOk;
        }

        if (compare) {
            const auto wall0 = std::chrono::steady_clock::now();
            const auto results = runAllSchemes(*trace, cfg);
            const double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();
            std::uint64_t total_uops = 0;
            for (const auto &r : results)
                total_uops += r.uops;
            if (profile)
                std::fputs(
                    prof::reportText(total_uops, wall).c_str(),
                    stderr);
            const SimResult &base = results.front();
            TextTable t({"scheme", "cycles", "IPC", "speedup"});
            for (std::size_t i = 0; i < results.size(); ++i) {
                t.startRow();
                t.cell(orderingSchemeName(allSchemes()[i]));
                t.cell(strprintf("%llu", static_cast<unsigned long long>(
                                             results[i].cycles)));
                t.cell(results[i].ipc(), 2);
                t.cell(results[i].speedupOver(base), 3);
            }
            t.print(std::cout);
            if (!json_path.empty()) {
                json::Value doc = json::Value::object();
                json::Value schemes = json::Value::array();
                for (const auto &r : results)
                    schemes.push(r.toJson());
                doc.set("schemes", std::move(schemes));
                if (profile)
                    doc.set("profile",
                            prof::reportJson(total_uops, wall));
                emitJson(json_path, doc);
            }
            return kExitOk;
        }

        OooCore core(cfg);
        // The reader/injector accounting joins the core's registry so
        // one JSON document tells the whole robustness story
        // ("trace.*", "fault.*", "audit.*").
        read_stats.registerStats(core.stats().group("trace"));
        faults.registerStats(core.stats().group("fault"));
        if (faults.enabled())
            core.attachFaultInjector(&faults);
        std::unique_ptr<PipelineTracer> tracer;
        if (!trace_events_path.empty()) {
            tracer = std::make_unique<PipelineTracer>(
                trace_buf.value_or(PipelineTracer::kDefaultCapacity));
            core.attachTracer(tracer.get());
        }
        const auto wall0 = std::chrono::steady_clock::now();
        SimResult r;
        if (!from_snapshot.empty()) {
            // Resume a checkpointed run: restore, then simulate only
            // the remainder. Statistics come out bit-identical to the
            // uninterrupted run under the same config.
            loadSnapshotInto(from_snapshot, core, *trace);
            core.advanceTo(*trace);
            r = core.finishRun();
        } else if (!snapshot_path.empty()) {
            core.beginRun(*trace);
            core.advanceTo(*trace, *snapshot_after);
            writeSnapshot(snapshot_path, core, *trace,
                          *snapshot_after);
            std::fprintf(stderr, "snapshot: %s at cycle %llu\n",
                         snapshot_path.c_str(),
                         static_cast<unsigned long long>(core.now()));
            core.advanceTo(*trace);
            r = core.finishRun();
        } else {
            r = core.run(*trace);
        }
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                wall0)
                                .count();
        if (validate_snapshot) {
            // Save/restore at --snapshot-after (default: half the run).
            const Cycle stop = snapshot_after.value_or(r.cycles / 2);
            if (!snapshotRoundTripIdentical(
                    cfg, fault_cfg, *trace, stop,
                    std::filesystem::temp_directory_path().string() +
                        "/lrs_validate_" + std::to_string(::getpid()) +
                        ".snap")) {
                std::fprintf(stderr,
                             "validate-snapshot: FAILED — round trip "
                             "at cycle %llu diverged from the full "
                             "run\n",
                             static_cast<unsigned long long>(stop));
                return kExitRuntime;
            }
            std::fprintf(stderr,
                         "validate-snapshot: OK — save/restore at "
                         "cycle %llu is bit-identical\n",
                         static_cast<unsigned long long>(stop));
        }
        printResult(json_path == "-" ? stderr : stdout, r);
        if (profile)
            std::fputs(prof::reportText(r.uops, wall).c_str(),
                       stderr);
        if (!json_path.empty()) {
            json::Value doc = r.toJson();
            doc.set("registry", core.stats().toJson());
            if (profile)
                doc.set("profile", prof::reportJson(r.uops, wall));
            emitJson(json_path, doc);
        }
        if (tracer)
            tracer->writeChromeTrace(trace_events_path);
        return kExitOk;
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
