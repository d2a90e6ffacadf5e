/**
 * @file
 * lrs_bench: host-time benchmark of the simulator, driven from outside
 * the program through each layer's public entry point:
 *
 *  - trace:  TraceLibrary::make
 *  - core:   OooCore::run (plus prof::setEnabled/stageTicks when traced)
 *  - sweep:  SweepSupervisor::run (pool, supervisor, checkpoint journal)
 *  - export: SimResult::toJson
 *
 * Workloads (DESIGN.md in this directory says why each was chosen):
 *
 *  - fig_grid:    the 8 SysmarkNT traces x the 6 allSchemes() schemes
 *                 with the paper CHT, one SweepSupervisor::run per round
 *                 with a checkpoint journal, min(2, nproc) workers;
 *  - dense_cell:  one client running gcc under Exclusive ordering, the
 *                 chooser HMP and the sliced bank pipe with bank
 *                 predictor A, one cell after another;
 *  - sparse_cell: one client running gcmark with memLatency 2000 and a
 *                 perfect HMP (lrs_sim --throughput's sparse/gcmark).
 *
 * Every cell builds a fresh OooCore, so the modelled caches start cold.
 * A fixed host-speed probe (calibrate.cpp) runs just before and just
 * after every cell on the cell's own thread; host times are reported
 * scaled to a reference host speed, with the measured ones beside them.
 * Each cell's SimResult::saveState() is hashed with the repository's
 * CRC-32: every repeat of a cell within a run must give the same digest
 * and, at the default seed and lengths, the digest pinned in pins.json.
 *
 * Usage:
 *   lrs_bench --workload fig_grid|dense_cell|sparse_cell|all
 *             [--seed N] [--seconds S] [--trace 0|1] [--len N]
 *             [--pins FILE] [--work-dir DIR] [--spans-dir DIR]
 *             [--t0-ns NS] [--setup-only] [--perturb KEY]
 *
 * --trace 0 measures one untraced phase of S seconds. --trace 1 splits
 * S into an untraced phase, a phase with spans around every layer call
 * (written at exit to --spans-dir/<workload>.trace.json in Chrome
 * trace_event form) and a phase
 * with the stage self-profiler on. Each workload prints one JSON report
 * line on stdout; perfbench/run.py turns it into the result line.
 */

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/buildinfo.hh"
#include "common/crc.hh"
#include "common/json.hh"
#include "common/profiler.hh"
#include "core/core.hh"
#include "core/grid.hh"
#include "core/parallel.hh"
#include "core/runner.hh"
#include "core/supervisor.hh"
#include "trace/library.hh"

#include "calibrate.hh"

using namespace lrs;

namespace
{

/** The seed whose cells are the library's own traces (and are pinned). */
constexpr std::uint64_t kDefaultSeed = 1;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned idx = next.fetch_add(1);
    return idx;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/**
 * In-memory span log. A span has a name, start, end, parent span and
 * cell id; a null Tracer makes every Span a no-op, which is how the
 * untraced phases run the very same code.
 */
class Tracer
{
  public:
    struct Record
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        std::uint64_t id;
        std::uint64_t parent; ///< 0 = root
        std::int64_t cell;    ///< grid cell index, -1 = none
        unsigned tid;
    };

    class Span
    {
      public:
        Span(Tracer *t, const char *name, std::uint64_t parent,
             std::int64_t cell)
            : t_(t), name_(name), parent_(parent), cell_(cell)
        {
            if (t_) {
                id_ = t_->next_.fetch_add(1);
                start_ = nowNs();
            }
        }

        ~Span()
        {
            if (t_) {
                const Record r{name_, start_, nowNs(), id_,
                               parent_, cell_, threadIndex()};
                std::lock_guard<std::mutex> lk(t_->m_);
                t_->records_.push_back(r);
            }
        }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        std::uint64_t id() const { return id_; }

      private:
        Tracer *t_;
        const char *name_;
        std::uint64_t parent_;
        std::int64_t cell_;
        std::uint64_t id_ = 0;
        std::int64_t start_ = 0;
    };

    /** Spans closed so far (call once every worker has joined). */
    const std::vector<Record> &records() const { return records_; }

    /**
     * Self time of every span: its duration times @p lanes(name)
     * minus the time its child spans cover. A span whose children run
     * on several workers (sweep.run) covers workers lanes at once.
     */
    template <typename Lanes>
    std::map<std::uint64_t, std::int64_t>
    selfTimes(const Lanes &lanes) const
    {
        std::map<std::uint64_t, std::int64_t> self;
        for (const Record &r : records_)
            self[r.id] += (r.end - r.start) * lanes(r.name);
        for (const Record &r : records_) {
            if (r.parent)
                self[r.parent] -= r.end - r.start;
        }
        return self;
    }

  private:
    std::mutex m_;
    std::vector<Record> records_;
    std::atomic<std::uint64_t> next_{1};
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload
{
    std::string name;
    std::vector<SimJob> cells;
    std::vector<std::string> keys;
    /** Sweep pool width; 0 = one client calls the cells directly. */
    unsigned workers = 0;
};

ChtParams
paperCht()
{
    ChtParams c; // 2K-entry 4-way Full CHT with 2-bit counters
    c.trackDistance = true;
    return c;
}

/** Uops per cell of each workload unless --len overrides it. */
std::uint64_t
defaultLen(const std::string &name)
{
    if (name == "fig_grid")
        return 200000;
    if (name == "dense_cell")
        return 100000;
    return 50000; // sparse_cell
}

/**
 * Generator seeds per one-client workload round. One synthetic
 * program's IPC, and with it the host cost per uop, moves by about 10%
 * from one generator seed to the next; a round over 16 programs of the
 * same family keeps that out of the run-to-run spread.
 */
constexpr unsigned kVariants = 16;

Workload
makeWorkload(const std::string &name, std::uint64_t len,
             std::uint64_t seed)
{
    Workload w;
    w.name = name;
    std::vector<SimJob> jobs;
    std::vector<std::string> keys;
    unsigned variants = kVariants;
    if (name == "fig_grid") {
        BatchGrid grid;
        grid.traces = TraceLibrary::names(TraceGroup::SysmarkNT);
        grid.schemes = allSchemes();
        grid.len = len;
        grid.base.cht = paperCht();
        buildGridJobs(grid, jobs, keys);
        variants = 1;
        const unsigned hw = std::thread::hardware_concurrency();
        w.workers = hw == 1 ? 1 : 2;
    } else if (name == "dense_cell") {
        SimJob j;
        j.trace = TraceLibrary::byName("gcc", len);
        j.cfg.scheme = OrderingScheme::Exclusive;
        j.cfg.cht = paperCht();
        j.cfg.hmp = HmpKind::Chooser;
        j.cfg.bankMode = BankMode::Sliced;
        j.cfg.bankPred = BankPredKind::A;
        jobs.push_back(j);
        keys.push_back("gcc/exclusive+chooser+sliced-A");
    } else if (name == "sparse_cell") {
        SimJob j;
        j.trace = TraceLibrary::byName("gcmark", len);
        j.cfg.cht.trackDistance = true;
        j.cfg.mem.memLatency = 2000;
        j.cfg.hmp = HmpKind::Perfect;
        jobs.push_back(j);
        keys.push_back("gcmark/sparse");
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    // The workload seed reaches the program only through the traces it
    // generates. Each seed gets its own block of generator seeds; the
    // default seed's first variant is the library's own trace.
    for (unsigned k = 0; k < variants; ++k) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SimJob j = jobs[i];
            j.trace.seed += ((seed - kDefaultSeed) * variants + k) *
                            0x9E3779B97F4A7C15ull;
            j.cfg.validateOrThrow();
            w.cells.push_back(j);
            w.keys.push_back(variants == 1
                                 ? keys[i]
                                 : keys[i] + "#" + std::to_string(k));
        }
    }
    return w;
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

struct Options
{
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t len = 0; ///< 0 = per-workload default
    std::string pinsPath;
    std::string workDir = ".";
    std::string spansDir;
    std::int64_t t0Ns = 0;
    bool setupOnly = false;
    std::string perturbKey;
};

/** Nearest-rank percentile of @p v (0 < q <= 1). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/**
 * Peak resident memory of this program since the last resetPeakRss().
 * Read from VmHWM rather than getrusage(): ru_maxrss survives execve,
 * so it would report the launching process's size when that is larger.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/**
 * Start a round from live memory: return freed heap pages and reset
 * VmHWM. With two pool workers, whether a freed trace is left as a
 * heap hole that the next one cannot reuse depends on timing; once it
 * happens the process peak stays about one trace higher (17 vs 23 MB
 * on fig_grid), so the peak is taken per round. Where clear_refs is
 * not writable the per-round figure is the peak so far.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * perfbench::probeWork() time at the reference host speed: about what
 * it takes on the 4-vCPU Xeon VM named in DESIGN.md when that host is
 * not crowded. Host times are reported at this speed.
 */
constexpr double kRefProbeNs = 4.0e5;

/**
 * What one phase (a run of whole rounds) measured.
 *
 * On a shared host the speed a thread gets moves by tens of percent,
 * within seconds and over minutes. The probe (calibrate.cpp) runs on a
 * cell's own thread just before and just after it; the mean of the two
 * probe times over kRefProbeNs is the cell's slowdown, and the cell's
 * host time divided by it is its time at the reference speed. The
 * measured figures, unscaled, are kept beside the scaled ones.
 */
struct Phase
{
    std::int64_t wallNs = 0;
    unsigned rounds = 0;
    std::uint64_t cells = 0;
    std::uint64_t failed = 0;
    std::uint64_t uops = 0;
    std::uint64_t cycles = 0;
    std::vector<double> cellMs;   ///< every cell, in completion order
    std::vector<double> cellSlow; ///< the slowdown of each cell
    std::vector<double> probeNs;  ///< every probe
    /** Rounds' wall time without the probes, as measured and scaled. */
    double busyNs = 0.0;
    double scaledBusyNs = 0.0;
    std::vector<double> roundPeakRssMb;
    std::uint64_t journalBytes = 0;

    /** Uops per second of the rounds' wall time, at reference speed. */
    double uopsPerSec() const { return uops * 1e9 / scaledBusyNs; }
    double rawUopsPerSec() const { return uops * 1e9 / busyNs; }

    /** The phase's slowdown, weighted by time. */
    double slowdown() const { return busyNs / scaledBusyNs; }

    /** Nearest-rank percentile of every cell's time at reference speed. */
    double
    cellMsAt(double q) const
    {
        std::vector<double> v(cellMs.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = cellMs[i] / cellSlow[i];
        return percentile(std::move(v), q);
    }
};

/** Per-cell correctness state of one run. */
struct CellCheck
{
    std::optional<std::uint32_t> pinned;
    std::optional<std::uint32_t> first; ///< digest of the first repeat
    unsigned runs = 0;
    SimResult result; ///< first repeat's result, for the layer counts
};

std::string
hex32(std::uint32_t v)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

class Bench
{
  public:
    Bench(Workload w, const Options &opt, std::int64_t setupFromNs,
          const json::Value *pins)
        : w_(std::move(w)), opt_(opt), setupFrom_(setupFromNs),
          checks_(w_.cells.size())
    {
        if (!pins)
            return;
        const json::Value *mine = pins->find(w_.name);
        for (std::size_t i = 0; mine && i < w_.keys.size(); ++i) {
            if (const json::Value *d = mine->find(w_.keys[i]))
                checks_[i].pinned = static_cast<std::uint32_t>(
                    std::stoul(d->asString(), nullptr, 16));
        }
    }

    /** Run whole rounds for @p seconds (at least two rounds). */
    Phase
    runPhase(double seconds, Tracer *tracer)
    {
        Phase p;
        const std::int64_t begin = nowNs();
        const auto budget = static_cast<std::int64_t>(seconds * 1e9);
        do {
            resetPeakRss();
            const std::int64_t t0 = nowNs();
            const std::size_t cells0 = p.cellMs.size();
            const std::size_t probes0 = p.probeNs.size();
            runRound(p, tracer);
            const std::int64_t roundNs = nowNs() - t0;
            // The probes run on the workers, side by side when there
            // is a pool; their time is not the program's. The rest of
            // the round is scaled by its cells' slowdown, weighted by
            // cell time.
            double probeNs = 0.0, ms = 0.0, scaledMs = 0.0;
            for (std::size_t i = probes0; i < p.probeNs.size(); ++i)
                probeNs += p.probeNs[i];
            for (std::size_t i = cells0; i < p.cellMs.size(); ++i) {
                ms += p.cellMs[i];
                scaledMs += p.cellMs[i] / p.cellSlow[i];
            }
            const double lanes = std::max(1u, w_.workers);
            const double busyNs = static_cast<double>(roundNs) -
                                  probeNs / lanes;
            p.busyNs += busyNs;
            p.scaledBusyNs += busyNs * scaledMs / ms;
            p.roundPeakRssMb.push_back(peakRssMb());
            ++p.rounds;
            p.wallNs = nowNs() - begin;
        } while (p.rounds < 2 || p.wallNs < budget);
        return p;
    }

    double setupSeconds() const { return setupS_; }
    const Workload &workload() const { return w_; }
    const std::vector<CellCheck> &checks() const { return checks_; }

  private:
    void
    runRound(Phase &p, Tracer *tracer)
    {
        if (w_.workers == 0) {
            for (std::size_t i = 0; i < w_.cells.size(); ++i)
                runCell(p, tracer, i, 0);
            return;
        }
        SweepOptions so;
        so.journalPath = opt_.workDir + "/" + w_.name + ".journal";
        so.workers = w_.workers;
        SweepSupervisor sup(so);
        {
            Tracer::Span round(tracer, "sweep.run", 0, -1);
            sup.run(w_.cells.size(), w_.keys,
                    [&](std::size_t i, unsigned) {
                        return runCell(p, tracer, i, round.id());
                    });
        }
        std::error_code ec;
        p.journalBytes = std::filesystem::file_size(so.journalPath, ec);
    }

    /** One cell: generate, simulate, export; then check the digest. */
    JobOutcome
    runCell(Phase &p, Tracer *tracer, std::size_t i, std::uint64_t parent)
    {
        noteLaunch();
        const SimJob &job = w_.cells[i];
        const auto cell = static_cast<std::int64_t>(i);
        JobOutcome o;
        const double before = probe(tracer, parent, cell);
        const std::int64_t t0 = nowNs();
        {
            Tracer::Span span(tracer, "cell", parent, cell);
            try {
                std::unique_ptr<VecTrace> trace;
                {
                    Tracer::Span s(tracer, "trace.make", span.id(), cell);
                    trace = TraceLibrary::make(job.trace);
                }
                {
                    Tracer::Span s(tracer, "core.run", span.id(), cell);
                    OooCore core(job.cfg);
                    o.result = core.run(*trace);
                }
                {
                    Tracer::Span s(tracer, "export.to_json", span.id(),
                                   cell);
                    o.resultJson = o.result.toJson();
                }
            } catch (const std::exception &e) {
                classifyJobException(o, e);
            }
        }
        const std::int64_t t1 = nowNs();
        const double after = probe(tracer, parent, cell);
        const bool ok = check(i, o);
        std::lock_guard<std::mutex> lk(m_);
        ++p.cells;
        p.failed += ok ? 0 : 1;
        p.uops += o.result.uops;
        p.cycles += o.result.cycles;
        p.cellMs.push_back(static_cast<double>(t1 - t0) / 1e6);
        p.cellSlow.push_back((before + after) / 2.0 / kRefProbeNs);
        p.probeNs.push_back(before);
        p.probeNs.push_back(after);
        return o;
    }

    /** Run the host-speed probe once; returns its time in ns. */
    double
    probe(Tracer *tracer, std::uint64_t parent, std::int64_t cell)
    {
        Tracer::Span s(tracer, "host.probe", parent, cell);
        const std::int64_t t0 = nowNs();
        probeSink_.fetch_xor(perfbench::probeWork(),
                             std::memory_order_relaxed);
        return static_cast<double>(nowNs() - t0);
    }

    /** Time the first cell launch; --setup-only stops the process here. */
    void
    noteLaunch()
    {
        if (launched_.exchange(true))
            return;
        setupS_ = static_cast<double>(nowNs() - setupFrom_) / 1e9;
        if (opt_.setupOnly) {
            std::printf("{\"setup_s\": %.9f}\n", setupS_);
            std::fflush(stdout);
            std::_Exit(0);
        }
    }

    /**
     * Digest check. Cells of one round run concurrently but each cell
     * index once per round, and rounds are sequential, so checks_[i]
     * is only ever touched by one thread at a time.
     */
    bool
    check(std::size_t i, JobOutcome &o)
    {
        CellCheck &c = checks_[i];
        ++c.runs;
        if (o.status != CellStatus::Ok) {
            std::fprintf(stderr, "lrs_bench: %s cell %s failed: %s %s\n",
                         w_.name.c_str(), w_.keys[i].c_str(),
                         o.code.c_str(), o.error.c_str());
            return false;
        }
        if (c.runs == 2 && w_.keys[i] == opt_.perturbKey)
            ++o.result.l1Misses; // self-test of the check below
        const std::uint32_t d = crc32(o.result.saveState().dump());
        if (!c.first) {
            c.first = d;
            c.result = o.result;
        }
        const std::uint32_t want = c.pinned ? *c.pinned : *c.first;
        if (d == want)
            return true;
        std::fprintf(stderr,
                     "lrs_bench: %s cell %s repeat %u: digest %s, "
                     "expected %s (%s)\n",
                     w_.name.c_str(), w_.keys[i].c_str(), c.runs,
                     hex32(d).c_str(), hex32(want).c_str(),
                     c.pinned ? "pinned" : "first repeat");
        return false;
    }

    Workload w_;
    const Options &opt_;
    std::int64_t setupFrom_;
    std::vector<CellCheck> checks_;
    std::atomic<bool> launched_{false};
    std::atomic<std::uint64_t> probeSink_{0}; ///< keeps the probe's work
    double setupS_ = 0.0;
    std::mutex m_; ///< guards the Phase a round's workers append to
};

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

double
ratio(double n, double d)
{
    return d != 0.0 ? n / d : 0.0;
}

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        json::Value m = json::Value::object();
        m.set("value", value);
        m.set("unit", unit);
        doc_.set(name, std::move(m));
    }

    json::Value take() { return std::move(doc_); }

  private:
    json::Value doc_ = json::Value::object();
};


/** Simulated counts of one round, summed over its cells. */
void
addCounts(Metrics &m, const std::vector<CellCheck> &checks)
{
    SimResult s;
    for (const CellCheck &c : checks) {
        const SimResult &r = c.result;
        s.cycles += r.cycles;
        s.uops += r.uops;
        s.loads += r.loads;
        s.wastedIssues += r.wastedIssues;
        s.replayedUops += r.replayedUops;
        s.notConflicting += r.notConflicting;
        s.ancPnc += r.ancPnc;
        s.ancPc += r.ancPc;
        s.acPc += r.acPc;
        s.acPnc += r.acPnc;
        s.ahPh += r.ahPh;
        s.ahPm += r.ahPm;
        s.amPh += r.amPh;
        s.amPm += r.amPm;
        s.bankMispredicts += r.bankMispredicts;
        s.l1Misses += r.l1Misses;
        s.forwarded += r.forwarded;
        s.collisionPenalties += r.collisionPenalties;
        s.orderViolations += r.orderViolations;
    }
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    m.add("core.sim_cycles", d(s.cycles), "count");
    m.add("core.sim_uops", d(s.uops), "count");
    m.add("core.wasted_issues", d(s.wastedIssues), "count");
    m.add("core.replay_ratio", ratio(d(s.replayedUops), d(s.uops)),
          "ratio");
    // Mispredict definitions follow IntervalSample's rates.
    m.add("predictors.cht_accuracy",
          1.0 - ratio(d(s.ancPc + s.acPnc), d(s.classifiedLoads())),
          "ratio");
    const std::uint64_t hm = s.ahPh + s.ahPm + s.amPh + s.amPm;
    m.add("predictors.hmp_accuracy",
          1.0 - ratio(d(s.ahPm + s.amPh), d(hm)), "ratio");
    m.add("predictors.bank_mispredict_ratio",
          ratio(d(s.bankMispredicts), d(s.loads)), "ratio");
    m.add("memory.l1_miss_ratio", ratio(d(s.l1Misses), d(s.loads)),
          "ratio");
    m.add("memory.forwarded", d(s.forwarded), "count");
    m.add("memory.collision_penalties", d(s.collisionPenalties), "count");
    m.add("memory.order_violations", d(s.orderViolations), "count");
}

/**
 * Per-layer host time from the spans of the traced phase, scaled to the
 * reference host speed like the end-to-end figures. The probe has a
 * span of its own (host.probe), so no layer's self time counts it.
 */
void
addLayerTimes(Metrics &m, const Tracer &tr, const Phase &p,
              unsigned workers)
{
    const double slow = p.slowdown();
    std::map<std::string, std::vector<double>> ms;
    std::map<std::string, double> sum;
    double laneNs = 0.0; // sweep.run duration x workers
    for (const Tracer::Record &r : tr.records()) {
        const auto dur = static_cast<double>(r.end - r.start);
        ms[r.name].push_back(dur / 1e6 / slow);
        sum[r.name] += dur;
        if (std::string(r.name) == "sweep.run")
            laneNs += dur * workers;
    }
    const double rounds = p.rounds;
    m.add("trace.gen_ms", percentile(ms["trace.make"], 0.5), "ms");
    m.add("trace.gens",
          ratio(static_cast<double>(ms["trace.make"].size()),
                static_cast<double>(ms["cell"].size())),
          "count");
    m.add("trace.share", ratio(sum["trace.make"], sum["cell"]), "ratio");
    m.add("core.run_ms", percentile(ms["core.run"], 0.5), "ms");
    m.add("core.ns_per_sim_cycle",
          ratio(sum["core.run"] / slow, static_cast<double>(p.cycles)),
          "ns");
    m.add("core.ns_per_uop",
          ratio(sum["core.run"] / slow, static_cast<double>(p.uops)), "ns");
    m.add("export.json_ms", percentile(ms["export.to_json"], 0.5), "ms");
    m.add("host.probe_ms", percentile(p.probeNs, 0.5) / 1e6, "ms");
    // Worker time outside cell and probe spans: journal append +
    // fsync, pool hand-off and the idle tail of each round. 0 without
    // a pool.
    const auto lanes = [workers](const char *name) {
        return std::string(name) == "sweep.run" ? workers : 1u;
    };
    double sweepSelf = 0.0;
    const auto self = tr.selfTimes(lanes);
    for (const Tracer::Record &r : tr.records()) {
        if (std::string(r.name) == "sweep.run")
            sweepSelf += static_cast<double>(self.at(r.id));
    }
    m.add("sweep.busy_share",
          ratio(sum["cell"], laneNs - sum["host.probe"]), "ratio");
    m.add("sweep.self_ms", sweepSelf / 1e6 / rounds / slow, "ms");
    m.add("sweep.journal_bytes", static_cast<double>(p.journalBytes),
          "bytes");
}

void
writeChromeTrace(const std::string &path, const Tracer &tr,
                 unsigned workers)
{
    const auto lanes = [workers](const char *name) {
        return std::string(name) == "sweep.run" ? workers : 1u;
    };
    const auto self = tr.selfTimes(lanes);
    std::int64_t origin = INT64_MAX;
    for (const Tracer::Record &r : tr.records())
        origin = std::min(origin, r.start);
    json::Value events = json::Value::array();
    for (const Tracer::Record &r : tr.records()) {
        json::Value e = json::Value::object();
        e.set("name", r.name);
        e.set("ph", "X");
        e.set("ts", static_cast<double>(r.start - origin) / 1e3);
        e.set("dur", static_cast<double>(r.end - r.start) / 1e3);
        e.set("pid", 1);
        e.set("tid", static_cast<std::uint64_t>(r.tid));
        json::Value args = json::Value::object();
        args.set("id", r.id);
        args.set("parent", r.parent);
        args.set("cell", static_cast<std::int64_t>(r.cell));
        args.set("self_us", static_cast<double>(self.at(r.id)) / 1e3);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream(path) << doc.dump(0) << "\n";
}

json::Value
provenance(const Bench &b, const Options &opt, std::uint64_t len)
{
    json::Value p = json::Value::object();
    p.set("build", buildProvenanceJson());
    p.set("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    p.set("pool_width", static_cast<std::uint64_t>(b.workload().workers));
    p.set("cell_uops", len);
    p.set("seed", opt.seed);
    p.set("cells_per_round",
          static_cast<std::uint64_t>(b.workload().cells.size()));
    return p;
}

json::Value
runWorkload(const std::string &name, const Options &opt,
            std::int64_t setupFrom, const json::Value *pins)
{
    const std::uint64_t len = opt.len ? opt.len : defaultLen(name);
    // Pins describe the default seed at the default lengths only.
    const bool pinned = opt.seed == kDefaultSeed && opt.len == 0;
    Bench b(makeWorkload(name, len, opt.seed), opt, setupFrom,
            pinned ? pins : nullptr);

    Metrics m;
    json::Value host = json::Value::object();
    std::uint64_t attempted = 0, failed = 0;
    if (!opt.trace) {
        const Phase plain = b.runPhase(opt.seconds, nullptr);
        m.add("uops_per_s", plain.uopsPerSec(), "1/s");
        m.add("cell_ms_p50", plain.cellMsAt(0.5), "ms");
        m.add("cell_ms_p90", plain.cellMsAt(0.9), "ms");
        m.add("peak_rss_mb", percentile(plain.roundPeakRssMb, 0.5), "MB");
        // What the host did: its speed, and the figures unscaled.
        host.set("probe_ms", percentile(plain.probeNs, 0.5) / 1e6);
        host.set("slowdown", plain.slowdown());
        host.set("rounds", static_cast<std::uint64_t>(plain.rounds));
        host.set("raw_uops_per_s", plain.rawUopsPerSec());
        host.set("raw_cell_ms_p50", percentile(plain.cellMs, 0.5));
        host.set("raw_cell_ms_p90", percentile(plain.cellMs, 0.9));
        attempted = plain.cells;
        failed = plain.failed;
    } else {
        const double third = opt.seconds / 3.0;
        const Phase plain = b.runPhase(third, nullptr);
        Tracer tr;
        const Phase traced = b.runPhase(third, &tr);
        prof::resetAll();
        prof::setEnabled(true);
        const Phase profiled = b.runPhase(third, nullptr);
        prof::setEnabled(false);

        addLayerTimes(m, tr, traced, b.workload().workers);
        double total = 0.0;
        for (std::size_t s = 0; s < prof::kNumStages; ++s)
            total += static_cast<double>(
                prof::stageTicks(static_cast<prof::Stage>(s)));
        for (std::size_t s = 0; s < prof::kNumStages; ++s) {
            const auto st = static_cast<prof::Stage>(s);
            m.add(std::string("core.stage.") + prof::stageName(st) +
                      "_share",
                  ratio(static_cast<double>(prof::stageTicks(st)), total),
                  "ratio");
        }
        addCounts(m, b.checks());
        m.add("tracing.overhead",
              ratio(traced.uopsPerSec(), plain.uopsPerSec()), "ratio");
        if (!opt.spansDir.empty())
            writeChromeTrace(opt.spansDir + "/" + name + ".trace.json", tr,
                             b.workload().workers);
        attempted = plain.cells + traced.cells + profiled.cells;
        failed = plain.failed + traced.failed + profiled.failed;
    }

    json::Value digests = json::Value::object();
    for (std::size_t i = 0; i < b.checks().size(); ++i) {
        const CellCheck &c = b.checks()[i];
        if (c.first)
            digests.set(b.workload().keys[i], hex32(*c.first));
    }
    json::Value doc = json::Value::object();
    doc.set("workload", name);
    doc.set("provenance", provenance(b, opt, len));
    doc.set("setup_s", b.setupSeconds());
    doc.set("host", std::move(host));
    doc.set("attempted", attempted);
    doc.set("failed", failed);
    doc.set("metrics", m.take());
    doc.set("digests", std::move(digests));
    return doc;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "lrs_bench: %s\n"
                 "usage: lrs_bench --workload "
                 "fig_grid|dense_cell|sparse_cell|all [--seed N] "
                 "[--seconds S] [--trace 0|1] [--len N] [--pins FILE] "
                 "[--work-dir DIR] [--spans-dir DIR] [--t0-ns NS] "
                 "[--setup-only] [--perturb KEY]\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t mainNs = nowNs();
    Options opt;
    std::string workload;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--setup-only") {
                opt.setupOnly = true;
                continue;
            }
            if (i + 1 >= argc)
                usage("missing value for " + a);
            const std::string v = argv[++i];
            if (a == "--workload") workload = v;
            else if (a == "--seed") opt.seed = std::stoull(v);
            else if (a == "--seconds") opt.seconds = std::stod(v);
            else if (a == "--trace") opt.trace = std::stoul(v) != 0;
            else if (a == "--len") opt.len = std::stoull(v);
            else if (a == "--pins") opt.pinsPath = v;
            else if (a == "--work-dir") opt.workDir = v;
            else if (a == "--spans-dir") opt.spansDir = v;
            else if (a == "--t0-ns") opt.t0Ns = std::stoll(v);
            else if (a == "--perturb") opt.perturbKey = v;
            else usage("unknown flag " + a);
        }
    } catch (const std::exception &) {
        usage("malformed number");
    }
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");

    std::vector<std::string> names = {workload};
    if (workload == "all")
        names = {"fig_grid", "dense_cell", "sparse_cell"};

    try {
        json::Value pins;
        if (!opt.pinsPath.empty()) {
            std::ifstream in(opt.pinsPath);
            if (!in)
                throw std::runtime_error("cannot read " + opt.pinsPath);
            pins = json::Value::parse(
                std::string(std::istreambuf_iterator<char>(in), {}));
        }
        // Set-up of the first workload counts from process start when
        // the caller passed it (CLOCK_MONOTONIC, as steady_clock).
        std::int64_t setupFrom = opt.t0Ns ? opt.t0Ns : mainNs;
        for (const std::string &n : names) {
            const json::Value doc = runWorkload(
                n, opt, setupFrom, pins.isNull() ? nullptr : &pins);
            std::printf("%s\n", doc.dump(0).c_str());
            std::fflush(stdout);
            setupFrom = nowNs();
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lrs_bench: %s\n", e.what());
        return 1;
    }
    return 0;
}
