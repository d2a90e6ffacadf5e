#include "core/supervisor.hh"

#include <cassert>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/diag.hh"
#include "common/io.hh"
#include "core/runner.hh"

namespace lrs
{

namespace
{

[[noreturn]] void
throwJournalInvalid(const std::string &path, const std::string &why)
{
    throw ConfigError(makeDiag(
        DiagCode::JournalInvalid, "core.supervisor", "journal",
        why + " (journal: " + path +
            "; delete it or point --resume at the right grid)"));
}

/**
 * One guarded attempt: classifies what escapes @p runner, stamps the
 * attempt ordinal and fills the result document of an OK outcome —
 * shared by the in-process path and the isolated child.
 */
JobOutcome
runGuarded(const SweepSupervisor::CellRunner &runner, std::size_t cell,
           unsigned attempt)
{
    JobOutcome o;
    try {
        o = runner(cell, attempt);
    } catch (const std::exception &e) {
        classifyJobException(o, e);
    } catch (...) {
        o.status = CellStatus::Failed;
        o.code = diagCodeName(DiagCode::Internal);
        o.error = "cell threw a non-std exception";
    }
    o.attempts = attempt;
    if (o.status == CellStatus::Ok && o.resultJson.isNull())
        o.resultJson = o.result.toJson();
    return o;
}

/** Was @p o cut short by requestSweepInterrupt()? */
bool
wasInterrupted(const JobOutcome &o)
{
    return o.code == diagCodeName(DiagCode::Interrupted);
}

/** The SweepStats count that an outcome of status @p s lands in. */
std::uint64_t &
countOf(SweepStats &st, CellStatus s)
{
    switch (s) {
      case CellStatus::Ok:      return st.ok;
      case CellStatus::Failed:  return st.failed;
      case CellStatus::Timeout: return st.timeout;
      case CellStatus::Crashed: return st.crashed;
      case CellStatus::Skipped: break;
    }
    return st.skipped;
}

} // namespace

json::Value
outcomeRecord(std::size_t cell, const std::string &key,
              const JobOutcome &o)
{
    json::Value rec = json::Value::object();
    rec.set("v", 1);
    rec.set("cell", static_cast<std::uint64_t>(cell));
    rec.set("key", key);
    rec.set("status", cellStatusName(o.status));
    rec.set("attempts", static_cast<std::uint64_t>(o.attempts));
    if (o.status == CellStatus::Ok) {
        rec.set("result", o.resultJson);
    } else {
        rec.set("code", o.code);
        rec.set("error", o.error);
        if (o.signal)
            rec.set("signal", o.signal);
    }
    return rec;
}

JobOutcome
outcomeFromRecord(const json::Value &rec)
{
    JobOutcome o;
    o.status = parseCellStatus(rec.at("status").asString());
    o.attempts = static_cast<unsigned>(rec.at("attempts").asU64());
    if (o.status == CellStatus::Ok) {
        // The full document rides along in resultJson; the table
        // reads only this summary.
        o.resultJson = rec.at("result");
        o.result.trace = o.resultJson.at("trace").asString();
        o.result.config = o.resultJson.at("config").asString();
        o.result.cycles = o.resultJson.at("cycles").asU64();
        o.result.uops = o.resultJson.at("uops").asU64();
    } else {
        o.code = rec.at("code").asString();
        o.error = rec.at("error").asString();
        if (const json::Value *sig = rec.find("signal"))
            o.signal = static_cast<int>(sig->asI64());
    }
    return o;
}

void
SweepSupervisor::loadJournal(std::vector<JobOutcome> &outcomes,
                             const std::vector<std::string> &keys)
{
    std::error_code ec;
    if (!std::filesystem::exists(opts_.journalPath, ec))
        return; // nothing to resume: every cell runs
    JournalReadStats jst;
    const std::vector<json::Value> recs =
        readJournal(opts_.journalPath, &jst);
    if (jst.badLines) {
        std::fprintf(stderr,
                     "warning: [core.supervisor] journal %s: dropped "
                     "%llu damaged line(s), %llu byte(s)%s; resynced "
                     "to the last good record\n",
                     opts_.journalPath.c_str(),
                     static_cast<unsigned long long>(jst.badLines),
                     static_cast<unsigned long long>(jst.droppedBytes),
                     jst.truncatedTail ? " (torn tail)" : "");
    }
    for (const json::Value &rec : recs) {
        std::uint64_t cell = 0;
        std::string key;
        JobOutcome o;
        try {
            cell = rec.at("cell").asU64();
            key = rec.at("key").asString();
            o = outcomeFromRecord(rec);
        } catch (const std::exception &e) {
            // CRC-valid but not a sweep-cell record this build wrote.
            throwJournalInvalid(opts_.journalPath,
                                std::string("malformed cell record: ") +
                                    e.what());
        }
        if (cell >= keys.size()) {
            throwJournalInvalid(
                opts_.journalPath,
                "cell id " + std::to_string(cell) +
                    " out of range for this grid of " +
                    std::to_string(keys.size()));
        }
        if (key != keys[cell]) {
            throwJournalInvalid(
                opts_.journalPath,
                "cell " + std::to_string(cell) + " is '" + key +
                    "' in the journal but '" + keys[cell] +
                    "' in this grid");
        }
        // Later records win: a retried cell appends one record per
        // attempt, and only its last word stands. A non-OK last
        // record leaves the default outcome: the cell runs again.
        if (o.status == CellStatus::Ok) {
            o.status = CellStatus::Skipped;
            o.attempts = 0;
        } else {
            o = JobOutcome{};
        }
        outcomes[cell] = std::move(o);
    }
}

void
SweepSupervisor::emitProgress()
{
    if (opts_.progressFd < 0)
        return;
    std::lock_guard<std::mutex> lk(m_);
    if (progressDead_)
        return;
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t elapsedMs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - start_)
            .count());
    const SweepStats &s = stats_;
    const std::uint64_t done = s.ok + s.failed + s.timeout + s.crashed;
    // Journal-restored (skipped) cells are not fresh work: they must
    // never count toward the rate or ETA, and their tally can never
    // exceed the grid. A disagreement here would wrap the unsigned
    // subtraction into a multi-exabyte ETA, so clamp defensively and
    // assert in debug builds.
    assert(s.skipped + done <= s.cells &&
           "sweep progress counters exceed the grid size");
    const std::uint64_t accounted = s.skipped + done;
    const std::uint64_t remaining =
        accounted < s.cells ? s.cells - accounted : 0;
    json::Value hb = json::Value::object();
    hb.set("v", 1);
    hb.set("type", "progress");
    hb.set("total", s.cells);
    hb.set("done", done);
    hb.set("ok", s.ok);
    hb.set("failed", s.failed);
    hb.set("timeout", s.timeout);
    hb.set("crashed", s.crashed);
    hb.set("skipped", s.skipped);
    hb.set("in_flight", inFlight_.load(std::memory_order_relaxed));
    hb.set("workers", static_cast<std::uint64_t>(workers_));
    hb.set("elapsed_ms", elapsedMs);
    // ETA from the observed fresh-cell rate; null until the first
    // cell finishes (no rate yet), 0 once nothing remains.
    if (done == 0)
        hb.set("eta_ms", json::Value());
    else
        hb.set("eta_ms", remaining * elapsedMs / done);
    hb.set("uops", s.uops);
    hb.set("uops_per_sec",
           elapsedMs ? static_cast<double>(s.uops) * 1000.0 /
                           static_cast<double>(elapsedMs)
                     : 0.0);
    std::string line = hb.dump(0);
    line.push_back('\n');
    // One write per line so a consumer tailing the fd never sees a
    // torn heartbeat; a failed write retires the stream for the rest
    // of the sweep (the results are unaffected).
    if (!writeFully(opts_.progressFd, line))
        progressDead_ = true;
}

JobOutcome
SweepSupervisor::runIsolated(const CellRunner &runner, std::size_t cell,
                             unsigned attempt, const std::string &key)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        throw IoError(makeDiag(DiagCode::IoOpenFailed,
                               "core.supervisor", "pipe",
                               std::string("pipe() failed: ") +
                                   std::strerror(errno)));
    }
    // Flush stdio so the child does not replay inherited buffers.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        const int err = errno;
        ::close(fds[0]);
        ::close(fds[1]);
        throw IoError(makeDiag(DiagCode::IoOpenFailed,
                               "core.supervisor", "fork",
                               std::string("fork() failed: ") +
                                   std::strerror(err)));
    }
    if (pid == 0) {
        // Child: run the cell, stream the outcome, _exit. Any crash
        // from here on (SIGSEGV, std::terminate, abort) kills only
        // this process and the parent records the cell as CRASHED.
        ::close(fds[0]);
        const std::string text =
            outcomeRecord(cell, key, runGuarded(runner, cell, attempt))
                .dump(0);
        if (!writeFully(fds[1], text))
            ::_exit(3); // parent records CRASHED (no result)
        ::close(fds[1]);
        ::_exit(0);
    }

    // Parent: drain the pipe under the wall-clock watchdog.
    ::close(fds[1]);
    std::string buf;
    bool timedOut = false;
    bool interrupted = false;
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        int waitMs = -1; // block
        if (opts_.cellTimeoutMs) {
            const auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            const auto remaining =
                static_cast<long long>(opts_.cellTimeoutMs) - elapsed;
            if (remaining <= 0) {
                timedOut = true;
                break;
            }
            waitMs = static_cast<int>(
                remaining < 200 ? remaining : 200);
        } else {
            // Still poll in slices so an interrupt reaches a child
            // that never writes.
            waitMs = 200;
        }
        if (sweepInterruptRequested()) {
            interrupted = true;
            break;
        }
        struct pollfd pfd;
        pfd.fd = fds[0];
        pfd.events = POLLIN;
        const int pr = ::poll(&pfd, 1, waitMs);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            break; // treat as EOF; waitpid decides the outcome
        }
        if (pr == 0)
            continue; // slice expired; re-check deadline/interrupt
        char chunk[4096];
        const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break; // EOF: child finished writing
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    if (timedOut || interrupted)
        ::kill(pid, SIGKILL);
    ::close(fds[0]);
    int st = 0;
    while (::waitpid(pid, &st, 0) < 0 && errno == EINTR) {
    }

    // Outcomes the parent observes itself: the child left no record.
    JobOutcome o;
    o.attempts = attempt;
    if (interrupted) {
        o.status = CellStatus::Failed;
        o.code = diagCodeName(DiagCode::Interrupted);
        o.error = "isolated cell killed: sweep interrupted";
        return o;
    }
    if (timedOut) {
        o.status = CellStatus::Timeout;
        o.code = diagCodeName(DiagCode::DeadlineExceeded);
        o.error = "wall-clock watchdog (" +
                  std::to_string(opts_.cellTimeoutMs) +
                  " ms) expired; isolated cell killed";
        return o;
    }
    o.status = CellStatus::Crashed;
    o.code = diagCodeName(DiagCode::CellCrashed);
    if (WIFSIGNALED(st)) {
        o.signal = WTERMSIG(st);
        o.error = "isolated cell killed by signal " +
                  std::to_string(o.signal);
        return o;
    }
    if (!WIFEXITED(st) || WEXITSTATUS(st) != 0 || buf.empty()) {
        // A sanitizer or runtime that converts a crash into a
        // nonzero exit (ASan on SIGSEGV) lands here: still CRASHED,
        // just without a signal number.
        o.error =
            "isolated cell exited with status " +
            std::to_string(WIFEXITED(st) ? WEXITSTATUS(st) : -1) +
            " without a result";
        return o;
    }
    try {
        return outcomeFromRecord(json::Value::parse(buf));
    } catch (const std::exception &e) {
        o.error = std::string("unparsable result from isolated "
                              "cell: ") +
                  e.what();
        return o;
    }
}

void
SweepSupervisor::runCell(std::size_t cell, unsigned attempt,
                         const std::string &key,
                         const CellRunner &runner, JobOutcome &out)
{
    JobOutcome o;
    if (sweepInterruptRequested()) {
        o.status = CellStatus::Failed;
        o.code = diagCodeName(DiagCode::Interrupted);
        o.error = "cell not started: sweep interrupted";
        o.attempts = 0;
    } else {
        inFlight_.fetch_add(1, std::memory_order_relaxed);
        o = opts_.isolate ? runIsolated(runner, cell, attempt, key)
                          : runGuarded(runner, cell, attempt);
        inFlight_.fetch_sub(1, std::memory_order_relaxed);
    }
    // An interrupted attempt is neither journaled nor counted:
    // --resume re-runs the cell.
    const bool completed = !wasInterrupted(o);
    json::Value rec;
    if (writer_ && completed)
        rec = outcomeRecord(cell, key, o);
    {
        std::lock_guard<std::mutex> lk(m_);
        // A retry's outcome replaces the failed attempt before it, and
        // an interrupted retry leaves the cell not-run.
        if (attempt > 1)
            --countOf(stats_, out.status);
        if (completed) {
            ++countOf(stats_, o.status);
            if (o.status == CellStatus::Ok)
                stats_.uops += o.result.uops;
            // Each record is one write()+fsync(); their order does
            // not matter (ids key them), but the writer is not
            // concurrency-safe.
            if (writer_)
                writer_->append(rec);
        }
    }
    out = std::move(o);
    if (completed)
        emitProgress();
}

std::vector<JobOutcome>
SweepSupervisor::run(const std::vector<SimJob> &cells,
                     const std::vector<std::string> &keys)
{
    return run(cells.size(), keys,
               [&cells](std::size_t i, unsigned) {
                   return runOneSimJob(cells[i]);
               });
}

std::vector<JobOutcome>
SweepSupervisor::run(std::size_t n,
                     const std::vector<std::string> &keys,
                     const CellRunner &runner)
{
    if (keys.size() != n)
        throw std::invalid_argument(
            "SweepSupervisor::run: one key per cell required");

    stats_ = SweepStats{};
    stats_.cells = n;
    interrupted_ = false;
    writer_.reset();

    std::vector<JobOutcome> outcomes(n);
    if (!opts_.journalPath.empty()) {
        if (opts_.resume)
            loadJournal(outcomes, keys);
        // A fresh (non-resumed) sweep truncates: stale records from
        // an unrelated run must never satisfy a later --resume.
        writer_ = std::make_unique<JournalWriter>(
            opts_.journalPath, /*truncate=*/!opts_.resume);
    }

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
        if (outcomes[i].status != CellStatus::Skipped)
            pending.push_back(i);

    stats_.skipped = n - pending.size();
    progressDead_ = false;
    workers_ = opts_.workers ? opts_.workers : configuredWorkers();
    inFlight_.store(0, std::memory_order_relaxed);
    start_ = std::chrono::steady_clock::now();
    emitProgress(); // initial heartbeat: grid size + resume skips

    // Round 1 always runs, so cells an early interrupt keeps from
    // starting are marked not-run rather than left default-OK.
    const unsigned totalAttempts = 1 + opts_.retries;
    for (unsigned attempt = 1; attempt <= totalAttempts; ++attempt) {
        if (pending.empty() || (attempt > 1 && sweepInterruptRequested()))
            break;
        if (attempt > 1)
            stats_.retries += pending.size();
        parallelFor(
            pending.size(),
            [&](std::size_t k) {
                const std::size_t cell = pending[k];
                runCell(cell, attempt, keys[cell], runner,
                        outcomes[cell]);
            },
            opts_.workers);
        // Deterministic backoff ordering: the next round re-runs the
        // survivors in ascending cell id, so any attempt-count-
        // dependent behaviour (and the journal's retry trail) is
        // reproducible for a given grid and retry budget.
        std::vector<std::size_t> next;
        for (const std::size_t cell : pending) {
            const JobOutcome &o = outcomes[cell];
            if (o.failed() && !wasInterrupted(o))
                next.push_back(cell);
        }
        pending = std::move(next);
    }

    stats_.gaveUp = stats_.failed + stats_.timeout + stats_.crashed;
    stats_.interrupted =
        stats_.cells - stats_.ok - stats_.skipped - stats_.gaveUp;
    interrupted_ = sweepInterruptRequested() || stats_.interrupted > 0;
    return outcomes;
}

} // namespace lrs
