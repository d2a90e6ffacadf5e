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
 * Fill the table-facing summary of a result restored from its JSON
 * document (resumed or isolated cells): the fields the front end
 * prints directly — trace/config labels, cycles, uops — while the
 * full document rides along in JobOutcome::resultJson.
 */
void
restoreResultSummary(JobOutcome &o)
{
    const json::Value &r = o.resultJson;
    o.result.trace = r.at("trace").asString();
    o.result.config = r.at("config").asString();
    o.result.cycles = r.at("cycles").asU64();
    o.result.uops = r.at("uops").asU64();
}

} // namespace

SweepSupervisor::SweepSupervisor(SweepOptions opts)
    : opts_(std::move(opts))
{
    StatsGroup g = reg_.group("sweep");
    g.bindCounter("cells", &stats_.cells, "grid size");
    g.bindCounter("ok", &stats_.ok, "cells completed this run");
    g.bindCounter("failed", &stats_.failed, "cells FAILED finally");
    g.bindCounter("timeout", &stats_.timeout, "cells TIMEOUT finally");
    g.bindCounter("crashed", &stats_.crashed, "cells CRASHED finally");
    g.bindCounter("skipped", &stats_.skipped,
                  "cells restored from the journal");
    g.bindCounter("retries", &stats_.retries,
                  "cell re-executions performed");
    g.bindCounter("gave_up", &stats_.gaveUp,
                  "cells still failed after every attempt");
    g.bindCounter("interrupted", &stats_.interrupted,
                  "cells not run because the sweep was interrupted");
}

SweepSupervisor::~SweepSupervisor() = default;

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
        if (!rec.isObject() || !rec.has("cell") || !rec.has("key") ||
            !rec.has("status")) {
            throwJournalInvalid(opts_.journalPath,
                                "record is not a sweep-cell record");
        }
        const std::uint64_t cell = rec.at("cell").asU64();
        if (cell >= keys.size()) {
            throwJournalInvalid(
                opts_.journalPath,
                "cell id " + std::to_string(cell) +
                    " out of range for this grid of " +
                    std::to_string(keys.size()));
        }
        const std::string &key = rec.at("key").asString();
        if (key != keys[cell]) {
            throwJournalInvalid(
                opts_.journalPath,
                "cell " + std::to_string(cell) + " is '" + key +
                    "' in the journal but '" + keys[cell] +
                    "' in this grid");
        }
        // Later records win: a retried cell appends one record per
        // attempt, and only its last word stands.
        JobOutcome &o = outcomes[cell];
        o = JobOutcome{};
        if (parseCellStatus(rec.at("status").asString()) ==
            CellStatus::Ok) {
            const json::Value *res = rec.find("result");
            if (!res) {
                throwJournalInvalid(
                    opts_.journalPath,
                    "OK record for cell " + std::to_string(cell) +
                        " carries no result");
            }
            o.status = CellStatus::Skipped;
            o.attempts = 0;
            o.resultJson = *res;
            try {
                restoreResultSummary(o);
            } catch (const std::exception &) {
                throwJournalInvalid(
                    opts_.journalPath,
                    "result record for cell " + std::to_string(cell) +
                        " is missing summary fields");
            }
        }
        // Non-OK last records leave the default outcome in place:
        // the cell simply runs again this time around.
    }
}

void
SweepSupervisor::emitProgress()
{
    if (opts_.progressFd < 0)
        return;
    std::lock_guard<std::mutex> lk(progressM_);
    if (progressDead_)
        return;
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t elapsedMs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - progStart_)
            .count());
    // Journal-restored (skipped) cells are not fresh work: they must
    // never count toward the rate or ETA, and their tally can never
    // exceed the grid. A disagreement here would wrap the unsigned
    // subtraction into a multi-exabyte ETA, so clamp defensively and
    // assert in debug builds.
    assert(progSkipped_ + progDone_ <= progTotal_ &&
           "sweep progress counters exceed the grid size");
    const std::uint64_t accounted = progSkipped_ + progDone_;
    const std::uint64_t remaining =
        accounted < progTotal_ ? progTotal_ - accounted : 0;
    json::Value hb = json::Value::object();
    hb.set("v", 1);
    hb.set("type", "progress");
    hb.set("total", progTotal_);
    hb.set("done", progDone_);
    hb.set("ok", progOk_);
    hb.set("failed", progFailed_);
    hb.set("timeout", progTimeout_);
    hb.set("crashed", progCrashed_);
    hb.set("skipped", progSkipped_);
    hb.set("in_flight", inFlight_.load(std::memory_order_relaxed));
    hb.set("workers", static_cast<std::uint64_t>(progWorkers_));
    hb.set("elapsed_ms", elapsedMs);
    // ETA from the observed fresh-cell rate; null until the first
    // cell finishes (no rate yet), 0 once nothing remains.
    if (progDone_ == 0) {
        hb.set("eta_ms", json::Value());
    } else {
        hb.set("eta_ms",
               remaining * elapsedMs / progDone_);
    }
    hb.set("uops", progUops_);
    hb.set("uops_per_sec",
           elapsedMs ? static_cast<double>(progUops_) * 1000.0 /
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

void
SweepSupervisor::journalOutcome(std::size_t cell,
                                const std::string &key,
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
    // Serialise appenders: each record is one write()+fsync() and the
    // order of records does not matter (ids key them), but the
    // writer object itself is not concurrency-safe.
    std::lock_guard<std::mutex> lk(journalM_);
    writer_->append(rec);
}

JobOutcome
SweepSupervisor::runIsolated(const CellRunner &runner, std::size_t cell,
                             unsigned attempt)
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
        JobOutcome o;
        try {
            o = runner(cell, attempt);
        } catch (const std::exception &e) {
            classifyJobException(o, e);
        } catch (...) {
            o.failed = true;
            o.status = CellStatus::Failed;
            o.code = diagCodeName(DiagCode::Internal);
            o.error = "isolated cell threw a non-std exception";
        }
        if (o.status == CellStatus::Ok && o.resultJson.isNull())
            o.resultJson = o.result.toJson();
        json::Value doc = json::Value::object();
        doc.set("status", cellStatusName(o.status));
        doc.set("code", o.code);
        doc.set("error", o.error);
        doc.set("signal", o.signal);
        if (o.status == CellStatus::Ok)
            doc.set("result", o.resultJson);
        const std::string text = doc.dump(0);
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

    JobOutcome o;
    if (interrupted) {
        o.failed = true;
        o.status = CellStatus::Failed;
        o.code = diagCodeName(DiagCode::Interrupted);
        o.error = "isolated cell killed: sweep interrupted";
        return o;
    }
    if (timedOut) {
        o.failed = true;
        o.status = CellStatus::Timeout;
        o.code = diagCodeName(DiagCode::DeadlineExceeded);
        o.error = "wall-clock watchdog (" +
                  std::to_string(opts_.cellTimeoutMs) +
                  " ms) expired; isolated cell killed";
        return o;
    }
    if (WIFSIGNALED(st)) {
        o.failed = true;
        o.status = CellStatus::Crashed;
        o.signal = WTERMSIG(st);
        o.code = diagCodeName(DiagCode::CellCrashed);
        o.error = "isolated cell killed by signal " +
                  std::to_string(o.signal);
        return o;
    }
    if (!WIFEXITED(st) || WEXITSTATUS(st) != 0 || buf.empty()) {
        // A sanitizer or runtime that converts a crash into a
        // nonzero exit (ASan on SIGSEGV) lands here: still CRASHED,
        // just without a signal number.
        o.failed = true;
        o.status = CellStatus::Crashed;
        o.code = diagCodeName(DiagCode::CellCrashed);
        o.error =
            "isolated cell exited with status " +
            std::to_string(WIFEXITED(st) ? WEXITSTATUS(st) : -1) +
            " without a result";
        return o;
    }
    try {
        const json::Value doc = json::Value::parse(buf);
        o.status = parseCellStatus(doc.at("status").asString());
        o.code = doc.at("code").asString();
        o.error = doc.at("error").asString();
        o.signal = static_cast<int>(doc.at("signal").asU64());
        o.failed = o.status != CellStatus::Ok;
        if (o.status == CellStatus::Ok) {
            o.resultJson = doc.at("result");
            restoreResultSummary(o);
        }
    } catch (const std::exception &e) {
        o = JobOutcome{};
        o.failed = true;
        o.status = CellStatus::Crashed;
        o.code = diagCodeName(DiagCode::CellCrashed);
        o.error = std::string("unparsable result from isolated "
                              "cell: ") +
                  e.what();
    }
    return o;
}

void
SweepSupervisor::runCell(std::size_t cell, unsigned attempt,
                         const std::string &key,
                         const CellRunner &runner, JobOutcome &out)
{
    if (sweepInterruptRequested()) {
        out = JobOutcome{};
        out.failed = true;
        out.status = CellStatus::Failed;
        out.code = diagCodeName(DiagCode::Interrupted);
        out.error = "cell not started: sweep interrupted";
        out.attempts = 0;
        return; // deliberately not journaled: --resume re-runs it
    }
    inFlight_.fetch_add(1, std::memory_order_relaxed);
    JobOutcome o;
    if (opts_.isolate) {
        o = runIsolated(runner, cell, attempt);
    } else {
        try {
            o = runner(cell, attempt);
        } catch (const std::exception &e) {
            classifyJobException(o, e);
        } catch (...) {
            o.failed = true;
            o.status = CellStatus::Failed;
            o.code = diagCodeName(DiagCode::Internal);
            o.error = "cell threw a non-std exception";
        }
    }
    o.attempts = attempt;
    if (o.status == CellStatus::Ok && o.resultJson.isNull())
        o.resultJson = o.result.toJson();
    const bool completed =
        o.code != diagCodeName(DiagCode::Interrupted);
    if (opts_.progressFd >= 0 && completed) {
        std::lock_guard<std::mutex> lk(progressM_);
        if (attempt > 1) {
            // This cell already counted a failed attempt; the retry
            // outcome replaces it rather than inflating done/total.
            --progDone_;
            switch (out.status) {
              case CellStatus::Failed:  --progFailed_;  break;
              case CellStatus::Timeout: --progTimeout_; break;
              case CellStatus::Crashed: --progCrashed_; break;
              default: break;
            }
        }
        ++progDone_;
        switch (o.status) {
          case CellStatus::Ok:
            ++progOk_;
            progUops_ += o.result.uops;
            break;
          case CellStatus::Failed:  ++progFailed_;  break;
          case CellStatus::Timeout: ++progTimeout_; break;
          case CellStatus::Crashed: ++progCrashed_; break;
          default: break;
        }
    }
    out = std::move(o);
    if (writer_ && completed)
        journalOutcome(cell, key, out);
    inFlight_.fetch_sub(1, std::memory_order_relaxed);
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

    if (opts_.progressFd >= 0) {
        std::lock_guard<std::mutex> lk(progressM_);
        progressDead_ = false;
        progTotal_ = n;
        progDone_ = progOk_ = progFailed_ = 0;
        progTimeout_ = progCrashed_ = 0;
        progSkipped_ = n - pending.size();
        progUops_ = 0;
        progWorkers_ =
            opts_.workers ? opts_.workers : configuredWorkers();
        inFlight_.store(0, std::memory_order_relaxed);
        progStart_ = std::chrono::steady_clock::now();
    }
    emitProgress(); // initial heartbeat: grid size + resume skips
    const unsigned totalAttempts = 1 + opts_.retries;
    for (unsigned attempt = 1; attempt <= totalAttempts; ++attempt) {
        if (pending.empty() || sweepInterruptRequested())
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
            if (o.failed &&
                o.code != diagCodeName(DiagCode::Interrupted))
                next.push_back(cell);
        }
        pending = std::move(next);
    }

    for (const JobOutcome &o : outcomes) {
        switch (o.status) {
          case CellStatus::Ok:
            ++stats_.ok;
            break;
          case CellStatus::Skipped:
            ++stats_.skipped;
            break;
          case CellStatus::Failed:
            if (o.code == diagCodeName(DiagCode::Interrupted)) {
                ++stats_.interrupted;
            } else {
                ++stats_.failed;
                ++stats_.gaveUp;
            }
            break;
          case CellStatus::Timeout:
            ++stats_.timeout;
            ++stats_.gaveUp;
            break;
          case CellStatus::Crashed:
            ++stats_.crashed;
            ++stats_.gaveUp;
            break;
        }
    }
    interrupted_ = sweepInterruptRequested() || stats_.interrupted > 0;
    return outcomes;
}

} // namespace lrs
