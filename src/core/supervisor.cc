#include "core/supervisor.hh"

#include <algorithm>
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

/** An outcome the supervisor decides itself: the cell left no record. */
JobOutcome
decided(CellStatus status, DiagCode code, std::string error,
        unsigned attempts, int signal = 0)
{
    JobOutcome o;
    o.status = status;
    o.code = diagCodeName(code);
    o.error = std::move(error);
    o.attempts = attempts;
    o.signal = signal;
    return o;
}

/**
 * One attempt, in process or in the isolated child: what escapes
 * @p runner is classified and an OK outcome's document filled.
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
        o = decided(CellStatus::Failed, DiagCode::Internal,
                    "cell threw a non-std exception", attempt);
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

JobOutcome
notStarted()
{
    return decided(CellStatus::Failed, DiagCode::Interrupted,
                   "cell not started: sweep interrupted", 0);
}

[[noreturn]] void
throwSysError(const char *call)
{
    throw IoError(makeDiag(DiagCode::IoOpenFailed, "core.supervisor", call,
                           std::string(call) + "() failed: " +
                               std::strerror(errno)));
}

/** One forked attempt: its pid, its result pipe and what it sent. */
struct Child
{
    std::size_t cell;
    pid_t pid;
    int fd; ///< read end of the result pipe
    std::chrono::steady_clock::time_point deadline; ///< watchdog
    std::string buf;
};

/**
 * Fork one attempt of @p cell: the child runs it and writes its record
 * to the pipe, and a crash (SIGSEGV, abort()) kills only the child.
 */
Child
forkCell(const SweepSupervisor::CellRunner &runner, std::size_t cell,
         unsigned attempt, const std::string &key,
         std::chrono::steady_clock::time_point deadline)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throwSysError("pipe");
    // Flush stdio so the child does not replay inherited buffers.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        const std::string text =
            outcomeRecord(cell, key, runGuarded(runner, cell, attempt))
                .dump(0);
        ::_exit(writeFully(fds[1], text) ? 0 : 3); // 3: no result
    }
    const int err = errno;
    ::close(fds[1]);
    if (pid < 0) {
        ::close(fds[0]);
        errno = err;
        throwSysError("fork");
    }
    return Child{cell, pid, fds[0], deadline, {}};
}

/** Read what @p c's pipe holds; false once it is closed (or broken). */
bool
readSome(Child &c)
{
    char chunk[4096];
    const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
    if (n > 0)
        c.buf.append(chunk, static_cast<std::size_t>(n));
    return n > 0 || (n < 0 && errno == EINTR);
}

/** SIGKILL @p c if @p kill, then close its pipe and reap it. */
int
reap(Child &c, bool kill)
{
    if (kill)
        ::kill(c.pid, SIGKILL);
    ::close(c.fd);
    int st = 0;
    while (::waitpid(c.pid, &st, 0) < 0 && errno == EINTR) {
    }
    return st;
}

/** The outcome of a child that closed its pipe and exited with @p st. */
JobOutcome
exitedOutcome(int st, const std::string &buf, unsigned attempt)
{
    // A sanitizer or runtime that turns a crash into a nonzero exit
    // (ASan on SIGSEGV) is still CRASHED, just without a signal.
    std::string why = "isolated cell exited with status " +
                      std::to_string(WIFEXITED(st) ? WEXITSTATUS(st) : -1) +
                      " without a result";
    if (WIFSIGNALED(st)) {
        why = "isolated cell killed by signal " +
              std::to_string(WTERMSIG(st));
    } else if (WIFEXITED(st) && WEXITSTATUS(st) == 0 && !buf.empty()) {
        try {
            return outcomeFromRecord(json::Value::parse(buf));
        } catch (const std::exception &e) {
            why = std::string("unparsable result from isolated cell: ") +
                  e.what();
        }
    }
    return decided(CellStatus::Crashed, DiagCode::CellCrashed, why,
                   attempt, WIFSIGNALED(st) ? WTERMSIG(st) : 0);
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
    // Skipped cells are not fresh work; a miscount must not wrap ETA.
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
    // ETA from the fresh-cell rate; null until a cell has finished.
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
    // One write per line, so a reader never sees a torn heartbeat.
    if (!writeFully(opts_.progressFd, line))
        progressDead_ = true;
}

void
SweepSupervisor::settle(std::size_t cell, unsigned attempt,
                        const std::string &key, JobOutcome o,
                        JobOutcome &out)
{
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
            // Ids key the records, so their order does not matter;
            // the writer is not concurrency-safe, hence under m_.
            if (writer_)
                writer_->append(rec);
        }
    }
    out = std::move(o);
    if (completed)
        emitProgress();
}

void
SweepSupervisor::runIsolated(const std::vector<std::size_t> &pending,
                             unsigned attempt,
                             const std::vector<std::string> &keys,
                             const CellRunner &runner,
                             std::vector<JobOutcome> &outcomes)
{
    using Clock = std::chrono::steady_clock;
    const std::chrono::milliseconds limit(opts_.cellTimeoutMs);
    const std::string watchdog = "wall-clock watchdog (" +
                                 std::to_string(limit.count()) +
                                 " ms) expired; isolated cell killed";
    std::vector<Child> live;
    std::size_t next = 0; // pending[next] is the next cell to fork
    try {
        while (next < pending.size() || !live.empty()) {
            // After an interrupt no cell starts and every child dies.
            const bool stop = sweepInterruptRequested();
            for (; next < pending.size() &&
                   (stop || live.size() < workers_);
                 ++next) {
                const std::size_t cell = pending[next];
                if (stop)
                    settle(cell, attempt, keys[cell], notStarted(),
                           outcomes[cell]);
                else
                    live.push_back(forkCell(runner, cell, attempt,
                                            keys[cell],
                                            limit.count()
                                                ? Clock::now() + limit
                                                : Clock::time_point::max()));
                inFlight_.store(live.size(), std::memory_order_relaxed);
            }
            // Sleep until a pipe is readable or closed, a watchdog is
            // due or 200 ms pass (an interrupt must reach silent ones).
            std::chrono::milliseconds wait(stop ? 0 : 200);
            std::vector<pollfd> pfds;
            for (const Child &c : live) {
                pfds.push_back({c.fd, POLLIN, 0});
                wait = std::clamp(std::chrono::ceil<decltype(wait)>(
                                      c.deadline - Clock::now()),
                                  decltype(wait)::zero(), wait);
            }
            if (::poll(pfds.data(), pfds.size(),
                       static_cast<int>(wait.count())) < 0 &&
                errno != EINTR)
                throwSysError("poll");
            const auto now = Clock::now();
            // Downward: an erase shifts only the children already seen.
            for (std::size_t k = live.size(); k-- > 0;) {
                Child &c = live[k];
                const bool kill = stop || now >= c.deadline;
                if (!kill && (!pfds[k].revents || readSome(c)))
                    continue; // still running, its pipe still open
                const int st = reap(c, kill);
                JobOutcome o =
                    stop ? decided(CellStatus::Failed, DiagCode::Interrupted,
                                   "isolated cell killed: sweep interrupted",
                                   attempt)
                    : kill ? decided(CellStatus::Timeout,
                                     DiagCode::DeadlineExceeded, watchdog,
                                     attempt)
                           : exitedOutcome(st, c.buf, attempt);
                // The child leaves the live set first, so the
                // heartbeat's in_flight counts those still running.
                const std::size_t cell = c.cell;
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
                inFlight_.store(live.size(), std::memory_order_relaxed);
                settle(cell, attempt, keys[cell], std::move(o),
                       outcomes[cell]);
            }
        }
    } catch (...) {
        for (Child &c : live)
            reap(c, /*kill=*/true);
        inFlight_.store(0, std::memory_order_relaxed);
        throw;
    }
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
        if (opts_.isolate) {
            runIsolated(pending, attempt, keys, runner, outcomes);
        } else {
            parallelFor(
                pending.size(),
                [&](std::size_t k) {
                    const std::size_t cell = pending[k];
                    JobOutcome o = notStarted();
                    if (!sweepInterruptRequested()) {
                        inFlight_.fetch_add(1, std::memory_order_relaxed);
                        o = runGuarded(runner, cell, attempt);
                        inFlight_.fetch_sub(1, std::memory_order_relaxed);
                    }
                    settle(cell, attempt, keys[cell], std::move(o),
                           outcomes[cell]);
                },
                opts_.workers);
        }
        // The next round re-runs the survivors in ascending cell id,
        // so the journal's retry trail is reproducible.
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
