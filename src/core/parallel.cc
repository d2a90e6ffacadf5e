#include "core/parallel.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <system_error>
#include <thread>

#include "core/core.hh"
#include "core/flight_recorder.hh"
#include "core/runner.hh"
#include "core/snapshot.hh"
#include "trace/library.hh"

namespace lrs
{

namespace
{

/**
 * Set while this thread is running parallelFor() jobs (the calling
 * thread included). A nested parallelFor() under this flag runs
 * inline: the outer grid already occupies the workers, and starting
 * threads per job would multiply the width instead of filling it.
 */
thread_local bool tlInJob = false;

} // namespace

unsigned
configuredWorkers()
{
    const std::uint64_t env = envU64("LRS_JOBS", 0);
    if (env > 0) {
        // Cap well above any plausible machine; a typo'd huge value
        // must not try to spawn millions of threads.
        return static_cast<unsigned>(env > 1024 ? 1024 : env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            unsigned workers)
{
    if (n == 0)
        return;
    std::atomic<std::size_t> cursor{0};
    std::mutex errM;
    std::size_t errIndex = n;
    std::exception_ptr err;
    const auto drain = [&] {
        const bool nested = tlInJob;
        tlInJob = true;
        for (std::size_t i;
             (i = cursor.fetch_add(1, std::memory_order_relaxed)) < n;) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(errM);
                if (i < errIndex) {
                    errIndex = i;
                    err = std::current_exception();
                }
            }
        }
        tlInJob = nested;
    };

    const std::size_t width =
        tlInJob ? 1
                : std::min<std::size_t>(
                      workers ? workers : configuredWorkers(), n);
    {
        // jthreads join when the vector goes out of scope.
        std::vector<std::jthread> threads;
        try {
            while (threads.size() + 1 < width)
                threads.emplace_back(drain);
        } catch (const std::system_error &) {
            // The host refused another thread: the threads already
            // running and the caller still drain every index.
        }
        drain();
    }
    if (err)
        std::rethrow_exception(err);
}

const char *
cellStatusName(CellStatus s)
{
    switch (s) {
      case CellStatus::Ok:      return "OK";
      case CellStatus::Failed:  return "FAILED";
      case CellStatus::Timeout: return "TIMEOUT";
      case CellStatus::Crashed: return "CRASHED";
      case CellStatus::Skipped: return "SKIPPED";
    }
    return "?";
}

CellStatus
parseCellStatus(const std::string &name)
{
    if (name == "OK") return CellStatus::Ok;
    if (name == "FAILED") return CellStatus::Failed;
    if (name == "TIMEOUT") return CellStatus::Timeout;
    if (name == "CRASHED") return CellStatus::Crashed;
    if (name == "SKIPPED") return CellStatus::Skipped;
    throw std::invalid_argument("unknown cell status: " + name);
}

void
classifyJobException(JobOutcome &o, const std::exception &e)
{
    o.error = e.what();
    // A deadline is a distinct outcome, not a generic failure: the
    // supervisor retries it under the same budget and reports it as
    // TIMEOUT if it persists.
    if (dynamic_cast<const DeadlineError *>(&e)) {
        o.status = CellStatus::Timeout;
        o.code = diagCodeName(DiagCode::DeadlineExceeded);
        return;
    }
    o.status = CellStatus::Failed;
    if (const auto *de = dynamic_cast<const DiagnosticError *>(&e);
        de && !de->diags().empty()) {
        o.code = diagCodeName(de->diags().front().code);
    } else {
        o.code = diagCodeName(DiagCode::Internal);
    }
}

JobOutcome
runOneSimJob(const SimJob &job)
{
    return runOneSimJob(job, nullptr);
}

JobOutcome
runOneSimJob(const SimJob &job, FlightRecorder *fr)
{
    JobOutcome o;
    try {
        auto trace = TraceLibrary::make(job.trace);
        OooCore core(job.cfg);
        core.attachFlightRecorder(fr);
        if (!job.fromSnapshot.empty()) {
            // Warm-once sampling: restore the trace's checkpoint and
            // simulate only the measured region.
            loadSnapshotInto(job.fromSnapshot, core, *trace);
            core.advanceTo(*trace);
            o.result = core.finishRun();
        } else {
            o.result = core.run(*trace);
        }
    } catch (const std::exception &e) {
        // Everything — including an AuditError from a fault-injected
        // cell — fails only this cell; the grid carries on and the
        // front end maps the code to its report.
        classifyJobException(o, e);
        if (fr) {
            fr->note("outcome", o.code + ": " + o.error);
            fr->dumpNow();
        }
    }
    return o;
}

std::vector<JobOutcome>
runJobs(const std::vector<SimJob> &jobs, unsigned workers)
{
    std::vector<JobOutcome> out(jobs.size());
    parallelFor(
        jobs.size(),
        [&](std::size_t i) { out[i] = runOneSimJob(jobs[i]); }, workers);
    return out;
}

} // namespace lrs
