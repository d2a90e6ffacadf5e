/**
 * @file
 * Host-speed probe for lrs_bench: a fixed piece of work that does not
 * depend on the simulator, timed beside every cell.
 *
 * On a shared host the speed one thread gets moves by tens of percent,
 * within seconds and over minutes, and every cell moves with it.
 * Timing this probe next to each cell measures that speed, so the
 * harness can report a cell's host time at a fixed reference speed.
 * The probe is built as its own library from this directory's flags
 * only, so a change to the simulator or to its build flags never
 * changes it.
 *
 * The work imitates the simulator's issue scan, which is three
 * quarters of its time: a small table of ready times (L1 resident, like
 * the issue window) is walked in order, each entry compared with a
 * moving clock, with data-dependent branches the predictor only partly
 * learns; an entry that issues is rewritten from a linear congruential
 * stream. A variant that also touched a 4 MiB table tracked the
 * simulator's speed worse (DESIGN.md, "Steadiness").
 */

#include "calibrate.hh"

#include <vector>

namespace perfbench
{

std::uint64_t
probeWork()
{
    constexpr std::size_t kEntries = 2048; // 16 KiB of ready times
    constexpr unsigned kSweeps = 160;
    static thread_local std::vector<std::uint64_t> ready(kEntries);
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
    for (std::size_t i = 0; i < kEntries; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        ready[i] = lcg >> 58;
    }
    std::uint64_t issued = 0;
    for (unsigned clock = 0; clock < kSweeps; ++clock) {
        const std::uint64_t now = clock % 64;
        for (std::size_t i = 0; i < kEntries; ++i) {
            if (ready[i] <= now) {
                lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
                ready[i] = now + (lcg >> 59);
                issued += i;
            } else if ((ready[i] ^ i) & 1) {
                issued ^= ready[i];
            }
        }
    }
    return issued;
}

} // namespace perfbench
