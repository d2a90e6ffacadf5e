/**
 * @file
 * Host-speed probe for lrs_bench (calibrate.cpp says how it works).
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

#include <cstdint>

namespace perfbench
{

/**
 * A fixed amount of work, the same on every call and independent of
 * the simulator. Returns a checksum the caller must consume.
 */
std::uint64_t probeWork();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
