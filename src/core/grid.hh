/**
 * @file
 * Batch sweep grids: the (traces × schemes) cross product every
 * figure bench and `lrs_sim --batch` run is made of.
 *
 * A grid is described in a small INI dialect:
 *
 *   traces  = wd gcc swim          # required
 *   schemes = traditional, perfect # optional; default: all schemes
 *   len     = 200000               # uops per generated trace
 *   jobs    = 4                    # optional pool-width hint
 *   sched_window = 64              # any machineConfigFromIni() key
 *                                  # is a layer over the base config
 *
 * The schemes axis sets each cell's scheme; a base scheme other than
 * traditional, read only by the warm-up run, needs `warmup_snapshot`.
 *
 * Parsing and cell expansion live here — not in the CLI — because
 * the CLI, perfbench and the tests share one grammar, one cell-key
 * scheme and one error taxonomy. All failures are structured
 * ConfigError/IoError diags.
 */

#ifndef LRS_CORE_GRID_HH
#define LRS_CORE_GRID_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/parallel.hh"

namespace lrs
{

/** One parsed grid: the cell axes plus the shared machine config. */
struct BatchGrid
{
    std::vector<std::string> traces;
    std::vector<OrderingScheme> schemes;
    std::uint64_t len = 200000;
    unsigned jobs = 0;
    /**
     * Warm-once sampling (ini key `warmup_snapshot`, 0 = off): every
     * trace is simulated once under the base config to this cycle,
     * the machine state is checkpointed, and each scheme cell of that
     * trace resumes from the checkpoint instead of re-warming —
     * docs/ROBUSTNESS.md, "Snapshots".
     */
    std::uint64_t warmupSnapshot = 0;
    /** Where warmup checkpoints are kept (ini key `snapshot_dir`);
     *  empty = alongside the journal / a temp dir. */
    std::string snapshotDir;
    MachineConfig base;

    std::size_t cells() const
    {
        return traces.size() * schemes.size();
    }
};

/**
 * Parse grid text from @p is. Its config lines apply on top of
 * @p base, the config the grid starts from. @p origin names the
 * source in diagnostics ("batch file x.ini"). Throws ConfigError on
 * unknown keys, malformed values, an invalid base config or an empty
 * trace list.
 */
BatchGrid parseBatchGrid(std::istream &is,
                         const std::string &origin = "grid",
                         const MachineConfig &base = {});

/** Parse the grid file at @p path (IoError if unreadable). */
BatchGrid parseBatchGridFile(const std::string &path,
                             const MachineConfig &base = {});

/**
 * Expand @p grid into its cells, trace-major (the grid order every
 * report prints): jobs[i] is (trace i/nschemes, scheme i%nschemes)
 * and keys[i] is "trace/scheme" — the stable identity the checkpoint
 * journal validates on resume. Throws ConfigError for an unknown
 * trace name, or for a base scheme other than traditional without
 * `warmup_snapshot`: no run would read it.
 */
void buildGridJobs(const BatchGrid &grid, std::vector<SimJob> &jobs,
                   std::vector<std::string> &keys);

} // namespace lrs

#endif // LRS_CORE_GRID_HH
