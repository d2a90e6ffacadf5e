/**
 * @file
 * Checkpointed machine snapshots for sweep-scale warmup reuse
 * (docs/ROBUSTNESS.md, "Snapshots").
 *
 * A snapshot file serialises the COMPLETE dynamic state of one
 * OooCore mid-run — ROB, scheduling window, MOB, caches, every
 * predictor table, RNG streams, result counters and interval
 * bookkeeping — such that a core restored from it and advanced to
 * completion produces statistics *bit-identical* to the uninterrupted
 * run. That contract is what makes sampled simulation honest: the
 * `--validate-snapshot` mode asserts it exactly, not within an error
 * bound.
 *
 * On-disk format: CRC-framed JSONL, the journal's `LRSJ1` framing
 * (common/journal.hh), written by writeFileAtomically() so a
 * SIGKILL mid-write leaves either the previous complete snapshot or
 * none. Layout:
 *
 *     header record    {"kind":"lrs-snapshot","version":1,
 *                       "cycle":..,"target":..,"trace":..,
 *                       "trace_size":..,"config":"<ini>",
 *                       "sections":N}
 *     N section records{"section":"core"|"rob"|...,"state":{...}}
 *     end record       {"kind":"lrs-snapshot-end","sections":N}
 *
 * The sections and their fields are OooCore::walkState() and the
 * component walks it calls (common/state_io.hh): a new state field is
 * declared once, in its component's walk.
 *
 * Reading is STRICT, unlike the resync-and-continue journal reader: a
 * damaged line, a missing end record, an unknown format version or a
 * section-count mismatch all throw ConfigError(E_JOURNAL_INVALID). A
 * snapshot that cannot be restored exactly must fail loudly, never
 * produce a subtly different machine.
 *
 * The warm-once sweep protocol (BatchGrid::warmupSnapshot): each
 * trace is simulated once under the grid's base config to the target
 * cycle and checkpointed; every scheme cell of that trace then
 * restores the checkpoint instead of re-warming. Components only the
 * variant has (its CHT, store-sets table, ...) start cold; a base
 * `scheme = inclusive` (or any CHT scheme) checkpoints a warm CHT for
 * every variant that has one.
 * Cross-scheme forks are therefore a *measurement protocol*, not
 * bit-equivalent to cold full runs; what IS exact is that the forked
 * sweep itself is deterministic (identical for any worker count, and
 * across kill/--resume), and that a same-config restore is
 * bit-identical to the run it checkpointed.
 */

#ifndef LRS_CORE_SNAPSHOT_HH
#define LRS_CORE_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"

namespace lrs
{

class OooCore;
class VecTrace;
struct BatchGrid;
struct FaultConfig;
struct MachineConfig;
struct SimJob;

/**
 * Current snapshot format version; loaders reject anything else.
 * v2: MOB partial-match counters in the "mob" section; optional
 * trace_bytes/trace_crc32 header fields carrying the content identity
 * of ingested (ChampSim) traces.
 */
constexpr std::uint64_t kSnapshotFormatVersion = 2;

/** One parsed snapshot file. */
struct SnapshotImage
{
    std::uint64_t version = 0;
    /** Simulated cycle the machine was checkpointed at. */
    Cycle cycle = 0;
    /** Stop cycle the writer was asked for (== cycle unless the
     *  machine drained first). */
    Cycle target = 0;
    std::string traceName;
    std::uint64_t traceSize = 0;
    /** Source-content identity of an ingested trace (0,0 = synthetic:
     *  identity is fully covered by name + size). */
    std::uint64_t traceBytes = 0;
    std::uint32_t traceCrc = 0;
    /** machineConfigToIni() of the machine that wrote the snapshot. */
    std::string configIni;
    /** The core state document (object of sections). */
    json::Value state;
};

/**
 * Checkpoint @p core (mid-run, at an advanceTo() boundary) to
 * @p path atomically. @p target is the stop cycle that was requested
 * (recorded for cache-validity checks; pass core.now() if N/A).
 * Throws IoError on any write failure.
 */
void writeSnapshot(const std::string &path, const OooCore &core,
                   const VecTrace &trace, Cycle target);

/**
 * Strictly parse the snapshot at @p path. Throws IoError if the file
 * cannot be read, ConfigError(E_JOURNAL_INVALID) on any content
 * damage (framing, CRC, version, structure).
 */
SnapshotImage readSnapshot(const std::string &path);

/**
 * Restore @p img into @p core, repositioning @p trace. The trace
 * must be the one the snapshot was taken on (name and size are
 * checked); the machine must be structurally compatible (geometry
 * mismatches throw). Replaces beginRun() — follow with advanceTo()/
 * finishRun().
 */
void restoreSnapshot(const SnapshotImage &img, OooCore &core,
                     VecTrace &trace);

/** readSnapshot() + restoreSnapshot() in one step. */
void loadSnapshotInto(const std::string &path, OooCore &core,
                      VecTrace &trace);

/**
 * The `--validate-snapshot` check: run @p cfg on @p trace once
 * uninterrupted and once through a checkpoint at @p stop written to
 * @p path (removed again), each with a fresh fault injector under
 * @p faults. True iff the two results' lossless serializations
 * (SimResult::saveState(), doubles as IEEE-754 bit patterns) are
 * byte-identical.
 */
bool snapshotRoundTripIdentical(const MachineConfig &cfg,
                                const FaultConfig &faults,
                                VecTrace &trace, Cycle stop,
                                const std::string &path);

/** Canonical checkpoint path of one trace's warmup in @p dir. */
std::string warmupSnapshotPath(const std::string &dir,
                               const std::string &trace_name);

/**
 * Ensure every trace of @p grid has a valid warmup checkpoint in
 * @p dir (created if absent), warming each trace once under the
 * grid's base config to grid.warmupSnapshot cycles. Existing
 * checkpoints are reused only when they validate completely AND were
 * written for the same target cycle, base config and trace — a stale,
 * torn or corrupt file is silently rewritten (the crash-recovery
 * path; atomic replacement keeps concurrent readers safe). Traces are
 * warmed in parallel on @p workers threads (0 = configured default);
 * the result is deterministic for any worker count.
 */
void prepareWarmupSnapshots(const BatchGrid &grid,
                            const std::string &dir, unsigned workers);

/**
 * Point every cell of @p jobs (buildGridJobs() order) at its trace's
 * warmup checkpoint in @p dir (SimJob::fromSnapshot).
 */
void attachWarmupSnapshots(const BatchGrid &grid,
                           const std::string &dir,
                           std::vector<SimJob> &jobs);

/**
 * The checkpoint directory a grid uses: grid.snapshotDir if set, else
 * @p fallback_base + ".snapshots" (deterministic, so --resume and
 * every worker agree without coordination).
 */
std::string snapshotDirFor(const BatchGrid &grid,
                           const std::string &fallback_base);

} // namespace lrs

#endif // LRS_CORE_SNAPSHOT_HH
