/**
 * @file
 * Build provenance for JSON exports.
 *
 * Every `lrs_sim --json` document and benchutil::Report file carries a
 * "build" block identifying the binary that produced it — compiler id
 * and version, build type, sanitizer mode, and the git revision when
 * the build system could determine one — so BENCH_*.json entries in
 * the perf trajectory stay attributable long after the build tree is
 * gone. Provenance is attached to *top-level* documents only, never
 * to per-cell results: journaled cell documents must stay
 * byte-identical across resumes by a different binary
 * (docs/ROBUSTNESS.md, "Checkpoint journal and resume").
 */

#ifndef LRS_COMMON_BUILDINFO_HH
#define LRS_COMMON_BUILDINFO_HH

#include "common/json.hh"

namespace lrs
{

/**
 * {"compiler","compiler_version","build_type","sanitize","git_sha"}.
 * Fields the build system could not determine are "unknown".
 */
json::Value buildProvenanceJson();

} // namespace lrs

#endif // LRS_COMMON_BUILDINFO_HH
