#include "core/grid.hh"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common/diag.hh"
#include "common/parse.hh"
#include "core/config_io.hh"
#include "core/runner.hh"
#include "trace/library.hh"

namespace lrs
{

namespace
{

/** Split a grid-file list value on commas and whitespace. */
std::vector<std::string>
splitList(std::string s)
{
    std::replace(s.begin(), s.end(), ',', ' ');
    std::istringstream is(s);
    return {std::istream_iterator<std::string>(is), {}};
}

[[noreturn]] void
throwGrid(const std::string &origin, const std::string &message)
{
    throw ConfigError(makeDiag(DiagCode::ConfigInvalid, "core.grid",
                               "grid", message + " (" + origin + ")"));
}

/** Parse @p value into an unsigned @p T; a value that does not fit
 *  is a grid error, never truncated. */
template <typename T>
T
parseKey(const std::string &origin, const std::string &key,
         const std::string &value)
{
    try {
        return parseUnsigned<T>(value);
    } catch (const std::invalid_argument &e) {
        throwGrid(origin, "bad " + key + " value: " + e.what());
    }
}

} // namespace

BatchGrid
parseBatchGrid(std::istream &is, const std::string &origin,
               const MachineConfig &base)
{
    BatchGrid grid;
    grid.base = base;
    std::ostringstream cfg_lines;
    std::string line;
    while (std::getline(is, line)) {
        std::string text = line;
        if (const auto hash = text.find_first_of("#;");
            hash != std::string::npos)
            text.erase(hash);
        const auto eq = text.find('=');
        if (eq == std::string::npos) {
            if (!trim(text).empty())
                cfg_lines << line << '\n'; // let the config parser
                                           // report the syntax error
            continue;
        }
        const std::string key = trim(text.substr(0, eq));
        const std::string value = trim(text.substr(eq + 1));
        if (key == "traces") {
            grid.traces = splitList(value);
        } else if (key == "schemes") {
            for (const auto &name : splitList(value)) {
                try {
                    grid.schemes.push_back(parseOrderingScheme(name));
                } catch (const std::invalid_argument &e) {
                    throwGrid(origin, e.what());
                }
            }
        } else if (key == "len") {
            grid.len = parseKey<std::uint64_t>(origin, key, value);
        } else if (key == "jobs") {
            grid.jobs = parseKey<unsigned>(origin, key, value);
        } else if (key == "warmup_snapshot") {
            grid.warmupSnapshot =
                parseKey<std::uint64_t>(origin, key, value);
        } else if (key == "snapshot_dir") {
            grid.snapshotDir = value;
        } else {
            cfg_lines << line << '\n';
        }
    }
    std::istringstream cfg_is(cfg_lines.str());
    try {
        grid.base = machineConfigFromIni(cfg_is, grid.base);
    } catch (const ConfigError &) {
        throw;
    } catch (const std::invalid_argument &e) {
        throwGrid(origin, e.what());
    }
    if (grid.traces.empty())
        throwGrid(origin, "grid names no traces");
    if (grid.schemes.empty())
        grid.schemes = allSchemes();
    return grid;
}

BatchGrid
parseBatchGridFile(const std::string &path, const MachineConfig &base)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        throw IoError(makeDiag(DiagCode::IoOpenFailed, "core.grid",
                               "path", "cannot open " + path));
    }
    return parseBatchGrid(is, "batch file " + path, base);
}

void
buildGridJobs(const BatchGrid &grid, std::vector<SimJob> &jobs,
              std::vector<std::string> &keys)
{
    // The schemes axis sets each cell's scheme, so the base config's
    // own scheme is read only by the warm-up run.
    if (grid.base.scheme != MachineConfig{}.scheme && !grid.warmupSnapshot)
        throwGrid(std::string("base scheme ") +
                      orderingSchemeName(grid.base.scheme),
                  "a base scheme needs warmup_snapshot, whose warm-up run "
                  "alone reads it; the schemes axis sets each cell's");
    jobs.clear();
    keys.clear();
    jobs.reserve(grid.cells());
    keys.reserve(grid.cells());
    for (const auto &name : grid.traces) {
        TraceParams tp;
        try {
            tp = TraceLibrary::byName(name, grid.len);
        } catch (const std::invalid_argument &e) {
            throw ConfigError(makeDiag(DiagCode::ConfigInvalid,
                                       "core.grid", "traces",
                                       e.what()));
        }
        for (const auto scheme : grid.schemes) {
            SimJob job;
            job.trace = tp;
            job.cfg = grid.base;
            job.cfg.scheme = scheme;
            jobs.push_back(std::move(job));
            keys.push_back(name + "/" + orderingSchemeName(scheme));
        }
    }
}

} // namespace lrs
