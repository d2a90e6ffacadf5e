/**
 * @file
 * Machine-configuration text I/O.
 *
 * Parses a small INI-style format ("key = value" lines, '#' or ';'
 * comments) into a MachineConfig, and serialises one back, so
 * experiment configurations can be versioned next to results instead
 * of living in command lines. Also exports the enum parsers and a
 * single-key setter for grid files and the lrs_sim CLI.
 *
 * Every key, its field and its spelling come from one table, kFields
 * in config_io.cc; its order is the order machineConfigToIni() writes.
 * The same rows give the lrs_sim config flags and their --help text.
 */

#ifndef LRS_CORE_CONFIG_IO_HH
#define LRS_CORE_CONFIG_IO_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/config.hh"

namespace lrs
{

// Enum parsers (throw std::invalid_argument on unknown names).
OrderingScheme parseOrderingScheme(const std::string &s);
HmpKind parseHmpKind(const std::string &s);
BankMode parseBankMode(const std::string &s);
BankPredKind parseBankPredKind(const std::string &s);
ChtKind parseChtKind(const std::string &s);

/**
 * Set the field of @p cfg that INI key @p key names from @p value,
 * spelt as in a config file. Integers must be canonical base-10 and
 * fit their field.
 *
 * @throws std::invalid_argument on an unknown key or a bad value.
 */
void setMachineConfigKey(MachineConfig &cfg, const std::string &key,
                         const std::string &value);

/** Whether @p flag (e.g. "--window") is an lrs_sim config flag. */
bool isMachineConfigFlag(std::string_view flag);

/**
 * Set the field that config flag @p flag sets from @p value, as
 * setMachineConfigKey() does for the field's INI key.
 *
 * @throws std::invalid_argument on an unknown flag or a bad value.
 */
void setMachineConfigFlag(MachineConfig &cfg, std::string_view flag,
                          const std::string &value);

/**
 * The --help lines of the config flags, in table order: each flag
 * with its text, and an enum flag with the spellings it accepts.
 */
std::string machineConfigFlagHelp();

/**
 * One lrs_sim --help entry: @p head ("--flag ARG") from column 2 and
 * @p text from column 24, wrapped to 78 columns before a space or
 * after a '|', so that an enum's spelling list breaks between names.
 */
std::string helpEntry(std::string_view head, std::string_view text);

/**
 * Apply "key = value" lines from @p is on top of @p base, then
 * validate the result. The keys are those machineConfigToIni() writes.
 *
 * @throws ConfigError on unknown keys, malformed values or an invalid
 * machine.
 */
MachineConfig machineConfigFromIni(std::istream &is,
                                   MachineConfig base = {});

/** Load a configuration file from @p path. */
MachineConfig machineConfigFromFile(const std::string &path,
                                    MachineConfig base = {});

/** Serialise @p cfg to the INI format machineConfigFromIni() reads. */
std::string machineConfigToIni(const MachineConfig &cfg);

} // namespace lrs

#endif // LRS_CORE_CONFIG_IO_HH
