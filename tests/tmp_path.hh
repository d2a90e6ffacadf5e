/**
 * @file
 * Scratch file names for the tests, private to one test process.
 */

#ifndef LRS_TESTS_TMP_PATH_HH
#define LRS_TESTS_TMP_PATH_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>

namespace lrs
{

/**
 * @p name under testing::TempDir(), prefixed with this process's pid,
 * so suites running at the same time (two build trees, or ctest -j
 * over one) never write the same file.
 */
inline std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "lrs_" + std::to_string(::getpid()) +
           "_" + name;
}

} // namespace lrs

#endif // LRS_TESTS_TMP_PATH_HH
