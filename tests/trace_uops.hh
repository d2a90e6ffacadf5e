/**
 * @file
 * Test helper: a trace's uops decoded into a vector, for checks that
 * index or scan the whole stream.
 */

#ifndef LRS_TESTS_TRACE_UOPS_HH
#define LRS_TESTS_TRACE_UOPS_HH

#include <vector>

#include "trace/stream.hh"

namespace lrs
{

/** Every uop of @p t in order, read through a fresh cursor. */
inline std::vector<Uop>
decodeAll(const VecTrace &t)
{
    VecTrace cursor = t;
    cursor.reset();
    std::vector<Uop> out;
    out.reserve(t.size());
    while (const Uop *u = cursor.next())
        out.push_back(*u);
    return out;
}

} // namespace lrs

#endif // LRS_TESTS_TRACE_UOPS_HH
