/**
 * @file
 * The materialised in-memory trace every run consumes.
 *
 * The simulator is trace driven (paper section 3): it consumes a
 * sequence of uops in correct-path program order. Benches run the same
 * trace under several machine configurations, so traces are generated
 * (or read from a file) once and materialised into a vector.
 */

#ifndef LRS_TRACE_STREAM_HH
#define LRS_TRACE_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/uop.hh"

namespace lrs
{

/**
 * A trace fully materialised in memory, read through a cursor.
 *
 * The uops are immutable and shared: copying a VecTrace makes a new
 * cursor over the same storage, so several machines can run one trace
 * concurrently (runAllSchemes()) while it exists once in memory.
 */
class VecTrace
{
  public:
    VecTrace(std::string name, std::vector<Uop> uops)
        : name_(std::move(name)),
          uops_(std::make_shared<const std::vector<Uop>>(std::move(uops)))
    {
    }

    /** Next uop, or nullptr at end of trace. */
    const Uop *
    next()
    {
        if (pos_ >= uops_->size())
            return nullptr;
        return &(*uops_)[pos_++];
    }

    /** Restart the cursor from the beginning. */
    void reset() { pos_ = 0; }

    /** Human-readable trace name. */
    const std::string &name() const { return name_; }

    /** Total number of uops in the trace. */
    std::size_t size() const { return uops_->size(); }

    /**
     * Reposition the cursor so the next() call returns uop @p n (or
     * end-of-trace when @p n >= size()). Snapshot restore
     * (core/snapshot.hh) uses this to fast-forward a fresh cursor to
     * where the checkpointed machine had consumed the trace.
     */
    void
    seek(std::size_t n)
    {
        pos_ = n < uops_->size() ? n : uops_->size();
    }

    /** Direct access for analyses that want random access. */
    const std::vector<Uop> &uops() const { return *uops_; }

    /** Stamp the source-content identity (external readers only). */
    void
    setContentId(std::uint64_t bytes, std::uint32_t crc)
    {
        contentBytes_ = bytes;
        contentCrc_ = crc;
    }

    /**
     * Content identity of an externally ingested trace: the byte count
     * and CRC-32 of the source bytes the decoder consumed. Zero for
     * synthesised traces (whose identity is their name + length — both
     * already checked on snapshot restore). Snapshot restore uses this
     * to refuse a checkpoint taken from a since-modified trace file.
     */
    std::uint64_t contentBytes() const { return contentBytes_; }
    std::uint32_t contentCrc() const { return contentCrc_; }

  private:
    std::string name_;
    std::shared_ptr<const std::vector<Uop>> uops_;
    std::size_t pos_ = 0;
    std::uint64_t contentBytes_ = 0;
    std::uint32_t contentCrc_ = 0;
};

} // namespace lrs

#endif // LRS_TRACE_STREAM_HH
