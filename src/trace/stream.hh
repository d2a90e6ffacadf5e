/**
 * @file
 * Trace stream abstraction and the materialised in-memory trace.
 *
 * The simulator is trace driven (paper section 3): it consumes a
 * sequence of uops in correct-path program order. Benches run the same
 * trace under several machine configurations, so traces are generated
 * once and materialised into a vector.
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
 * A replayable stream of uops in program order.
 */
class TraceStream
{
  public:
    virtual ~TraceStream() = default;

    /** Next uop, or nullptr at end of trace. */
    virtual const Uop *next() = 0;

    /** Restart the stream from the beginning. */
    virtual void reset() = 0;

    /** Human-readable trace name. */
    virtual const std::string &name() const = 0;

    /** Total number of uops in the trace. */
    virtual std::size_t size() const = 0;

    /**
     * Reposition the cursor so the next() call returns uop @p n (or
     * end-of-trace when @p n >= size()). Snapshot restore
     * (core/snapshot.hh) uses this to fast-forward a fresh stream to
     * where the checkpointed machine had consumed it. The default
     * replays the stream from the start; materialised traces override
     * it with a direct cursor move.
     */
    virtual void
    seek(std::size_t n)
    {
        reset();
        for (std::size_t i = 0; i < n; ++i) {
            if (!next())
                break;
        }
    }

    /**
     * Content identity of an externally ingested trace: the byte count
     * and CRC-32 of the source bytes the decoder consumed. Zero for
     * synthesised traces (whose identity is their name + length — both
     * already checked on snapshot restore). Snapshot restore uses this
     * to refuse a checkpoint taken from a since-modified trace file.
     */
    virtual std::uint64_t contentBytes() const { return 0; }
    virtual std::uint32_t contentCrc() const { return 0; }
};

/**
 * A trace fully materialised in memory.
 *
 * The uops are immutable and shared: copying a VecTrace makes a new
 * cursor over the same storage, so several machines can run one trace
 * concurrently (runAllSchemes()) while it exists once in memory.
 */
class VecTrace : public TraceStream
{
  public:
    VecTrace(std::string name, std::vector<Uop> uops)
        : name_(std::move(name)),
          uops_(std::make_shared<const std::vector<Uop>>(std::move(uops)))
    {
    }

    const Uop *
    next() override
    {
        if (pos_ >= uops_->size())
            return nullptr;
        return &(*uops_)[pos_++];
    }

    void reset() override { pos_ = 0; }
    const std::string &name() const override { return name_; }
    std::size_t size() const override { return uops_->size(); }

    void
    seek(std::size_t n) override
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

    std::uint64_t contentBytes() const override { return contentBytes_; }
    std::uint32_t contentCrc() const override { return contentCrc_; }

  private:
    std::string name_;
    std::shared_ptr<const std::vector<Uop>> uops_;
    std::size_t pos_ = 0;
    std::uint64_t contentBytes_ = 0;
    std::uint32_t contentCrc_ = 0;
};

} // namespace lrs

#endif // LRS_TRACE_STREAM_HH
