/**
 * @file
 * State walks: the one description of each component's snapshot
 * state (core/snapshot.hh).
 *
 * A component names every field of its dynamic state once, in on-disk
 * order, in a `walkState(stateio::Archive &)` member. The same walk
 * runs in both directions: a saving Archive appends each field to a
 * JSON object, a loading Archive reads it back and checks it. The
 * direction is a runtime property of the archive, so a walk can be a
 * virtual function (the predictor base classes). A new state field is
 * one more line in its component's walkState().
 *
 * The snapshot determinism contract (docs/ROBUSTNESS.md, "Snapshots")
 * is *bit* identity, so nothing here may round: integers ride on
 * json::Value's exact u64/i64 representation, and doubles travel as
 * their IEEE-754 bit pattern in a u64 — "0.1" never takes a trip
 * through decimal text. The field's C++ type fixes its encoding:
 *  - unsigned integers as u64, signed ones as i64, enums by their
 *    underlying value, doubles as their bit pattern;
 *  - bools as JSON booleans when they are object members, as 0/1 in
 *    rows and integer arrays;
 *  - integer arrays (ints(), list(), column()) carry each element's
 *    u64 image, so an int -1 reads 18446744073709551615 there;
 *  - a row is one record's fields as a positional array.
 *
 * Loading throws ConfigError(E_JOURNAL_INVALID) on a missing or
 * malformed field, a value that does not fit its field's type or lies
 * outside the range the walk declares for it, and an array whose
 * length does not match the configured geometry: a snapshot that
 * cannot be restored exactly must fail loudly, never produce a subtly
 * different machine.
 */

#ifndef LRS_COMMON_STATE_IO_HH
#define LRS_COMMON_STATE_IO_HH

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/diag.hh"
#include "common/json.hh"
#include "common/sat_counter.hh"

namespace lrs::stateio
{

/** Reject a malformed snapshot section, naming the field. */
[[noreturn]] inline void
fail(const std::string &field, const std::string &message)
{
    throw ConfigError(makeDiag(DiagCode::JournalInvalid,
                               "core.snapshot", field, message));
}

namespace detail
{

/** The integer a field travels as: an enum's underlying type. */
template <typename T>
using Carrier = typename std::conditional_t<std::is_enum_v<T>,
                                            std::underlying_type<T>,
                                            std::type_identity<T>>::type;

/** JSON image of one scalar row or object field. */
template <typename T>
json::Value
encode(const T &v)
{
    if constexpr (std::is_same_v<T, double>) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        return json::Value(bits);
    } else if constexpr (std::is_signed_v<Carrier<T>>) {
        return json::Value(static_cast<std::int64_t>(v));
    } else {
        return json::Value(static_cast<std::uint64_t>(v));
    }
}

/** Read @p j into @p v; it must be a number that fits T. */
template <typename T>
void
decode(const json::Value &j, const std::string &key, T &v)
{
    if (!j.isNumber())
        fail(key, "snapshot field '" + key + "' is not a number");
    if constexpr (std::is_same_v<T, double>) {
        const std::uint64_t bits = j.asU64();
        std::memcpy(&v, &bits, sizeof(v));
    } else {
        using C = Carrier<T>;
        bool fits = false;
        if constexpr (std::is_same_v<C, bool>)
            fits = j.asU64() <= 1;
        else if constexpr (std::is_signed_v<C>)
            fits = std::in_range<C>(j.asI64());
        else
            fits = std::in_range<C>(j.asU64());
        if (!fits) {
            fail(key, "snapshot field '" + key + "' holds " + j.dump() +
                          ", which does not fit its type");
        }
        if constexpr (std::is_signed_v<C>)
            v = static_cast<T>(static_cast<C>(j.asI64()));
        else
            v = static_cast<T>(static_cast<C>(j.asU64()));
    }
}

/** u64 image of one integer-array element. */
template <typename T>
json::Value
image(T v)
{
    return json::Value(static_cast<std::uint64_t>(v));
}

/** Read an element's u64 image into @p v; it must round-trip. */
template <typename T>
void
fromImage(const json::Value &j, const std::string &key, T &v)
{
    if (!j.isNumber())
        fail(key, "snapshot array '" + key + "' holds a non-number");
    const std::uint64_t u = j.asU64();
    v = static_cast<T>(u);
    if (static_cast<std::uint64_t>(v) != u) {
        fail(key, "snapshot array '" + key + "' holds " +
                      std::to_string(u) + ", which does not fit its type");
    }
}

template <typename T>
void
checkRange(const std::string &key, const T &v, const T &lo, const T &hi)
{
    if (v < lo || hi < v) {
        fail(key, "snapshot field '" + key +
                      "' lies outside the configured machine");
    }
}

} // namespace detail

/**
 * One record's fields as a positional array, in walk order. Each
 * call reads or writes the next position; a loading row must hold
 * exactly as many fields as the walk names.
 */
class Row
{
  public:
    template <typename T>
    Row &
    operator()(T &v)
    {
        if (in_)
            detail::decode(next(), key_, v);
        else
            out_.push(detail::encode(v));
        return *this;
    }

    /** A field that must also lie in [lo, hi]. */
    template <typename T>
    Row &
    operator()(T &v, std::type_identity_t<T> lo,
               std::type_identity_t<T> hi)
    {
        (*this)(v);
        if (in_)
            detail::checkRange(key_, v, lo, hi);
        return *this;
    }

  private:
    friend class Archive;

    explicit Row(const std::string &key)
        : key_(key), out_(json::Value::array())
    {}
    Row(const std::string &key, const json::Value &in)
        : key_(key), in_(&in)
    {}

    const json::Value &
    next()
    {
        if (k_ >= in_->size())
            fail(key_, "a '" + key_ + "' row has too few fields");
        return in_->at(k_++);
    }

    void
    finish() const
    {
        if (in_ && k_ != in_->size())
            fail(key_, "a '" + key_ + "' row has too many fields");
    }

    const std::string &key_;
    const json::Value *in_ = nullptr;
    json::Value out_;
    std::size_t k_ = 0;
};

/** One object section of a state walk, in either direction. */
class Archive
{
  public:
    /** A saving archive: the walk fills an empty object. */
    Archive() : out_(json::Value::object()) {}

    /** A loading archive over @p in (which must outlive it). */
    explicit Archive(const json::Value &in,
                     const std::string &key = "state")
        : in_(&in)
    {
        if (!in.isObject())
            fail(key, "snapshot section '" + key +
                          "' is not an object");
    }

    bool loading() const { return in_ != nullptr; }

    /** The object a saving walk built. */
    json::Value take() { return std::move(out_); }

    /** Member @p key is present (always true when saving). */
    bool has(const std::string &key) const
    {
        return !in_ || in_->find(key);
    }

    /** An integer, enum or double member. */
    template <typename T>
    void
    operator()(const std::string &key, T &v)
    {
        if (in_)
            detail::decode(need(key), key, v);
        else
            out_.set(key, detail::encode(v));
    }

    /** An integer or enum member that must also lie in [lo, hi]. */
    template <typename T>
    void
    operator()(const std::string &key, T &v,
               std::type_identity_t<T> lo, std::type_identity_t<T> hi)
    {
        (*this)(key, v);
        if (in_)
            detail::checkRange(key, v, lo, hi);
    }

    void
    operator()(const std::string &key, bool &v)
    {
        if (!in_) {
            out_.set(key, json::Value(v));
            return;
        }
        const json::Value &j = need(key);
        if (!j.isBool())
            fail(key, "snapshot field '" + key + "' is not a boolean");
        v = j.asBool();
    }

    void
    operator()(const std::string &key, std::string &v)
    {
        if (!in_) {
            out_.set(key, json::Value(v));
            return;
        }
        const json::Value &j = need(key);
        if (!j.isString())
            fail(key, "snapshot field '" + key + "' is not a string");
        v = j.asString();
    }

    /** Any JSON value, carried verbatim. */
    void
    operator()(const std::string &key, json::Value &v)
    {
        if (in_)
            v = need(key);
        else
            out_.set(key, v);
    }

    /**
     * A fixed-length integer array: its length is the configured
     * geometry, so a mismatch means another machine's snapshot.
     * Elements must lie in [lo, hi].
     */
    template <typename T>
    void
    ints(const std::string &key, std::vector<T> &v,
         std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
         std::type_identity_t<T> hi = std::numeric_limits<T>::max())
    {
        if (!in_) {
            json::Value arr = json::Value::array();
            for (const T x : v)
                arr.push(detail::image(x));
            out_.set(key, std::move(arr));
            return;
        }
        const json::Value &arr = array(key, v.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
            detail::fromImage(arr.at(i), key, v[i]);
            detail::checkRange(key, v[i], lo, hi);
        }
    }

    /** A variable-length integer array, resized on load. */
    template <typename T>
    void
    list(const std::string &key, std::vector<T> &v,
         std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
         std::type_identity_t<T> hi = std::numeric_limits<T>::max())
    {
        if (in_)
            v.resize(array(key).size());
        ints(key, v, lo, hi);
    }

    /** Member @p field of every record in @p recs, as an array. */
    template <typename R, typename F>
    void
    column(const std::string &key, std::vector<R> &recs, F R::*field)
    {
        if (!in_) {
            json::Value arr = json::Value::array();
            for (const R &r : recs)
                arr.push(detail::image(r.*field));
            out_.set(key, std::move(arr));
            return;
        }
        const json::Value &arr = array(key, recs.size());
        for (std::size_t i = 0; i < recs.size(); ++i)
            detail::fromImage(arr.at(i), key, recs[i].*field);
    }

    /** Saturating counters: values within each configured width. */
    void
    counters(const std::string &key, std::vector<SatCounter> &table)
    {
        if (!in_) {
            json::Value arr = json::Value::array();
            for (const SatCounter &c : table)
                arr.push(detail::image(c.value()));
            out_.set(key, std::move(arr));
            return;
        }
        const json::Value &arr = array(key, table.size());
        for (std::size_t i = 0; i < table.size(); ++i) {
            std::uint64_t v = 0;
            detail::fromImage(arr.at(i), key, v);
            if (v > table[i].maxVal()) {
                fail(key, "counter value " + std::to_string(v) +
                              " exceeds the configured width");
            }
            table[i].set(static_cast<std::uint8_t>(v));
        }
    }

    /** Nested object @p key, described by @p walk(Archive &). */
    template <typename F>
    void
    section(const std::string &key, F &&walk)
    {
        if (in_) {
            Archive sub(need(key), key);
            walk(sub);
            return;
        }
        Archive sub;
        walk(sub);
        out_.set(key, sub.take());
    }

    /** Nested object @p key, described by @p c.walkState(). */
    template <typename C>
    void
    component(const std::string &key, C &c)
    {
        section(key, [&c](Archive &sub) { c.walkState(sub); });
    }

    /**
     * A component only some machines have: saved when @p c exists,
     * restored only when both this machine and the snapshot have it.
     */
    template <typename C>
    void
    optional(const std::string &key, C *c)
    {
        if (c && has(key))
            component(key, *c);
    }

    /** An array of @p n nested objects, walk(i, Archive &). */
    template <typename F>
    void
    sections(const std::string &key, std::size_t n, F &&walk)
    {
        if (in_) {
            const json::Value &arr = array(key, n);
            for (std::size_t i = 0; i < n; ++i) {
                Archive sub(arr.at(i), key);
                walk(i, sub);
            }
            return;
        }
        json::Value arr = json::Value::array();
        for (std::size_t i = 0; i < n; ++i) {
            Archive sub;
            walk(i, sub);
            arr.push(sub.take());
        }
        out_.set(key, std::move(arr));
    }

    /** An array of @p n rows, walk(i, Row &). */
    template <typename F>
    void
    rows(const std::string &key, std::size_t n, F &&walk)
    {
        if (in_) {
            const json::Value &arr = array(key, n);
            for (std::size_t i = 0; i < n; ++i) {
                if (!arr.at(i).isArray())
                    fail(key, "a '" + key + "' row is not an array");
                Row r(key, arr.at(i));
                walk(i, r);
                r.finish();
            }
            return;
        }
        json::Value arr = json::Value::array();
        for (std::size_t i = 0; i < n; ++i) {
            Row r(key);
            walk(i, r);
            arr.push(std::move(r.out_));
        }
        out_.set(key, std::move(arr));
    }

    /** Rows of a variable-length vector, resized on load. */
    template <typename T, typename F>
    void
    rows(const std::string &key, std::vector<T> &v, F &&walk)
    {
        if (in_)
            v.resize(array(key).size());
        rows(key, v.size(), walk);
    }

  private:
    const json::Value &
    need(const std::string &key) const
    {
        const json::Value *v = in_->find(key);
        if (!v)
            fail(key, "missing snapshot field '" + key + "'");
        return *v;
    }

    const json::Value &
    array(const std::string &key) const
    {
        const json::Value &arr = need(key);
        if (!arr.isArray())
            fail(key, "snapshot field '" + key + "' is not an array");
        return arr;
    }

    /** Array member @p key, which must hold exactly @p n elements. */
    const json::Value &
    array(const std::string &key, std::size_t n) const
    {
        const json::Value &arr = array(key);
        if (arr.size() != n) {
            fail(key, "snapshot array '" + key + "' has " +
                          std::to_string(arr.size()) +
                          " elements; the machine needs " +
                          std::to_string(n));
        }
        return arr;
    }

    const json::Value *in_ = nullptr;
    json::Value out_;
};

/**
 * Save @p c through its walk. A saving walk only reads, so one
 * non-const walkState() serves both directions.
 */
template <typename C>
json::Value
save(const C &c)
{
    Archive a;
    const_cast<C &>(c).walkState(a);
    return a.take();
}

/** Restore @p c from @p state through its walk. */
template <typename C>
void
load(C &c, const json::Value &state)
{
    Archive a(state);
    c.walkState(a);
}

} // namespace lrs::stateio

#endif // LRS_COMMON_STATE_IO_HH
