/**
 * @file
 * Dependency-free JSON support for the observability layer.
 *
 * The writer half is a small value tree (`json::Value`) with a
 * serializer tuned for stats output: object key order is preserved
 * (insertion order), doubles are emitted with enough precision to
 * round-trip, and NaN/Inf — which plain JSON cannot represent — are
 * emitted as `null`, matching the NaN-safe conventions documented in
 * results.hh.
 *
 * Numbers built from 64-bit integers keep their exact integer
 * representation rather than being squeezed through a double: counter
 * and histogram sums above 2^53 would otherwise silently lose bits on
 * export and re-parse. The serialized text is unchanged for every
 * value a double can represent exactly (the integral fast path prints
 * the same digits), so existing exports stay byte-identical.
 *
 * The reader half is a minimal recursive-descent parser covering the
 * subset the writer emits (all of RFC 8259 minus \u surrogate pairs,
 * which the stats layer never produces). It exists so tests can
 * round-trip result and counter exports instead of string-matching them.
 */

#ifndef LRS_COMMON_JSON_HH
#define LRS_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lrs::json
{

class Value;

/** Thrown by the reader on malformed input. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(const std::string &what, std::size_t offset)
        : std::runtime_error(what + " at offset " +
                             std::to_string(offset)),
          offset_(offset)
    {}

    std::size_t offset() const { return offset_; }

  private:
    std::size_t offset_;
};

/**
 * One JSON value. Objects preserve insertion order so exported stats
 * keep the order they were set in (stable diffs between runs).
 */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Value() : kind_(Kind::Null) {}
    Value(std::nullptr_t) : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Number), num_(d) {}
    Value(int i)
        : kind_(Kind::Number), rep_(NumRep::I64), num_(i), i64_(i)
    {}
    Value(std::uint64_t u)
        : kind_(Kind::Number), rep_(NumRep::U64),
          num_(static_cast<double>(u)), u64_(u)
    {}
    Value(std::int64_t i)
        : kind_(Kind::Number), rep_(NumRep::I64),
          num_(static_cast<double>(i)), i64_(i)
    {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { expect(Kind::Bool); return bool_; }
    double asDouble() const { expect(Kind::Number); return num_; }
    std::uint64_t
    asU64() const
    {
        expect(Kind::Number);
        switch (rep_) {
          case NumRep::U64: return u64_;
          case NumRep::I64: return static_cast<std::uint64_t>(i64_);
          case NumRep::Dbl: break;
        }
        return static_cast<std::uint64_t>(num_);
    }
    std::int64_t
    asI64() const
    {
        expect(Kind::Number);
        switch (rep_) {
          case NumRep::U64: return static_cast<std::int64_t>(u64_);
          case NumRep::I64: return i64_;
          case NumRep::Dbl: break;
        }
        return static_cast<std::int64_t>(num_);
    }
    const std::string &asString() const
    {
        expect(Kind::String);
        return str_;
    }

    // --- array interface ---
    void push(Value v);
    std::size_t size() const;
    const Value &at(std::size_t i) const;

    // --- object interface ---
    /** Set @p key (replacing an existing binding in place). */
    void set(const std::string &key, Value v);
    /** Member lookup; throws std::out_of_range when absent. */
    const Value &at(const std::string &key) const;
    /** Member lookup; nullptr when absent. */
    const Value *find(const std::string &key) const;
    bool has(const std::string &key) const { return find(key); }
    const std::vector<std::pair<std::string, Value>> &
    members() const
    {
        expect(Kind::Object);
        return members_;
    }

    /** Serialize; @p indent > 0 pretty-prints with that step. */
    std::string dump(int indent = 0) const;

    /** Parse @p text (the complete document). Throws ParseError. */
    static Value parse(const std::string &text);

  private:
    /** How a Number is stored; exact integers bypass the double. */
    enum class NumRep
    {
        Dbl,
        U64,
        I64,
    };

    void expect(Kind k) const;
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    NumRep rep_ = NumRep::Dbl;
    bool bool_ = false;
    double num_ = 0.0;
    std::uint64_t u64_ = 0;
    std::int64_t i64_ = 0;
    std::string str_;
    std::vector<Value> elems_;
    std::vector<std::pair<std::string, Value>> members_;
};

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string escape(const std::string &s);

} // namespace lrs::json

#endif // LRS_COMMON_JSON_HH
