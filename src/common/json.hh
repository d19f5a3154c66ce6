/**
 * @file
 * A minimal, dependency-free JSON value and writer shared by result
 * export (src/exp) and observability export (src/obs).  Export is
 * write-only: nothing in the simulator parses JSON back in.  The read
 * accessors below let tests (and callers) inspect a document built in
 * memory, such as obs::mergeChromeTraces' merged campaign trace.
 *
 * Objects preserve insertion order so dumps are deterministic and
 * diffable; non-finite doubles serialize as null (JSON has no NaN).
 */

#ifndef USCOPE_COMMON_JSON_HH
#define USCOPE_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace uscope::json
{

/** One JSON value: null, bool, number, string, array, or object. */
class Value
{
  public:
    enum class Type { Null, Bool, Int, Uint, Double, String, Array,
                      Object, Raw };

    Value() = default;                       ///< null
    Value(bool b) : type_(Type::Bool), bool_(b) {}
    Value(int v) : type_(Type::Int), int_(v) {}
    Value(std::int64_t v) : type_(Type::Int), int_(v) {}
    Value(unsigned v) : type_(Type::Uint), uint_(v) {}
    Value(std::uint64_t v) : type_(Type::Uint), uint_(v) {}
    Value(double v) : type_(Type::Double), double_(v) {}
    Value(const char *s) : type_(Type::String), string_(s) {}
    Value(std::string s) : type_(Type::String), string_(std::move(s)) {}

    /** Empty object / array factories (a default Value is null). */
    static Value object() { return Value(Type::Object); }
    static Value array() { return Value(Type::Array); }

    /**
     * A pre-serialized JSON document, emitted verbatim by dump() —
     * indentation requests do not reformat it.  This is how campaign
     * checkpoints restore trial payloads without a JSON parser: the
     * original dump() text round-trips byte for byte.  The caller
     * vouches that @p serialized is valid JSON; nonFiniteCount()
     * reports 0 for raw blobs (non-finite doubles were already
     * serialized as null when the blob was first dumped).
     */
    static Value raw(std::string serialized);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }

    // -----------------------------------------------------------------
    // Read accessors.
    // All are total: a kind mismatch returns the fallback / an empty
    // container instead of throwing, so a reader reduces to
    // straight-line reads followed by validity checks.
    // -----------------------------------------------------------------

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *get(const std::string &key) const;

    /** Numeric coercions (Int/Uint/Double interconvert; a negative
     *  value reads as 0 through asU64). */
    std::uint64_t asU64(std::uint64_t fallback = 0) const;
    double asDouble(double fallback = 0.0) const;

    /** String payload; empty for non-strings. */
    const std::string &asString() const;

    /** Array elements (empty for non-arrays). */
    const std::vector<Value> &items() const;

    /** Object members in insertion order (empty for non-objects). */
    const std::vector<std::pair<std::string, Value>> &entries() const;

    /** Object insert (keeps insertion order); returns *this to chain. */
    Value &set(std::string key, Value v);

    /** Array append; returns *this to chain. */
    Value &push(Value v);

    std::size_t size() const;

    /**
     * Serialize.  @p indent < 0 produces a compact single line;
     * otherwise nested structures indent by @p indent spaces.
     */
    std::string dump(int indent = -1) const;

    /**
     * Number of non-finite doubles (NaN/Inf) anywhere in this value.
     * JSON has no token for them, so dump() writes null in their
     * place; callers that persist results should check this and
     * annotate the dump (see exp::JsonFileSink) so silent nulls don't
     * masquerade as missing data.
     */
    std::size_t nonFiniteCount() const;

    /** JSON-escape @p s (no surrounding quotes). */
    static std::string escape(const std::string &s);

  private:
    explicit Value(Type type) : type_(type) {}

    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::vector<std::pair<std::string, Value>> object_;
};

} // namespace uscope::json

#endif // USCOPE_COMMON_JSON_HH
