#include "common/json.hh"

#include <cmath>

#include "common/logging.hh"

namespace uscope::json
{

Value &
Value::set(std::string key, Value v)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        panic("json::Value::set on a non-object");
    for (auto &entry : object_) {
        if (entry.first == key) {
            entry.second = std::move(v);
            return *this;
        }
    }
    object_.emplace_back(std::move(key), std::move(v));
    return *this;
}

Value
Value::raw(std::string serialized)
{
    Value v(Type::Raw);
    v.string_ = std::move(serialized);
    return v;
}

Value &
Value::push(Value v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ != Type::Array)
        panic("json::Value::push on a non-array");
    array_.push_back(std::move(v));
    return *this;
}

const Value *
Value::get(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &entry : object_)
        if (entry.first == key)
            return &entry.second;
    return nullptr;
}

std::uint64_t
Value::asU64(std::uint64_t fallback) const
{
    switch (type_) {
      case Type::Uint: return uint_;
      case Type::Int:
        return int_ < 0 ? 0 : static_cast<std::uint64_t>(int_);
      case Type::Double:
        return double_ < 0.0 ? 0
                             : static_cast<std::uint64_t>(double_);
      default: return fallback;
    }
}

double
Value::asDouble(double fallback) const
{
    switch (type_) {
      case Type::Double: return double_;
      case Type::Int: return static_cast<double>(int_);
      case Type::Uint: return static_cast<double>(uint_);
      default: return fallback;
    }
}

const std::string &
Value::asString() const
{
    static const std::string empty;
    return type_ == Type::String ? string_ : empty;
}

const std::vector<Value> &
Value::items() const
{
    static const std::vector<Value> empty;
    return type_ == Type::Array ? array_ : empty;
}

const std::vector<std::pair<std::string, Value>> &
Value::entries() const
{
    static const std::vector<std::pair<std::string, Value>> empty;
    return type_ == Type::Object ? object_ : empty;
}

std::size_t
Value::size() const
{
    switch (type_) {
      case Type::Array: return array_.size();
      case Type::Object: return object_.size();
      default: return 0;
    }
}

std::string
Value::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

namespace
{

void
newline(std::string &out, int indent, int depth)
{
    if (indent < 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

} // namespace

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int:
        out += format("%lld", static_cast<long long>(int_));
        break;
      case Type::Uint:
        out += format("%llu", static_cast<unsigned long long>(uint_));
        break;
      case Type::Double:
        // JSON has no NaN/Inf; %.17g round-trips every finite double.
        if (!std::isfinite(double_))
            out += "null";
        else
            out += format("%.17g", double_);
        break;
      case Type::String:
        out += '"';
        out += escape(string_);
        out += '"';
        break;
      case Type::Raw:
        out += string_;
        break;
      case Type::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out += indent < 0 ? "," : ",";
            newline(out, indent, depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        newline(out, indent, depth);
        out += ']';
        break;
      case Type::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i)
                out += ",";
            newline(out, indent, depth + 1);
            out += '"';
            out += escape(object_[i].first);
            out += indent < 0 ? "\":" : "\": ";
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(out, indent, depth);
        out += '}';
        break;
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

std::size_t
Value::nonFiniteCount() const
{
    switch (type_) {
      case Type::Double:
        return std::isfinite(double_) ? 0 : 1;
      case Type::Array: {
        std::size_t n = 0;
        for (const Value &v : array_)
            n += v.nonFiniteCount();
        return n;
      }
      case Type::Object: {
        std::size_t n = 0;
        for (const auto &entry : object_)
            n += entry.second.nonFiniteCount();
        return n;
      }
      default:
        return 0;
    }
}

} // namespace uscope::json
