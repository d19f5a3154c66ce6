#include "common/logging.hh"

#include <cstdio>

namespace uscope
{

namespace
{

void
emit(const char *prefix, std::FILE *stream, const std::string &msg)
{
    std::fprintf(stream, "%s: %s\n", prefix, msg.c_str());
}

} // anonymous namespace

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    const int len = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out(len > 0 ? static_cast<std::size_t>(len) : 0, '\0');
    if (len > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
format(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string out = vformat(fmt, ap);
    va_end(ap);
    return out;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit("panic", stderr, msg);
    throw SimPanic(msg);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit("fatal", stderr, msg);
    throw SimFatal(msg);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit("warn", stderr, msg);
}

void
inform(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit("info", stdout, msg);
}

} // namespace uscope
