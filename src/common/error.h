// Error handling for regla: checked preconditions that throw, so library
// misuse is reported to the caller instead of aborting the host process.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace regla {

/// Thrown when a checked precondition or internal invariant fails.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void raise(const char* cond, const char* file, int line,
                               const std::string& msg) {
  std::ostringstream os;
  os << file << ":" << line << ": check failed: " << cond;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

/// The failing branch of REGLA_CHECK_MSG, out of line: a check inside a
/// device kernel's inner loop then costs its comparison and a cold call, and
/// the message formatting does not count against inlining the accessor.
template <typename Msg>
[[noreturn, gnu::cold, gnu::noinline]] void raise_msg(const char* cond,
                                                      const char* file,
                                                      int line,
                                                      const Msg& msg) {
  std::ostringstream os;
  msg(os);
  raise(cond, file, line, os.str());
}
}  // namespace detail

}  // namespace regla

/// Precondition check: always on (these guard the public API, not hot loops).
#define REGLA_CHECK(cond)                                         \
  do {                                                            \
    if (!(cond)) ::regla::detail::raise(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define REGLA_CHECK_MSG(cond, msg)                                        \
  do {                                                                    \
    if (!(cond))                                                          \
      ::regla::detail::raise_msg(#cond, __FILE__, __LINE__,               \
                                 [&](std::ostream& regla_os_) {           \
                                   regla_os_ << msg;                      \
                                 });                                      \
  } while (0)
