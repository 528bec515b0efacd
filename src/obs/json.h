// Minimal JSON string escaping, shared by every trace/metrics writer in the
// tree (the obs chrome-trace exporter, obs::dump). Kernel and span names are
// caller-supplied strings; emitting them unescaped produces invalid JSON the
// moment one contains a quote or backslash.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

namespace regla::obs {

/// Write `s` escaped for inclusion inside a JSON string literal (the
/// surrounding quotes are NOT added): `"` and `\` are backslash-escaped,
/// control characters become \n / \t / \r / \b / \f or \u00XX.
void json_escape_to(std::ostream& os, std::string_view s);

/// Same, returning the escaped string.
std::string json_escape(std::string_view s);

}  // namespace regla::obs
