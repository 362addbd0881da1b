#ifndef SAQL_CORE_STRING_UTIL_H_
#define SAQL_CORE_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace saql {

/// Copy of `s` folded by `AsciiLower` (core/ascii_fold.h): 'A'..'Z' only.
std::string ToLower(std::string_view s);

/// Removes leading and trailing whitespace.
std::string Trim(const std::string& s);

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);

}  // namespace saql

#endif  // SAQL_CORE_STRING_UTIL_H_
