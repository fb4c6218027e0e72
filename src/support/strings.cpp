#include "support/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace cftcg {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> SplitString(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view TrimString(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string JoinStrings(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += sep;
    out += items[i];
  }
  return out;
}

bool ParseInt64(std::string_view text, long long& out) {
  text = TrimString(text);
  if (text.empty()) return false;
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 0);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  out = v;
  return true;
}

bool ParseDouble(std::string_view text, double& out) {
  text = TrimString(text);
  if (text.empty()) return false;
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  // strtod sets ERANGE on underflow as well as overflow. An underflowed
  // result (subnormal, or zero) is still the correctly rounded value — and
  // DoubleToString writes subnormals — so only overflow is an error.
  if (errno == ERANGE && !(std::isfinite(v) && std::fabs(v) <= DBL_MIN)) return false;
  if (errno != 0 && errno != ERANGE) return false;
  out = v;
  return true;
}

std::string XmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string DoubleToString(double value) {
  // %.17g guarantees round-trip for IEEE double; shorten when %.15g already
  // round-trips so files stay readable.
  std::string s = StrFormat("%.15g", value);
  double back = 0;
  if (ParseDouble(s, back) && back == value) return s;
  return StrFormat("%.17g", value);
}

}  // namespace cftcg
