#pragma once

#include <cctype>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

// Strict parser for the JSON arrays sim::chrome_trace_json emits (the
// simulator, runtime and post-mortem exporters): flat objects with
// string/number values, plus at most one level of nesting for counter
// events' "args" object (flattened into "args.<key>" entries). Throws
// std::runtime_error with a byte position on malformed input, so tests can
// prove exported traces are well-formed.
namespace helix::obs {

/// A parsed trace event: raw field -> value token (strings unquoted).
using ParsedEvent = std::map<std::string, std::string>;

namespace detail {

struct Cursor {
  const std::string& s;
  std::size_t i = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("chrome trace parse error at byte " +
                             std::to_string(i) + ": " + what);
  }
  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  char peek() {
    skip_ws();
    if (i >= s.size()) fail("unexpected end of input");
    return s[i];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" + s[i] + "'");
    ++i;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') fail("escape sequences are not used by the exporters");
      out.push_back(s[i++]);
    }
    if (i >= s.size()) fail("unterminated string");
    ++i;  // closing quote
    return out;
  }
  std::string parse_number() {
    const std::size_t start = i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
            s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E')) {
      ++i;
    }
    if (i == start) fail("expected a number");
    // Validate it round-trips as a double.
    try {
      std::size_t used = 0;
      (void)std::stod(s.substr(start, i - start), &used);
      if (used != i - start) fail("malformed number");
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return s.substr(start, i - start);
  }
};

}  // namespace detail

inline std::vector<ParsedEvent> parse_chrome_trace(const std::string& json) {
  detail::Cursor c{json};
  std::vector<ParsedEvent> events;
  c.expect('[');
  if (c.peek() == ']') {
    ++c.i;
    return events;
  }
  while (true) {
    c.expect('{');
    ParsedEvent ev;
    if (c.peek() != '}') {
      while (true) {
        const std::string key = c.parse_string();
        c.expect(':');
        const char v = c.peek();
        if (v == '{') {
          // One level of nesting: counter events' "args" object. Flatten its
          // entries to "<key>.<subkey>".
          c.expect('{');
          if (c.peek() != '}') {
            while (true) {
              const std::string subkey = c.parse_string();
              c.expect(':');
              std::string value =
                  (c.peek() == '"') ? c.parse_string() : c.parse_number();
              if (!ev.emplace(key + "." + subkey, std::move(value)).second) {
                c.fail("duplicate key " + key + "." + subkey);
              }
              if (c.peek() != ',') break;
              ++c.i;
            }
          }
          c.expect('}');
        } else {
          std::string value = (v == '"') ? c.parse_string() : c.parse_number();
          if (!ev.emplace(key, std::move(value)).second) {
            c.fail("duplicate key " + key);
          }
        }
        if (c.peek() != ',') break;
        ++c.i;
      }
    }
    c.expect('}');
    events.push_back(std::move(ev));
    if (c.peek() != ',') break;
    ++c.i;
  }
  c.expect(']');
  c.skip_ws();
  if (c.i != json.size()) c.fail("trailing content after array");
  return events;
}

}  // namespace helix::obs
