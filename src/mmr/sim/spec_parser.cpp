#include "mmr/sim/spec_parser.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "mmr/sim/config.hpp"

namespace mmr::spec {

namespace {

bool is_mode(const Key& k) { return k.kind == Kind::kWord && *k.name == '\0'; }

std::string listing(Words words) {
  return join(std::vector<std::string>(words.begin(), words.end()), '|');
}

/// "drop|shape|demote, burst, ..." — the listing every message ends with.
std::string valid_keys(const Grammar& grammar) {
  std::string out;
  for (const Key& key : grammar.keys) {
    if (!out.empty()) out += ", ";
    out += is_mode(key) ? listing(key.words) : key.name;
  }
  return out;
}

std::string token_of(const Grammar& g, const Key& key, std::string_view v) {
  return (is_mode(key) ? "" : key.name + std::string(1, g.separator)) +
         std::string(v);
}

/// Sets one key; a value error becomes the grammar's uniform message.
void set(const Grammar& grammar, const Key& key, void* spec,
         std::string_view value) {
  try {
    key.set(key, spec, value);
  } catch (const std::invalid_argument& error) {
    fail(grammar, "'" + token_of(grammar, key, value) + "' " + error.what());
  }
}

}  // namespace

std::uint64_t parse_unsigned(std::string_view text, std::uint64_t lo,
                             std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::invalid_argument || end != last)
    throw std::invalid_argument("is not an unsigned integer");
  if (ec != std::errc{} || value < lo || value > hi)
    throw std::invalid_argument("out of range [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  return value;
}

double parse_double(std::string_view text, double lo, double hi) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last || !std::isfinite(value))
    throw std::invalid_argument("is not a finite number");
  if (value < lo || value > hi)
    throw std::invalid_argument(
        "out of range " + (lo == kPositive ? "(0" : "[" + show({}, lo)[0]) +
        ", " + (hi == kMaxDouble ? "max" : show({}, hi)[0]) + "]");
  return value;
}

std::size_t word_index(Words words, std::string_view text) {
  for (std::size_t i = 0; i < words.size(); ++i)
    if (text == words[i]) return i;
  throw std::invalid_argument("is not one of " + listing(words));
}

std::vector<std::string> show(const Key& key, std::uint64_t value) {
  if (key.words.empty()) return {std::to_string(value)};
  return {value < key.words.size() ? key.words[value] : "?"};
}

std::vector<std::string> show(const Key&, double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return {std::string(buffer, end)};
}

std::vector<std::string_view> split(std::string_view text, char separator) {
  std::vector<std::string_view> tokens;
  while (!text.empty()) {
    const std::size_t comma = std::min(text.find(separator), text.size());
    if (comma > 0) tokens.push_back(text.substr(0, comma));
    text.remove_prefix(std::min(comma + 1, text.size()));
  }
  return tokens;
}

std::vector<std::string_view> list_elements(std::string_view text) {
  if (text.empty() || text.front() == ',' || text.back() == ',' ||
      text.find(",,") != std::string_view::npos)
    throw std::invalid_argument("has an empty list element");
  return split(text);
}

std::string join(const std::vector<std::string>& values, char separator) {
  std::string out;
  for (const std::string& value : values) {
    if (!out.empty()) out += separator;
    out += value;
  }
  return out;
}

void apply(const Grammar& grammar, void* spec,
           const std::vector<std::string_view>& tokens) {
  const std::vector<Key>& keys = grammar.keys;
  const bool has_mode = !keys.empty() && is_mode(keys.front());
  std::vector<bool> seen(keys.size());
  for (const std::string_view token : tokens) {
    const std::size_t separator = token.find(grammar.separator);
    const std::string name(token.substr(0, separator));
    std::size_t row = 0;
    if (separator != std::string_view::npos) {
      while (row < keys.size() &&
             (is_mode(keys[row]) || name != keys[row].name))
        ++row;
      if (row == keys.size()) fail(grammar, "unknown key '" + name + "'");
    } else if (!has_mode) {
      fail(grammar, "'" + name + "' is not key" + grammar.separator + "value");
    }
    const bool mode = is_mode(keys[row]);
    if (seen[row] && !keys[row].repeat)
      fail(grammar, mode ? "duplicate mode word"
                         : "duplicate key '" + name + "'");
    seen[row] = true;
    set(grammar, keys[row], spec, mode ? token : token.substr(separator + 1));
  }
  if (has_mode && grammar.mode_required && !seen[0])
    fail(grammar, "must name one of " + listing(keys.front().words));
  if (grammar.keyed_mode < 0) return;
  const std::string keyed(keys.front().words[std::size_t(grammar.keyed_mode)]);
  if (keys.front().get(keys.front(), spec).front() == keyed) return;
  for (std::size_t row = 1; row < keys.size(); ++row)
    if (seen[row])
      fail(grammar, "key '" + std::string(keys[row].name) +
                        "' only applies to " + keyed);
}

void check(const Grammar& grammar, const void* spec, void* scratch) {
  for (const Key& key : grammar.keys)
    for (const std::string& value : key.get(key, spec))
      set(grammar, key, scratch, value);
}

std::vector<std::string> print_tokens(const Grammar& grammar, const void* spec,
                                      const void* defaults) {
  std::vector<std::string> tokens;
  for (const Key& key : grammar.keys) {
    const std::vector<std::string> values = key.get(key, spec);
    if (!is_mode(key) && values == key.get(key, defaults)) continue;
    for (const std::string& value : values)
      tokens.push_back(token_of(grammar, key, value));
  }
  return tokens;
}

void fail(const Grammar& grammar, const std::string& what) {
  throw std::invalid_argument(std::string(grammar.name) + " spec: " + what +
                              "; valid keys: " + valid_keys(grammar));
}

void exit_rejected(const std::exception& error) {
  std::cerr << "error: " << error.what() << '\n';
  std::exit(1);
}

void parse_command_line(const Grammar& grammar, void* options, int argc,
                        const char* const* argv,
                        std::vector<std::string>* overrides) {
  const auto row_of = [](const Grammar& g, const std::string& name) {
    return std::find_if(g.keys.begin(), g.keys.end(), [&name](const Key& key) {
      return !is_mode(key) && name == key.name;
    });
  };
  const Grammar& config = SimConfig::grammar();
  std::vector<std::string> own;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    const std::string name = token.substr(0, token.find('='));
    const auto row = row_of(grammar, name);
    if (row == grammar.keys.end() && overrides != nullptr) {
      if (row_of(config, name) == config.keys.end()) {
        // Unknown to both grammars: list the main's rows and SimConfig's.
        Grammar both = grammar;
        for (const Key& key : config.keys)
          if (row_of(grammar, key.name) == grammar.keys.end())
            both.keys.push_back(key);
        or_exit([&] { fail(both, "unknown key '" + name + "'"); });
      }
      overrides->push_back(token);
    } else {  // a bare flag: `twins` is `twins=1`
      own.push_back(row != grammar.keys.end() && row->kind == Kind::kBool &&
                            token == name ? token + "=1" : token);
    }
  }
  or_exit([&] { apply(grammar, options, {own.begin(), own.end()}); });
}

}  // namespace mmr::spec
