// One table-driven parser for every `key=value` SimConfig override, every
// `mode,key:value,...` opt-in spec (fault= flow= police= rogue= qd= trace=
// snap=) and every bench, example and test main's own command-line keys.
// A grammar is a static table of Keys (name, destination member, inclusive
// range); the parser owns tokenizing, numeric parsing, range and duplicate
// checks, the "<grammar> spec: ...; valid keys: ..." messages and print().
// Bad values throw std::invalid_argument; parse_command_line() turns them
// into "error: ..." and exit 1 (DESIGN.md §17).
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mmr::spec {

enum class Kind : std::uint8_t {
  kUnsigned, kDouble, kBool, kString, kWord, kSetter, kList
};

inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();
inline constexpr double kMaxDouble = std::numeric_limits<double>::max();

using Words = std::span<const char* const>;

/// One row of a grammar.  A kWord row named "" is the bare mode word
/// (`police=drop`, `qd=cicq`).
struct Key {
  const char* name = "";
  /// Inclusive ranges: kUnsigned (capped at the field's width), kDouble;
  /// a kList row's range holds for each element.
  std::uint64_t lo = 0, hi = std::numeric_limits<std::uint64_t>::max();
  double dlo = -kMaxDouble, dhi = kMaxDouble;  ///< dlo = kPositive: "> 0"
  /// kWord: the enum's words, in enum order (0..n-1).  Text fields and
  /// lists: the accepted values, if not empty.
  Words words{};
  Kind kind = Kind::kSetter;
  /// kSetter rows and lists: one value per token, appended (`down:` `down:`,
  /// `arbiter=a arbiter=b`); a list row without it takes `a,b,c`.
  bool repeat = false;
  /// Stores `value` into the field; throws std::invalid_argument.
  void (*set)(const Key& key, void* spec, std::string_view value) = nullptr;
  /// The field's value(s), one per token print() emits.
  std::vector<std::string> (*get)(const Key& key, const void* spec) = nullptr;
};

struct Grammar {
  const char* name;       ///< message prefix: "<name> spec: ..."
  char separator;         ///< key/value: ':' in specs, '=' in overrides
  std::vector<Key> keys;  ///< the mode row, if any, comes first
  bool mode_required = false;
  int keyed_mode = -1;  ///< >= 0: keys apply only under this mode word
};

/// Value parsers; throw std::invalid_argument naming the accepted range.
std::uint64_t parse_unsigned(std::string_view text, std::uint64_t lo,
                             std::uint64_t hi);
double parse_double(std::string_view text, double lo, double hi);
std::size_t word_index(Words words, std::string_view text);
/// A field's value as text that parses back exactly (words for kWord).
std::vector<std::string> show(const Key& key, std::uint64_t value);
std::vector<std::string> show(const Key& key, double value);

/// Separated spec (or command) text -> tokens, empty tokens skipped.
std::vector<std::string_view> split(std::string_view text,
                                    char separator = ',');
/// A list row's value -> its elements; throws on an empty element.
std::vector<std::string_view> list_elements(std::string_view text);
/// Applies `key<separator>value` tokens and bare mode words to `spec`.
void apply(const Grammar& grammar, void* spec,
           const std::vector<std::string_view>& tokens);
/// Throws unless every field of `spec` holds a value its key accepts.
void check(const Grammar& grammar, const void* spec, void* scratch);
/// The mode word, then a token for every field that differs from `defaults`.
std::vector<std::string> print_tokens(const Grammar& grammar, const void* spec,
                                      const void* defaults);
[[noreturn]] void fail(const Grammar& grammar, const std::string& what);

/// Prints "error: <what>" to stderr and exits 1.
[[noreturn]] void exit_rejected(const std::exception& error);

/// `f()` for a main: when it rejects its input (throws), exit_rejected().
template <class F>
auto or_exit(F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const std::exception& error) {
    exit_rejected(error);
  }
}

/// A main's command line: applies argv[1..] to `options` through `grammar`
/// (separator '=').  A bare word naming a 0|1 row sets it (`twins`, `full`).
/// A token whose key `grammar` lacks goes to `*overrides` when the main
/// takes SimConfig overrides (non-null) and SimConfig::grammar() has it;
/// else it is an unknown key, and the message lists every key the main
/// takes.  Bad input prints "error: <message>" and exits 1.
void parse_command_line(const Grammar& grammar, void* options, int argc,
                        const char* const* argv,
                        std::vector<std::string>* overrides = nullptr);

/// Parses `text`, then runs the spec's cross-field validate() if it has one.
template <class S>
S parse(const Grammar& grammar, std::string_view text) {
  S spec{};
  apply(grammar, &spec, split(text));
  if constexpr (requires { spec.validate(); }) spec.validate();
  return spec;
}

/// Base of every spec struct S: `S::parse(text)` parses S::grammar()
/// (README "Spec reference").  Throws std::invalid_argument whose message
/// starts "<grammar> spec:"; the example and bench mains add "error: ".
template <class S>
struct Parsed {
  [[nodiscard]] static S parse(const std::string& text) {
    return spec::parse<S>(S::grammar(), text);
  }
  bool operator==(const Parsed&) const = default;
};

template <class S>
void check(const Grammar& grammar, const S& spec) {
  S scratch = spec;
  check(grammar, &spec, &scratch);
}

/// `values` joined by `separator`.
std::string join(const std::vector<std::string>& values, char separator);

template <class S>
std::string print(const Grammar& grammar, const S& spec) {
  const S defaults{};
  return join(print_tokens(grammar, &spec, &defaults), ',');
}

template <class S, class T>
S spec_of(T S::*);  ///< decltype helper: the class a member pointer names

/// `spec.*M.*Path...`: a member, or a member of a nested struct.
template <auto M, auto... Path>
auto& member(auto& spec) {
  if constexpr (sizeof...(Path) == 0) return spec.*M;
  else return member<Path...>(spec.*M);
}

template <class T>
T element_of(const T&);  ///< decltype helper: a scalar field's type
template <class E>
E element_of(const std::vector<E>&);  ///< a list field's element type

/// One value of a field of type T (one element of a list field).
template <class T>
T parse_as(const Key& key, std::string_view text) {
  if constexpr (std::is_same_v<T, std::string>) {
    if (!key.words.empty()) (void)word_index(key.words, text);
    return std::string(text);
  } else if constexpr (std::is_same_v<T, double>) {
    return parse_double(text, key.dlo, key.dhi);
  } else if constexpr (std::is_enum_v<T>) {
    return T(word_index(key.words, text));
  } else {
    return static_cast<T>(parse_unsigned(text, key.lo, key.hi));
  }
}

template <class T>
std::string show_as(const Key& key, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) return value;
  else if constexpr (std::is_same_v<T, double>) return show(key, value)[0];
  else return show(key, static_cast<std::uint64_t>(value))[0];
}

/// Completes `key` for the field at `M, Path...`; the field's type gives
/// the kind, and a std::vector field is a list of its element's kind.
template <auto M, auto... Path>
Key bind(Key key) {
  using S = decltype(spec_of(M));
  using T =
      std::remove_cvref_t<decltype(member<M, Path...>(std::declval<S&>()))>;
  using E = decltype(element_of(std::declval<T&>()));
  constexpr bool kList = !std::is_same_v<E, T>;
  key.kind = kList ? Kind::kList
             : std::is_same_v<T, std::string> ? Kind::kString
             : std::is_same_v<T, double> ? Kind::kDouble
             : std::is_enum_v<T> ? Kind::kWord
             : std::is_same_v<T, bool> ? Kind::kBool : Kind::kUnsigned;
  if constexpr (std::is_integral_v<E>)
    key.hi = std::min<std::uint64_t>(key.hi, std::numeric_limits<E>::max());
  key.set = [](const Key& k, void* spec, std::string_view value) {
    T& out = member<M, Path...>(*static_cast<S*>(spec));
    if constexpr (!kList) {
      out = parse_as<T>(k, value);
    } else if (k.repeat) {
      out.push_back(parse_as<E>(k, value));
    } else {
      T list;
      for (const std::string_view element : list_elements(value))
        list.push_back(parse_as<E>(k, element));
      out = std::move(list);
    }
  };
  key.get = [](const Key& k, const void* spec) -> std::vector<std::string> {
    const T& in = member<M, Path...>(*static_cast<const S*>(spec));
    if constexpr (!kList) {
      return {show_as(k, in)};
    } else {
      std::vector<std::string> values;
      for (const E& element : in) values.push_back(show_as(k, element));
      return k.repeat ? values : std::vector<std::string>{join(values, ',')};
    }
  };
  return key;
}

}  // namespace mmr::spec
