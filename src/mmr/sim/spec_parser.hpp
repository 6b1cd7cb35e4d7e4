// One table-driven parser for every `key=value` SimConfig override and every
// `mode,key:value,...` opt-in spec (fault= flow= police= rogue= qd= trace=
// snap=).  A grammar is a static table of Keys (name, destination member,
// inclusive range); the parser owns tokenizing, numeric parsing, range and
// duplicate checks, the "<grammar> spec: ...; valid keys: ..." messages and
// print().  Bad values throw std::invalid_argument (DESIGN.md §17).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mmr::spec {

enum class Kind : std::uint8_t { kUnsigned, kDouble, kBool, kString, kWord, kSetter };

inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();
inline constexpr double kMaxDouble = std::numeric_limits<double>::max();

using Words = std::span<const char* const>;

/// One row of a grammar.  A kWord row named "" is the bare mode word
/// (`police=drop`, `qd=cicq`).
struct Key {
  const char* name = "";
  /// Inclusive ranges: kUnsigned (capped at the field's width), kDouble.
  std::uint64_t lo = 0, hi = std::numeric_limits<std::uint64_t>::max();
  double dlo = -kMaxDouble, dhi = kMaxDouble;  ///< dlo = kPositive: "> 0"
  Words words{};  ///< kWord: the enum's words, in enum order (0..n-1)
  Kind kind = Kind::kSetter;
  bool repeat = false;  ///< kSetter rows only
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

/// Comma-separated spec -> tokens, empty tokens skipped.
std::vector<std::string_view> split(std::string_view text);
/// Applies `key<separator>value` tokens and bare mode words to `spec`.
void apply(const Grammar& grammar, void* spec,
           const std::vector<std::string_view>& tokens);
/// Throws unless every field of `spec` holds a value its key accepts.
void check(const Grammar& grammar, const void* spec, void* scratch);
/// The mode word, then a token for every field that differs from `defaults`.
std::vector<std::string> print_tokens(const Grammar& grammar, const void* spec,
                                      const void* defaults);
[[noreturn]] void fail(const Grammar& grammar, const std::string& what);

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

template <class S>
std::string print(const Grammar& grammar, const S& spec) {
  const S defaults{};
  std::string out;
  for (const std::string& token : print_tokens(grammar, &spec, &defaults))
    out += (out.empty() ? "" : ",") + token;
  return out;
}

template <class S, class T>
S spec_of(T S::*);  ///< decltype helper: the class a member pointer names

/// `spec.*M.*Path...`: a member, or a member of a nested struct.
template <auto M, auto... Path>
auto& member(auto& spec) {
  if constexpr (sizeof...(Path) == 0) return spec.*M;
  else return member<Path...>(spec.*M);
}

/// Completes `key` for the field at `M, Path...`; the field's type gives
/// the kind.
template <auto M, auto... Path>
Key bind(Key key) {
  using S = decltype(spec_of(M));
  using T =
      std::remove_cvref_t<decltype(member<M, Path...>(std::declval<S&>()))>;
  constexpr bool kText = std::is_same_v<T, std::string>;
  constexpr bool kReal = std::is_same_v<T, double>;
  key.kind = kText ? Kind::kString
             : kReal ? Kind::kDouble
             : std::is_enum_v<T> ? Kind::kWord
             : std::is_same_v<T, bool> ? Kind::kBool : Kind::kUnsigned;
  if constexpr (std::is_integral_v<T>)
    key.hi = std::min<std::uint64_t>(key.hi, std::numeric_limits<T>::max());
  key.set = [](const Key& k, void* spec, std::string_view value) {
    T& out = member<M, Path...>(*static_cast<S*>(spec));
    if constexpr (kText) out = value;
    else if constexpr (kReal) out = parse_double(value, k.dlo, k.dhi);
    else if constexpr (std::is_enum_v<T>) out = T(word_index(k.words, value));
    else out = static_cast<T>(parse_unsigned(value, k.lo, k.hi));
  };
  key.get = [](const Key& k, const void* spec) -> std::vector<std::string> {
    const T& in = member<M, Path...>(*static_cast<const S*>(spec));
    if constexpr (kText) return {in};
    else if constexpr (kReal) return show(k, in);
    else return show(k, static_cast<std::uint64_t>(in));
  };
  return key;
}

}  // namespace mmr::spec
