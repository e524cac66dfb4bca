// The one JSON writer. heus-lint's gate documents and the E-series bench
// reports are built as a Json value, written through write_json, and
// selected on the command line by json_flag. Object keys keep insertion
// order, so identical inputs give byte-identical documents: the lint
// goldens and the perf ratchet depend on that.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace heus::common {

class Json {
 public:
  /// `null`.
  Json() = default;
  Json(bool b) : text_(b ? "true" : "false") {}
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json(T n) : text_(std::to_string(n)) {}
  /// Written with %.9g.
  Json(double d);
  Json(std::string s) : kind_(Kind::string), text_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}
  /// An array holding each of `items`, converted as above.
  template <class T>
  Json(const std::vector<T>& items) : kind_(Kind::array) {
    items_.reserve(items.size());
    for (const T& item : items) items_.emplace_back(item);
  }

  [[nodiscard]] static Json object();
  [[nodiscard]] static Json array();

  /// Append `value` under `key` (objects; keys keep insertion order).
  Json& set(std::string key, Json value);
  /// Append `value` (arrays).
  Json& push(Json value);
  /// Write this container, and everything inside it, on one line.
  Json& compact();

  /// The document: two-space indented, one member per line except inside
  /// compact containers, newline-terminated.
  [[nodiscard]] std::string dump() const;

 private:
  enum class Kind : std::uint8_t { literal, string, array, object };

  void dump(std::string& out, int indent, bool compact) const;

  Kind kind_ = Kind::literal;
  bool compact_ = false;
  std::string text_ = "null";      ///< literal text or string contents
  std::vector<std::string> keys_;  ///< objects only, parallel to items_
  std::vector<Json> items_;        ///< array elements or object values
};

/// The `--json[=PATH]` flag: the destination `arg` names (`bare` for a
/// bare `--json`), or nullopt when `arg` is another argument. heus-lint
/// passes "" (stdout) as `bare`; a bench passes its BENCH_E*.json.
[[nodiscard]] std::optional<std::string> json_flag(std::string_view arg,
                                                   std::string_view bare);
/// The destination of the first `--json[=PATH]` in argv[1..argc).
[[nodiscard]] std::optional<std::string> json_flag(int argc, char** argv,
                                                   std::string_view bare);

/// Write `doc` to the file `path`, or to stdout when `path` is empty. The
/// data is flushed (and the file closed) before the answer, so a full
/// disk is a failure: false on any I/O error.
[[nodiscard]] bool write_json(const Json& doc, const std::string& path);

}  // namespace heus::common
