#include "common/json.h"

#include <cstdio>

namespace heus::common {

namespace {

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

Json::Json(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", d);
  text_ = buf;
}

Json Json::object() {
  Json v;
  v.kind_ = Kind::object;
  return v;
}

Json Json::array() {
  Json v;
  v.kind_ = Kind::array;
  return v;
}

Json& Json::set(std::string key, Json value) {
  keys_.push_back(std::move(key));
  items_.push_back(std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  items_.push_back(std::move(value));
  return *this;
}

Json& Json::compact() {
  compact_ = true;
  return *this;
}

std::string Json::dump() const {
  std::string out;
  dump(out, 0, false);
  out += '\n';
  return out;
}

void Json::dump(std::string& out, int indent, bool compact) const {
  switch (kind_) {
    case Kind::literal:
      out += text_;
      return;
    case Kind::string:
      append_quoted(out, text_);
      return;
    case Kind::array:
    case Kind::object:
      break;
  }
  const bool object = kind_ == Kind::object;
  if (items_.empty()) {
    out += object ? "{}" : "[]";
    return;
  }
  compact = compact || compact_;
  const auto newline = [&](int level) {
    out += '\n';
    out.append(static_cast<std::size_t>(level) * 2, ' ');
  };
  out += object ? '{' : '[';
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += compact ? ", " : ",";
    if (!compact) newline(indent + 1);
    if (object) {
      append_quoted(out, keys_[i]);
      out += ": ";
    }
    items_[i].dump(out, indent + 1, compact);
  }
  if (!compact) newline(indent);
  out += object ? '}' : ']';
}

std::optional<std::string> json_flag(std::string_view arg,
                                     std::string_view bare) {
  constexpr std::string_view kFlag = "--json";
  if (arg.substr(0, kFlag.size()) != kFlag) return std::nullopt;
  arg.remove_prefix(kFlag.size());
  if (arg.empty()) return std::string(bare);
  if (arg.front() != '=') return std::nullopt;
  return std::string(arg.substr(1));
}

std::optional<std::string> json_flag(int argc, char** argv,
                                     std::string_view bare) {
  for (int i = 1; i < argc; ++i) {
    if (auto path = json_flag(argv[i], bare)) return path;
  }
  return std::nullopt;
}

bool write_json(const Json& doc, const std::string& path) {
  const std::string text = doc.dump();
  if (path.empty()) {
    return std::fwrite(text.data(), 1, text.size(), stdout) ==
               text.size() &&
           std::fflush(stdout) == 0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  // fclose flushes; a failed flush (ENOSPC) surfaces only here.
  return std::fclose(f) == 0 && written;
}

}  // namespace heus::common
