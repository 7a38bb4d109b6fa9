#pragma once
/// \file json.hpp
/// Minimal one-line JSON object writer for the protocol with run.py.

#include <cmath>
#include <sstream>
#include <string>
#include <string_view>

namespace perfbench {

class JsonObject {
 public:
  JsonObject() {
    out_.precision(17);
    out_ << '{';
  }

  /// A finite number, or null (non-finite values are not JSON).
  JsonObject& num(std::string_view key, double v) {
    this->key(key);
    if (std::isfinite(v))
      out_ << v;
    else
      out_ << "null";
    return *this;
  }

  JsonObject& integer(std::string_view key, long long v) {
    this->key(key);
    out_ << v;
    return *this;
  }

  JsonObject& boolean(std::string_view key, bool v) {
    this->key(key);
    out_ << (v ? "true" : "false");
    return *this;
  }

  JsonObject& str(std::string_view key, std::string_view v) {
    this->key(key);
    quote(v);
    return *this;
  }

  /// Insert already-serialised JSON (an object or array) as the value.
  JsonObject& raw(std::string_view key, std::string_view json) {
    this->key(key);
    out_ << json;
    return *this;
  }

  [[nodiscard]] std::string done() const { return out_.str() + '}'; }

 private:
  void key(std::string_view k) {
    if (!first_) out_ << ',';
    first_ = false;
    quote(k);
    out_ << ':';
  }

  void quote(std::string_view s) {
    out_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\')
        out_ << '\\' << c;
      else if (static_cast<unsigned char>(c) < 0x20)
        out_ << ' ';
      else
        out_ << c;
    }
    out_ << '"';
  }

  std::ostringstream out_;
  bool first_ = true;
};

}  // namespace perfbench
