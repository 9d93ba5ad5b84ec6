#include "record.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

bool Recorder::write_json(const std::string& path) const {
  std::ostringstream os;
  os << "{\n\"attempted\": " << attempted_ << ",\n\"failed\": " << failed_ << ",\n\"info\": {";
  const char* sep = "";
  for (const auto& [key, value] : info_) {
    os << sep << quoted(key) << ": " << quoted(value);
    sep = ", ";
  }
  os << "},\n\"checks\": [";
  sep = "";
  for (const Check& c : checks_) {
    os << sep << "\n  {\"name\": " << quoted(c.name) << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << quoted(c.detail) << "}";
    sep = ",";
  }
  os << "],\n\"samples\": {";
  sep = "";
  for (const auto& [name, values] : samples_) {
    os << sep << "\n  " << quoted(name) << ": [";
    const char* vsep = "";
    for (const double v : values) {
      os << vsep << number(v);
      vsep = ", ";
    }
    os << "]";
    sep = ",";
  }
  // Spans as [name, parent, start, end] rows, in opening order.
  os << "},\n\"spans\": [";
  sep = "";
  for (const Span& s : spans_) {
    os << sep << "\n  [" << quoted(s.name) << ", " << s.parent << ", " << number(s.start) << ", "
       << number(s.end) << "]";
    sep = ",";
  }
  os << "]\n}\n";
  std::ofstream out(path);
  out << os.str();
  out.close();
  return out.good();
}

}  // namespace perfbench
