#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// The run record the benchmark binary prints as its one line of JSON:
// outcome counts, named metrics with units, and descriptive info fields.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Info(const std::string& name, double value) {
    info_.push_back({name, Number(value)});
  }
  void Info(const std::string& name, const std::string& value) {
    info_.push_back({name, Quote(value)});
  }

  bool correct = true;
  bool valid = true;  // false: the run cannot count as a result
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  std::string ToJson() const {
    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"valid\":";
    out += valid ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ",";
      out += Quote(metrics_[i].name) + ":{\"value\":" +
             Number(metrics_[i].value) + ",\"unit\":" +
             Quote(metrics_[i].unit) + "}";
    }
    out += "},\"info\":{";
    for (size_t i = 0; i < info_.size(); ++i) {
      if (i > 0) out += ",";
      out += Quote(info_[i].first) + ":" + info_[i].second;
    }
    out += "},\"errors\":[";
    for (size_t i = 0; i < errors.size(); ++i) {
      if (i > 0) out += ",";
      out += Quote(errors[i]);
    }
    out += "]}";
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };

  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
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

  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
