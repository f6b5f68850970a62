#include "common.h"

#include <unistd.h>

#include <fstream>
#include <map>

namespace dvb {

double rss_mb() {
  std::ifstream in{"/proc/self/statm"};
  long long size = 0;
  long long resident = 0;
  if (!(in >> size >> resident)) return std::nan("");
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident) * static_cast<double>(page) /
         (1024.0 * 1024.0);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metric_list::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + items_[i].name + "\": {\"value\": " +
           json_number(items_[i].value) + ", \"unit\": \"" + items_[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string outcome::phases_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const auto& p = phases_[i];
    out += (i > 0 ? ", " : "") + std::string{"{\"phase\": \""} + p.name +
           "\", \"attempted\": " + std::to_string(p.attempted) +
           ", \"succeeded\": " + std::to_string(p.attempted - p.failed) +
           ", \"failed\": " + std::to_string(p.failed) + "}";
  }
  return out + "]";
}

std::vector<std::pair<std::string, double>> span_log::self_ns_by_name() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<std::pair<std::string, double>> out;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const double self = static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    const auto [it, inserted] = slot.emplace(s.name, out.size());
    if (inserted) out.emplace_back(s.name, 0.0);
    out[it->second].second += self;
  }
  return out;
}

double span_log::total_self_ns() const {
  double total = 0.0;
  for (const auto& [name, ns] : self_ns_by_name()) total += ns;
  return total;
}

void span_log::write_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) {
    std::fprintf(stderr, "dvbench: cannot write trace %s\n", path.c_str());
    return;
  }
  out << "{\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
         "\"id\"],\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << (i > 0 ? ",\n  " : "\n  ") << "[\"" << s.name << "\", "
        << s.start_ns << ", " << s.end_ns << ", " << s.parent << ", " << s.id
        << "]";
  }
  out << "]}\n";
}

}  // namespace dvb
