// Minimal fixed-width table printer for experiment reports. Every bench
// binary prints its experiment id, the workload parameters, and a table of
// the series the paper's claim concerns; EXPERIMENTS.md reproduces these.
// A bench run with --json[=PATH] also mirrors its results into a
// BENCH_E*.json document (see write_report) so the perf trajectory is
// diffable across commits. A bench that times code calls fastest_ns, the
// one wall clock read in bench/ outside the separate bench/e2e/ project.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/strings.h"

namespace heus::bench {

inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Windows per row of a paper-claim bench's timing table.
inline constexpr int kWindows = 5;

/// Wall-clock nanoseconds of the fastest of `windows` calls of `window`.
/// A window assigns every result it produces to a variable declared
/// outside it, and the bench checks those results afterwards
/// (check_count): a dropped result would let a loop time an error path
/// unnoticed, and freeing a large one inside the window times the
/// allocator handing pages back to the system.
template <typename Fn>
double fastest_ns(int windows, Fn&& window) {
  double best = 0;
  for (int w = 0; w < windows; ++w) {
    const auto t0 = std::chrono::steady_clock::now();
    window();
    const std::chrono::duration<double, std::nano> took =
        std::chrono::steady_clock::now() - t0;
    if (w == 0 || took.count() < best) best = took.count();
  }
  return best;
}

inline std::string fmt_ns(double ns) {
  if (ns >= 1e6) return common::strformat("%.2f ms", ns / 1e6);
  if (ns >= 1e3) return common::strformat("%.2f us", ns / 1e3);
  return common::strformat("%.0f ns", ns);
}

/// The check after a timed window: false, with the mismatch on stderr,
/// unless the window's results counted `want`.
inline bool check_count(const char* what, std::size_t got, std::size_t want) {
  if (got == want) return true;
  std::fprintf(stderr, "%s: got %zu, want %zu\n", what, got, want);
  return false;
}

inline void print_banner(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment, claim);
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      widths[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]),
                    cells[i].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::string rule;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      rule += std::string(widths[i], '-') + "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row);
  }

  [[nodiscard]] const std::vector<std::string>& headers() const {
    return headers_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Mirror a printed Table as {"headers": [...], "rows": [[...], ...]}.
inline common::Json table_to_json(const Table& t) {
  common::Json obj = common::Json::object();
  obj.set("headers", t.headers()).set("rows", t.rows());
  return obj;
}

/// Write {"experiment": ..., "results": ...} to `path` and say so; false
/// (with a message) on an I/O error.
inline bool write_report(const char* experiment, common::Json results,
                         const std::string& path) {
  common::Json doc = common::Json::object();
  doc.set("experiment", experiment).set("results", std::move(results));
  if (!common::write_json(doc, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace heus::bench
