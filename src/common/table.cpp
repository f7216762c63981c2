#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace ep {

std::string formatDouble(double v, int precision) {
  std::ostringstream ss;
  const double mag = std::fabs(v);
  if (v != 0.0 && (mag >= 1e7 || mag < 1e-4)) {
    ss << std::scientific << std::setprecision(precision) << v;
    return ss.str();
  }
  ss << std::fixed << std::setprecision(precision) << v;
  std::string s = ss.str();
  // Trim trailing zeros but keep at least one digit after the point.
  if (s.find('.') != std::string::npos) {
    while (s.size() > 1 && s.back() == '0' &&
           s[s.size() - 2] != '.') {
      s.pop_back();
    }
  }
  return s;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  EP_REQUIRE(!headers_.empty(), "a table needs at least one column");
}

void Table::addRow(std::vector<std::string> cells) {
  EP_REQUIRE(cells.size() == headers_.size(),
             "row width must match header width");
  rows_.push_back(std::move(cells));
}

void Table::addRow(std::initializer_list<double> cells) {
  std::vector<std::string> row;
  row.reserve(cells.size());
  for (double v : cells) row.push_back(formatDouble(v, kPrecision));
  addRow(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto hline = [&] {
    os << '+';
    for (auto w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  hline();
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << ' ' << std::left << std::setw(static_cast<int>(widths[c]))
       << headers_[c] << " |";
  }
  os << '\n';
  hline();
  for (const auto& row : rows_) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << std::left << std::setw(static_cast<int>(widths[c]))
         << row[c] << " |";
    }
    os << '\n';
  }
  hline();
}

std::string Table::str() const {
  std::ostringstream ss;
  print(ss);
  return ss.str();
}

}  // namespace ep
