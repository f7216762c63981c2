// Plain-text table emission.
//
// Every bench binary regenerates one of the paper's tables or figures as
// rows/series on stdout; Table gives them a single consistent, aligned
// format.
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace ep {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Add a pre-formatted row; must have exactly as many cells as headers.
  void addRow(std::vector<std::string> cells);

  // Convenience: format doubles with formatDouble(v, 4).
  void addRow(std::initializer_list<double> cells);

  void setTitle(std::string title) { title_ = std::move(title); }

  // Render with column alignment.
  void print(std::ostream& os) const;
  [[nodiscard]] std::string str() const;

 private:
  static constexpr int kPrecision = 4;

  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Shared numeric formatting: fixed for "human" magnitudes, scientific
// outside, trailing-zero trimmed.
[[nodiscard]] std::string formatDouble(double v, int precision);

}  // namespace ep
