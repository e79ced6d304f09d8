// table.hpp — ASCII table rendering for bench binaries. Every bench prints
// its reproduced figure/table through this class so the output format is
// uniform across the harness (and easy to diff against EXPERIMENTS.md).
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace pico {

class Table {
 public:
  explicit Table(std::string title = {});

  Table& set_header(std::vector<std::string> header);
  Table& add_row(std::vector<std::string> row);
  // Convenience: mixed numeric/string rows assembled by the caller.
  Table& add_row(std::initializer_list<std::string> row);

  // Optional footnote lines printed under the table.
  Table& add_note(std::string note);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  // Render with box-drawing in plain ASCII.
  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> notes_;
};

}  // namespace pico
