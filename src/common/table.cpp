#include "common/table.hpp"

#include <algorithm>

namespace pico {

Table::Table(std::string title) : title_(std::move(title)) {}

Table& Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
  return *this;
}

Table& Table::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
  return *this;
}

Table& Table::add_row(std::initializer_list<std::string> row) {
  rows_.emplace_back(row);
  return *this;
}

Table& Table::add_note(std::string note) {
  notes_.push_back(std::move(note));
  return *this;
}

void Table::print(std::ostream& os) const {
  // Column widths over header + all rows.
  std::size_t ncols = header_.size();
  for (const auto& r : rows_) ncols = std::max(ncols, r.size());
  std::vector<std::size_t> width(ncols, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) width[i] = std::max(width[i], row[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto rule = [&] {
    os << '+';
    for (std::size_t i = 0; i < ncols; ++i) os << std::string(width[i] + 2, '-') << '+';
    os << '\n';
  };
  auto line = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t i = 0; i < ncols; ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string{};
      os << ' ' << cell << std::string(width[i] - cell.size() + 1, ' ') << '|';
    }
    os << '\n';
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  rule();
  if (!header_.empty()) {
    line(header_);
    rule();
  }
  for (const auto& r : rows_) line(r);
  rule();
  for (const auto& n : notes_) os << "  note: " << n << '\n';
}

}  // namespace pico
