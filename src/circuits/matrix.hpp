// matrix.hpp — small dense linear algebra for the MNA circuit solver.
//
// Circuit matrices in this library are tiny (tens of unknowns), so a dense
// LU factorization with partial pivoting is both simplest and fastest.
//
// Products and solves write into caller-owned buffers (`_into`), so the
// transient step loop never allocates.
#pragma once

#include <cstddef>
#include <vector>

namespace pico::circuits {

class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }
  void assign(std::size_t n, double fill) { data_.assign(n, fill); }
  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  [[nodiscard]] const std::vector<double>& raw() const { return data_; }

 private:
  std::vector<double> data_;
};

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  void resize(std::size_t rows, std::size_t cols);
  // Same shape and the same bytes: +0 and -0 differ, so equal matrices
  // are guaranteed to factorize to equal factors.
  [[nodiscard]] bool same_bits(const Matrix& other) const;

  // y = A x into an existing vector; y must not alias x.
  void multiply_into(const Vector& x, Vector& y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// LU factorization with partial pivoting. Factorizes a copy of A; reusable
// for multiple right-hand sides. `factorize()` reuses internal storage, so
// a long-lived solver re-factorized with same-sized matrices does not
// allocate after the first call.
//
// MNA matrices are mostly zeros (the sync-rectifier netlist: 17 of 36), and
// so are their factors (14 of 30 off-diagonal entries). `factorize()`
// compiles the strictly lower and strictly upper factors into per-row lists
// of their nonzero entries, so each solve, which the transient cache runs
// once per step against stored factors, walks only those; the elimination
// itself walks only the pivot row's list.
class LuSolver {
 public:
  LuSolver() = default;
  // Throws DesignError if the matrix is singular to working precision.
  explicit LuSolver(const Matrix& a) { factorize(a); }

  // (Re)factorize; invalidates previous factors.
  void factorize(const Matrix& a);

  // Solve A x = b into an existing vector; x must not alias b.
  // Precondition: b is finite and holds no -0 entry (MNA right-hand sides
  // accumulate onto +0, and +0 + -0 is +0). The result is then bit-identical
  // to dense substitution over every factor entry, as long as the solve
  // does not overflow; see solve_into in matrix.cpp.
  void solve_into(const Vector& b, Vector& x) const;
  [[nodiscard]] std::size_t dim() const { return n_; }

 private:
  struct Entry {
    std::size_t col;
    double value;
  };
  std::size_t n_ = 0;
  Matrix lu_;  // factorization workspace; solves read the lists below
  std::vector<std::size_t> perm_;
  std::vector<double> diag_;  // U's diagonal
  // Row r's nonzero entries of strictly lower L at lower_[lower_start_[r],
  // lower_start_[r + 1]), in ascending column order; likewise for U.
  std::vector<Entry> lower_, upper_;
  std::vector<std::size_t> lower_start_, upper_start_;
};

}  // namespace pico::circuits
