// matrix.hpp — small dense linear algebra for the MNA circuit solver.
//
// Circuit matrices in this library are tiny (tens of unknowns), so a dense
// LU factorization with partial pivoting is both simplest and fastest.
//
// Hot loops (Transient stepping, Monte Carlo sweeps) use the `_into`
// overloads, which write results into caller-owned buffers and never
// allocate; the by-value variants remain for one-shot callers.
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

  [[nodiscard]] double norm_inf() const;
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

  // y = A x
  [[nodiscard]] Vector multiply(const Vector& x) const;
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
class LuSolver {
 public:
  LuSolver() = default;
  // Throws DesignError if the matrix is singular to working precision.
  explicit LuSolver(const Matrix& a) { factorize(a); }

  // (Re)factorize; invalidates previous factors.
  void factorize(const Matrix& a);

  [[nodiscard]] Vector solve(const Vector& b) const;
  // Solve into an existing vector; x must not alias b.
  void solve_into(const Vector& b, Vector& x) const;
  [[nodiscard]] std::size_t dim() const { return n_; }

 private:
  std::size_t n_ = 0;
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

// Convenience: solve A x = b once.
Vector solve_linear(const Matrix& a, const Vector& b);

}  // namespace pico::circuits
