#include "circuits/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace pico::circuits {

double Vector::norm_inf() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

bool Matrix::same_bits(const Matrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         (data_.empty() ||
          std::memcmp(data_.data(), other.data_.data(), data_.size() * sizeof(double)) == 0);
}

void Matrix::multiply_into(const Vector& x, Vector& y) const {
  PICO_REQUIRE(x.size() == cols_, "matrix-vector dimension mismatch");
  PICO_REQUIRE(&x != &y, "multiply_into aliasing: x and y must be distinct");
  if (y.size() != rows_) y.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) sum += at(r, c) * x[c];
    y[r] = sum;
  }
}

Vector Matrix::multiply(const Vector& x) const {
  Vector y(rows_);
  multiply_into(x, y);
  return y;
}

void LuSolver::factorize(const Matrix& a) {
  PICO_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  n_ = a.rows();
  lu_ = a;  // reuses capacity when the size is unchanged
  perm_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivoting: largest magnitude in column k at or below the diagonal.
    std::size_t pivot = k;
    double best = std::fabs(lu_.at(k, k));
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double mag = std::fabs(lu_.at(r, k));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    PICO_REQUIRE(best > 1e-300, "singular circuit matrix (floating node or loop of sources?)");
    if (pivot != k) {
      for (std::size_t c = 0; c < n_; ++c) std::swap(lu_.at(k, c), lu_.at(pivot, c));
      std::swap(perm_[k], perm_[pivot]);
    }
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double factor = lu_.at(r, k) / lu_.at(k, k);
      lu_.at(r, k) = factor;
      for (std::size_t c = k + 1; c < n_; ++c) lu_.at(r, c) -= factor * lu_.at(k, c);
    }
  }
}

void LuSolver::solve_into(const Vector& b, Vector& x) const {
  PICO_REQUIRE(b.size() == n_, "rhs dimension mismatch");
  PICO_REQUIRE(&b != &x, "solve_into aliasing: b and x must be distinct");
  if (x.size() != n_) x.assign(n_, 0.0);
  // Forward substitution with permutation.
  for (std::size_t r = 0; r < n_; ++r) {
    double sum = b[perm_[r]];
    for (std::size_t c = 0; c < r; ++c) sum -= lu_.at(r, c) * x[c];
    x[r] = sum;
  }
  // Back substitution.
  for (std::size_t ri = n_; ri-- > 0;) {
    double sum = x[ri];
    for (std::size_t c = ri + 1; c < n_; ++c) sum -= lu_.at(ri, c) * x[c];
    x[ri] = sum / lu_.at(ri, ri);
  }
}

Vector LuSolver::solve(const Vector& b) const {
  Vector x(n_);
  solve_into(b, x);
  return x;
}

Vector solve_linear(const Matrix& a, const Vector& b) { return LuSolver(a).solve(b); }

}  // namespace pico::circuits
