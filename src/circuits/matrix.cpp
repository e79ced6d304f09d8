#include "circuits/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace pico::circuits {

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

// Right-looking elimination that compiles each row for solve_into as soon
// as it is final. Once step k has chosen its pivot, row k never moves or
// changes again, so its strictly lower part, its pivot and its strictly
// upper part are written out then, and the elimination below it walks only
// the upper part's nonzeros. Skipping zeros is exact here too: a zero
// multiplier or a zero upper entry contributes only +-0 terms, which change
// no nonzero entry, only the sign of a zero one (multipliers are at most 1
// in magnitude, so short of overflow no skipped product is inf * 0). A
// zero's sign never reaches a nonzero factor (pivots are nonzero, and a
// zero times anything is zero), and solve_into skips zeros, so every solve
// matches the dense loops.
void LuSolver::factorize(const Matrix& a) {
  PICO_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  n_ = a.rows();
  lu_ = a;  // reuses capacity when the size is unchanged
  perm_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;
  // resize() to an unchanged size keeps the storage.
  diag_.resize(n_);
  lower_.resize(n_ * (n_ - 1) / 2);
  upper_.resize(n_ * (n_ - 1) / 2);
  lower_start_.resize(n_ + 1);
  upper_start_.resize(n_ + 1);
  std::size_t nl = 0;
  std::size_t nu = 0;

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
    // Compile row k. Every entry is written and only a nonzero one
    // advances the cursor, so the pass does not branch on the data.
    const double* row = &lu_.at(k, 0);
    lower_start_[k] = nl;
    for (std::size_t c = 0; c < k; ++c) {
      lower_[nl] = {c, row[c]};
      nl += row[c] != 0.0 ? 1u : 0u;
    }
    diag_[k] = row[k];
    upper_start_[k] = nu;
    for (std::size_t c = k + 1; c < n_; ++c) {
      upper_[nu] = {c, row[c]};
      nu += row[c] != 0.0 ? 1u : 0u;
    }
    for (std::size_t r = k + 1; r < n_; ++r) {
      if (lu_.at(r, k) == 0.0) continue;
      const double factor = lu_.at(r, k) / diag_[k];
      lu_.at(r, k) = factor;
      for (std::size_t i = upper_start_[k]; i < nu; ++i) {
        lu_.at(r, upper_[i].col) -= factor * upper_[i].value;
      }
    }
  }
  lower_start_[n_] = nl;
  upper_start_[n_] = nu;
}

// Substitution over the nonzero factor entries only, in the dense loops'
// order: ascending column within a row, then the division by the pivot.
// Skipping the zeros is exact. In round-to-nearest, s - (+-0) == s for every
// s except s = -0, and a product with a zero factor is +-0 while x[c] is
// finite. Each running sum starts at b[perm_[r]] (forward) or at a forward
// result (back), and a - b is -0 only when a is -0, so with no -0 in b no
// running sum is ever -0, and each skipped term would have left its sum
// unchanged. That holds in back substitution too, where a division can
// yield a -0 x[c]: such an x[c] only enters products, never starts a sum.
void LuSolver::solve_into(const Vector& b, Vector& x) const {
  PICO_REQUIRE(b.size() == n_, "rhs dimension mismatch");
  PICO_REQUIRE(&b != &x, "solve_into aliasing: b and x must be distinct");
  if (x.size() != n_) x.assign(n_, 0.0);
  // Forward substitution with permutation.
  for (std::size_t r = 0; r < n_; ++r) {
    double sum = b[perm_[r]];
    for (std::size_t i = lower_start_[r]; i < lower_start_[r + 1]; ++i) {
      sum -= lower_[i].value * x[lower_[i].col];
    }
    x[r] = sum;
  }
  // Back substitution.
  for (std::size_t ri = n_; ri-- > 0;) {
    double sum = x[ri];
    for (std::size_t i = upper_start_[ri]; i < upper_start_[ri + 1]; ++i) {
      sum -= upper_[i].value * x[upper_[i].col];
    }
    x[ri] = sum / diag_[ri];
  }
}

}  // namespace pico::circuits
