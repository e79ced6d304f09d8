// Tests for the dense linear algebra used by the MNA solver.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "circuits/matrix.hpp"
#include "common/error.hpp"

namespace pico::circuits {
namespace {

Vector multiply(const Matrix& a, const Vector& x) {
  Vector y;
  a.multiply_into(x, y);
  return y;
}

Vector solve(const LuSolver& lu, const Vector& b) {
  Vector x;
  lu.solve_into(b, x);
  return x;
}

TEST(Matrix, MultiplyVector) {
  Matrix a(2, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(0, 2) = 3;
  a.at(1, 0) = 4;
  a.at(1, 1) = 5;
  a.at(1, 2) = 6;
  Vector x(3);
  x[0] = 1;
  x[1] = 1;
  x[2] = 1;
  const Vector y = multiply(a, x);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(LuSolver, SolvesIdentity) {
  Matrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i) a.at(i, i) = 1.0;
  Vector b(3);
  b[0] = 1;
  b[1] = 2;
  b[2] = 3;
  const Vector x = solve(LuSolver(a), b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(LuSolver, SolvesGeneralSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  Matrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  Vector b(2);
  b[0] = 5;
  b[1] = 10;
  const Vector x = solve(LuSolver(a), b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuSolver, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a(2, 2);
  a.at(0, 0) = 0;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 0;
  Vector b(2);
  b[0] = 2;
  b[1] = 3;
  const Vector x = solve(LuSolver(a), b);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(LuSolver, DetectsSingular) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  EXPECT_THROW(LuSolver{a}, pico::DesignError);
}

TEST(LuSolver, ReusableForMultipleRhs) {
  Matrix a(2, 2);
  a.at(0, 0) = 4;
  a.at(1, 1) = 2;
  LuSolver lu(a);
  Vector b1(2), b2(2);
  b1[0] = 4;
  b2[1] = 2;
  EXPECT_DOUBLE_EQ(solve(lu, b1)[0], 1.0);
  EXPECT_DOUBLE_EQ(solve(lu, b2)[1], 1.0);
}

TEST(LuSolver, LargerRandomishSystemRoundTrip) {
  const std::size_t n = 12;
  Matrix a(n, n);
  // Diagonally dominant deterministic fill.
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a.at(i, j) = std::sin(static_cast<double>(i * 7 + j * 3)) * 0.5;
      row += std::abs(a.at(i, j));
    }
    a.at(i, i) = row + 1.0;
  }
  Vector x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = static_cast<double>(i) - 5.0;
  const Vector b = multiply(a, x_true);
  const Vector x = solve(LuSolver(a), b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

// The dense partial-pivoting LU and substitution loops, kept as the
// reference the solver's sparse solve must reproduce bit for bit. The
// factorization is the solver's own; the substitution walks every
// off-diagonal product, zeros included.
struct DenseLu {
  Matrix lu;
  std::vector<std::size_t> perm;
  std::size_t cancellations = 0;  // updates that left an exact 0 behind
  std::size_t swaps = 0;
};

bool dense_factorize(const Matrix& a, DenseLu& f) {
  const std::size_t n = a.rows();
  f.lu = a;
  f.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) f.perm[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    double best = std::fabs(f.lu.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(f.lu.at(r, k));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (!(best > 1e-300)) return false;
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(f.lu.at(k, c), f.lu.at(pivot, c));
      std::swap(f.perm[k], f.perm[pivot]);
      ++f.swaps;
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = f.lu.at(r, k) / f.lu.at(k, k);
      f.lu.at(r, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c) {
        const double before = f.lu.at(r, c);
        f.lu.at(r, c) -= factor * f.lu.at(k, c);
        if (before != 0.0 && f.lu.at(r, c) == 0.0) ++f.cancellations;
      }
    }
  }
  return true;
}

Vector dense_solve(const DenseLu& f, const Vector& b) {
  const std::size_t n = f.perm.size();
  Vector x(n);
  for (std::size_t r = 0; r < n; ++r) {
    double sum = b[f.perm[r]];
    for (std::size_t c = 0; c < r; ++c) sum -= f.lu.at(r, c) * x[c];
    x[r] = sum;
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= f.lu.at(ri, c) * x[c];
    x[ri] = sum / f.lu.at(ri, ri);
  }
  return x;
}

TEST(LuSolver, SparseSolveMatchesDenseLoop) {
  // Random systems of every size up to 12 with 0-80 % structural zeros,
  // zeroed diagonals that force row swaps, and rows that repeat another
  // row scaled by a power of two so elimination cancels to exact zeros
  // inside L and U. Right-hand sides hold exact +0 entries (never -0, the
  // solve's precondition), so back substitution also meets -0 quotients.
  // One long-lived solver is refactorized across sizes, as the transient
  // cache's entries are.
  std::mt19937_64 rng(20080608);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> small(-8, 8);
  LuSolver reused;
  std::size_t solved = 0, cancellations = 0, swaps = 0, negative_zeros = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 12);
    const double zero_frac = 0.2 * static_cast<double>((trial / 12) % 5);
    const bool integers = (trial / 60) % 2 == 0;
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        if (unit(rng) < zero_frac) continue;
        a.at(r, c) = integers ? static_cast<double>(small(rng)) : 2.0 * unit(rng) - 1.0;
      }
      if (unit(rng) < 0.3) a.at(r, r) = 0.0;
    }
    for (std::size_t r = 1; r < n; ++r) {
      if (unit(rng) >= 0.3) continue;
      const std::size_t p = static_cast<std::size_t>(rng() % r);
      const double scale = unit(rng) < 0.5 ? 2.0 : -0.5;
      for (std::size_t c = 0; c < n; ++c) a.at(r, c) = scale * a.at(p, c);
      a.at(r, static_cast<std::size_t>(rng() % n)) += 1.0;
    }
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (unit(rng) >= 0.3) b[i] = integers ? static_cast<double>(small(rng)) : 4.0 * unit(rng) - 2.0;
      if (b[i] == 0.0) b[i] = 0.0;  // +0 only
    }

    DenseLu ref;
    if (!dense_factorize(a, ref)) {
      EXPECT_THROW(reused.factorize(a), pico::DesignError);
      continue;
    }
    const Vector want = dense_solve(ref, b);
    bool finite = true;
    for (std::size_t i = 0; i < n; ++i) finite = finite && std::isfinite(want[i]);
    if (!finite) continue;

    reused.factorize(a);
    const Vector fresh = solve(LuSolver(a), b);
    Vector got(n);
    reused.solve_into(b, got);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
          << "trial " << trial << " n " << n << " x[" << i << "]";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fresh[i]), std::bit_cast<std::uint64_t>(want[i]))
          << "trial " << trial << " n " << n << " x[" << i << "]";
      if (want[i] == 0.0 && std::signbit(want[i])) ++negative_zeros;
    }
    ++solved;
    cancellations += ref.cancellations;
    swaps += ref.swaps;
  }
  // The corpus did exercise what the sparse solve must get right.
  EXPECT_GT(solved, 3000u);
  EXPECT_GT(cancellations, 5000u);
  EXPECT_GT(swaps, 5000u);
  EXPECT_GT(negative_zeros, 100u);
}

}  // namespace
}  // namespace pico::circuits
