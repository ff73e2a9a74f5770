// Dense row-major matrix container.
//
// The template parameter lets the FPGA model reuse the container with
// fixed-point elements; all numerically heavy routines (decompositions,
// blocked GEMM) are provided for Matrix<double> in the companion headers.
#pragma once

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace oselm::linalg {

template <typename T>
class Matrix {
 public:
  using value_type = T;

  Matrix() = default;

  /// rows x cols matrix, value-initialized (zero for arithmetic T).
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  Matrix(std::size_t rows, std::size_t cols, const T& fill_value)
      : rows_(rows), cols_(cols), data_(rows * cols, fill_value) {}

  /// Row-major construction from nested initializer lists; all rows must
  /// have equal length.
  Matrix(std::initializer_list<std::initializer_list<T>> rows_init) {
    rows_ = rows_init.size();
    cols_ = rows_ == 0 ? 0 : rows_init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows_init) {
      if (row.size() != cols_) {
        throw std::invalid_argument("Matrix: ragged initializer list");
      }
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  /// Takes ownership of row-major data (size must be rows*cols).
  Matrix(std::size_t rows, std::size_t cols, std::vector<T> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    if (data_.size() != rows_ * cols_) {
      throw std::invalid_argument("Matrix: data size mismatch");
    }
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Unchecked element access (hot paths).
  T& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Checked element access.
  T& at(std::size_t r, std::size_t c) {
    check_index(r, c);
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    check_index(r, c);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }
  [[nodiscard]] T* row_ptr(std::size_t r) noexcept {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] const T* row_ptr(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  [[nodiscard]] std::vector<T>& storage() noexcept { return data_; }
  [[nodiscard]] const std::vector<T>& storage() const noexcept {
    return data_;
  }

  void fill(const T& value) { data_.assign(data_.size(), value); }

  /// Reshapes to rows x cols, reusing the storage's capacity (no
  /// allocation once it suffices). Element values are unspecified
  /// afterwards: callers overwrite every element.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Identity of the given order (requires T constructible from 0 and 1).
  static Matrix identity(std::size_t n) {
    Matrix m(n, n, T(0));
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T(1);
    return m;
  }

  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, T(0));
  }

  /// n x n diagonal matrix from a vector.
  static Matrix diagonal(const std::vector<T>& diag) {
    Matrix m(diag.size(), diag.size(), T(0));
    for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
    return m;
  }

  /// Single-row matrix view of a vector (copies).
  static Matrix row_vector(const std::vector<T>& v) {
    return Matrix(1, v.size(), v);
  }

  /// Single-column matrix view of a vector (copies).
  static Matrix col_vector(const std::vector<T>& v) {
    return Matrix(v.size(), 1, v);
  }

  [[nodiscard]] Matrix transposed() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    }
    return out;
  }

  /// Copies row r into a vector.
  [[nodiscard]] std::vector<T> row(std::size_t r) const {
    check_index(r, 0);
    return std::vector<T>(row_ptr(r), row_ptr(r) + cols_);
  }

  /// Copies column c into a vector.
  [[nodiscard]] std::vector<T> col(std::size_t c) const {
    check_index(0, c);
    std::vector<T> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
    return out;
  }

  void set_row(std::size_t r, const std::vector<T>& values) {
    if (values.size() != cols_) {
      throw std::invalid_argument("Matrix::set_row: width mismatch");
    }
    for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = values[c];
  }

  bool operator==(const Matrix& other) const = default;

 private:
  void check_index(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) {
      throw std::out_of_range("Matrix index (" + std::to_string(r) + "," +
                              std::to_string(c) + ") out of " +
                              std::to_string(rows_) + "x" +
                              std::to_string(cols_));
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatD = Matrix<double>;
using VecD = std::vector<double>;

/// Max |a-b| over all elements; matrices must share a shape.
inline double max_abs_diff(const MatD& a, const MatD& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

/// True when all elements agree within `tol`.
inline bool approx_equal(const MatD& a, const MatD& b, double tol = 1e-9) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         max_abs_diff(a, b) <= tol;
}

}  // namespace oselm::linalg
