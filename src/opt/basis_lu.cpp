#include "opt/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/trace.hpp"
#include "support/status.hpp"

namespace mlsi::opt {
namespace {

/// A pivot below this is treated as structurally zero during factorization.
constexpr double kSingularTol = 1e-10;
/// Relative stability threshold for Markowitz candidates: only entries
/// within this factor of the column's largest magnitude may pivot.
constexpr double kStabilityRatio = 0.1;
/// Updates since the last factorization before a rebuild is forced.
constexpr int kMaxUpdates = 100;

}  // namespace

void BasisLu::push_eta(int r, const std::vector<double>& w) {
  Eta eta;
  eta.pivot_row = r;
  eta.pivot = w[static_cast<std::size_t>(r)];
  eta.begin = static_cast<int>(off_row_.size());
  const int m = mat_->rows;
  for (int i = 0; i < m; ++i) {
    if (i == r) continue;
    const double v = w[static_cast<std::size_t>(i)];
    if (v == 0.0) continue;
    off_row_.push_back(i);
    off_val_.push_back(v);
  }
  eta.end = static_cast<int>(off_row_.size());
  etas_.push_back(eta);
}

void BasisLu::ftran(std::vector<double>& x) const {
  for (const Eta& e : etas_) {
    double xr = x[static_cast<std::size_t>(e.pivot_row)];
    if (xr == 0.0) continue;  // the eta cannot touch anything
    xr /= e.pivot;
    x[static_cast<std::size_t>(e.pivot_row)] = xr;
    for (int k = e.begin; k < e.end; ++k) {
      x[static_cast<std::size_t>(off_row_[static_cast<std::size_t>(k)])] -=
          off_val_[static_cast<std::size_t>(k)] * xr;
    }
  }
}

void BasisLu::btran(std::vector<double>& x) const {
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const Eta& e = *it;
    double acc = x[static_cast<std::size_t>(e.pivot_row)];
    for (int k = e.begin; k < e.end; ++k) {
      acc -= off_val_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(off_row_[static_cast<std::size_t>(k)])];
    }
    x[static_cast<std::size_t>(e.pivot_row)] = acc / e.pivot;
  }
}

bool BasisLu::update(int r, const std::vector<double>& w) {
  const double piv = w[static_cast<std::size_t>(r)];
  if (std::fabs(piv) < 1e-9) return false;
  push_eta(r, w);
  ++updates_;
  return true;
}

bool BasisLu::should_refactorize() const {
  if (updates_ >= kMaxUpdates) return true;
  // Fill budget: the update etas may carry dense spike columns; once they
  // outweigh the base factorization several times over, rebuilding pays.
  return off_row_.size() >
         5 * factor_nnz_ + static_cast<std::size_t>(8 * mat_->rows + 64);
}

int BasisLu::factorize(std::vector<int>& basis,
                       const std::vector<char>& in_basis) {
  const int m = mat_->rows;
  MLSI_ASSERT(static_cast<int>(basis.size()) == m,
              "basis size disagrees with the row count");
  etas_.clear();
  off_row_.clear();
  off_val_.clear();
  updates_ = 0;
  ++factorizations_;

  // Static Markowitz row counts over the basis columns.
  std::vector<int> row_count(static_cast<std::size_t>(m), 0);
  for (const int c : basis) {
    const int s = mat_->start[static_cast<std::size_t>(c)];
    const int e = mat_->start[static_cast<std::size_t>(c) + 1];
    for (int k = s; k < e; ++k) {
      ++row_count[static_cast<std::size_t>(mat_->index[static_cast<std::size_t>(k)])];
    }
  }

  // Process columns in ascending fill order (stable on position for
  // determinism): slack and near-triangular columns pivot first with no
  // fill-in, mirroring the triangularization phase of a sparse LU.
  std::vector<int> order(static_cast<std::size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return mat_->col_nnz(basis[static_cast<std::size_t>(a)]) <
           mat_->col_nnz(basis[static_cast<std::size_t>(b)]);
  });

  std::vector<char> pivoted(static_cast<std::size_t>(m), 0);
  std::vector<int> new_basis(static_cast<std::size_t>(m), -1);
  std::vector<double> work(static_cast<std::size_t>(m), 0.0);
  std::vector<int> dropped;

  const auto load_and_pivot = [&](int col) -> int {
    std::fill(work.begin(), work.end(), 0.0);
    mat_->add_column(col, 1.0, work);
    ftran(work);
    double vmax = 0.0;
    for (int i = 0; i < m; ++i) {
      if (pivoted[static_cast<std::size_t>(i)]) continue;
      vmax = std::max(vmax, std::fabs(work[static_cast<std::size_t>(i)]));
    }
    if (vmax <= kSingularTol) return -1;
    // Markowitz: among stable candidates pick the sparsest row, then the
    // smallest row index (determinism).
    int best = -1;
    for (int i = 0; i < m; ++i) {
      if (pivoted[static_cast<std::size_t>(i)]) continue;
      if (std::fabs(work[static_cast<std::size_t>(i)]) < kStabilityRatio * vmax) {
        continue;
      }
      if (best < 0 || row_count[static_cast<std::size_t>(i)] <
                          row_count[static_cast<std::size_t>(best)]) {
        best = i;
      }
    }
    push_eta(best, work);
    pivoted[static_cast<std::size_t>(best)] = 1;
    return best;
  };

  for (const int pos : order) {
    const int col = basis[static_cast<std::size_t>(pos)];
    const int row = load_and_pivot(col);
    if (row < 0) {
      dropped.push_back(col);  // dependent on the columns already pivoted
    } else {
      new_basis[static_cast<std::size_t>(row)] = col;
    }
  }

  // Repair: every uncovered row needs a replacement column, pivoted on
  // that exact row. The row's own slack is ideal (unit column) unless it
  // is already basic elsewhere; then fall back to scanning all nonbasic
  // columns for one with an acceptable pivot on the row.
  int repaired = 0;
  if (!dropped.empty()) {
    std::vector<char> taken = in_basis;  // includes the dropped columns
    const int n = mat_->cols - m;
    const auto pivot_at = [&](int col, int r) -> bool {
      std::fill(work.begin(), work.end(), 0.0);
      mat_->add_column(col, 1.0, work);
      ftran(work);
      if (std::fabs(work[static_cast<std::size_t>(r)]) <= 1e-7) return false;
      push_eta(r, work);
      pivoted[static_cast<std::size_t>(r)] = 1;
      return true;
    };
    for (int r = 0; r < m; ++r) {
      if (pivoted[static_cast<std::size_t>(r)]) continue;
      int chosen = -1;
      const int slack = n + r;
      if (taken[static_cast<std::size_t>(slack)] == 0 && pivot_at(slack, r)) {
        chosen = slack;
      } else {
        for (int cand = 0; cand < mat_->cols && chosen < 0; ++cand) {
          if (taken[static_cast<std::size_t>(cand)] != 0) continue;
          if (pivot_at(cand, r)) chosen = cand;
        }
      }
      MLSI_ASSERT(chosen >= 0, "basis repair found no replacement column");
      new_basis[static_cast<std::size_t>(r)] = chosen;
      taken[static_cast<std::size_t>(chosen)] = 1;
      ++repaired;
      if (obs::trace_enabled()) {
        obs::trace_instant("lp.basis_repair",
                           {{"column", json::Value{chosen}}});
      }
    }
  }

  basis = std::move(new_basis);
  factor_nnz_ = off_row_.size();
  return repaired;
}

}  // namespace mlsi::opt
