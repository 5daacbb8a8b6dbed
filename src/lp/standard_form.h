// Standard-form program with immutable shape and sparse column storage.
//
// Progressive filling solves many LPs per run: within a run, the round LPs
// and every per-user FREEZE probe share one constraint matrix and differ
// only in a few right-hand sides, the objective, and one coefficient per
// frozen user (see core/offline/filling_engine.h). StandardForm captures
// exactly that structure:
//
//   * the *shape* — which rows exist and which (row, variable) slots are
//     nonzero — is fixed at Finalize() time and never changes;
//   * the *values* — rhs, the coefficient stored in an existing slot, and
//     the objective — may be mutated afterwards in O(changed slots).
//
// Shape immutability is what makes warm re-solving sound: a basis of the old
// program names columns that still exist, with the same sparsity, in the new
// one (see revised.h). Columns are stored sparse because progressive-filling
// matrices have ~3 nonzeros per column regardless of instance size: one flat
// CSC array of entries, row-sorted within each column, so that pricing walks
// the columns in memory order.
//
// Row i's dedicated logical slack column (index num_variables() + i) is
// implied, not stored: +1 for kLessEqual rows, -1 (surplus) for
// kGreaterEqual rows, and -1-but-banned for kEqual rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace tsf::lp {

enum class Relation { kLessEqual, kEqual, kGreaterEqual };

class StandardForm {
 public:
  struct Entry {
    std::uint32_t row;
    double value;
  };

  explicit StandardForm(std::size_t num_variables);

  // --- Shape construction (before Finalize) ---

  // Adds `terms · x  relation  rhs` and returns the row index. Duplicate
  // variables within `terms` accumulate.
  std::size_t AddRow(const std::vector<std::pair<std::size_t, double>>& terms,
                     Relation relation, double rhs);

  // Also a value mutation: allowed before and after Finalize.
  void SetObjectiveCoefficient(std::size_t variable, double coefficient);

  // Freezes the shape and compiles column-major storage. Must be called
  // exactly once, before any solve or value mutation.
  void Finalize();

  // --- Shape-preserving value mutations (after Finalize) ---

  void SetRhs(std::size_t row, double rhs);

  // Overwrites the coefficient held in an existing (row, variable) slot and
  // returns the previous value. The slot must have been created by AddRow —
  // writing a brand-new nonzero would change the shape.
  double SetCoefficient(std::size_t row, std::size_t variable, double value);

  // --- Accessors ---

  bool finalized() const { return finalized_; }
  std::size_t num_variables() const { return num_variables_; }
  std::size_t num_rows() const { return relation_.size(); }
  Relation relation(std::size_t row) const { return relation_[row]; }
  double rhs(std::size_t row) const { return rhs_[row]; }
  const std::vector<double>& rhs() const { return rhs_; }
  const std::vector<double>& objective() const { return objective_; }
  // A view into the flat column storage: use it at once, since moving,
  // assigning or destroying the form invalidates it.
  std::span<const Entry> column(std::size_t variable) const {
    return {entries_.data() + column_start_[variable],
            entries_.data() + column_start_[variable + 1]};
  }

 private:
  std::size_t num_variables_;
  bool finalized_ = false;
  std::vector<double> objective_;
  std::vector<double> rhs_;
  std::vector<Relation> relation_;

  // Build-time row-major staging; cleared by Finalize.
  std::vector<std::vector<std::pair<std::size_t, double>>> build_rows_;

  // Compiled CSC storage: column j's entries, row-sorted, are
  // entries_[column_start_[j], column_start_[j + 1]).
  std::vector<Entry> entries_;
  std::vector<std::size_t> column_start_;
};

}  // namespace tsf::lp
