#include "lp/standard_form.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace tsf::lp {

StandardForm::StandardForm(std::size_t num_variables)
    : num_variables_(num_variables), objective_(num_variables, 0.0) {
  TSF_CHECK_GT(num_variables, 0u);
}

std::size_t StandardForm::AddRow(
    const std::vector<std::pair<std::size_t, double>>& terms, Relation relation,
    double rhs) {
  TSF_CHECK(!finalized_) << "AddRow after Finalize would change the shape";
  TSF_CHECK(std::isfinite(rhs));
  for (const auto& [variable, coefficient] : terms) {
    TSF_CHECK_LT(variable, num_variables_);
    TSF_CHECK(std::isfinite(coefficient));
  }
  const std::size_t row = relation_.size();
  build_rows_.push_back(terms);
  relation_.push_back(relation);
  rhs_.push_back(rhs);
  return row;
}

void StandardForm::SetObjectiveCoefficient(std::size_t variable,
                                           double coefficient) {
  TSF_CHECK_LT(variable, num_variables_);
  objective_[variable] = coefficient;
}

void StandardForm::Finalize() {
  TSF_CHECK(!finalized_);
  TSF_CHECK_GT(num_rows(), 0u) << "a standard form needs at least one row";
  finalized_ = true;
  // Accumulate duplicates within each row, then count, offset and scatter
  // the merged terms into the columns. Rows are visited in order, so every
  // column comes out row-sorted.
  column_start_.assign(num_variables_ + 1, 0);
  for (std::vector<std::pair<std::size_t, double>>& terms : build_rows_) {
    std::sort(terms.begin(), terms.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t merged = 0;
    for (std::size_t k = 0; k < terms.size();) {
      std::size_t next = k + 1;
      double value = terms[k].second;
      while (next < terms.size() && terms[next].first == terms[k].first)
        value += terms[next++].second;
      terms[merged++] = {terms[k].first, value};
      ++column_start_[terms[k].first + 1];
      k = next;
    }
    terms.resize(merged);
  }
  for (std::size_t j = 0; j < num_variables_; ++j)
    column_start_[j + 1] += column_start_[j];
  entries_.resize(column_start_[num_variables_]);
  std::vector<std::size_t> fill(column_start_.begin(), column_start_.end() - 1);
  for (std::size_t row = 0; row < build_rows_.size(); ++row)
    for (const auto& [variable, value] : build_rows_[row])
      entries_[fill[variable]++] =
          Entry{static_cast<std::uint32_t>(row), value};
  build_rows_.clear();
  build_rows_.shrink_to_fit();
}

void StandardForm::SetRhs(std::size_t row, double rhs) {
  TSF_CHECK(finalized_);
  TSF_CHECK_LT(row, num_rows());
  TSF_CHECK(std::isfinite(rhs));
  rhs_[row] = rhs;
}

double StandardForm::SetCoefficient(std::size_t row, std::size_t variable,
                                    double value) {
  TSF_CHECK(finalized_);
  TSF_CHECK_LT(row, num_rows());
  TSF_CHECK_LT(variable, num_variables_);
  TSF_CHECK(std::isfinite(value));
  for (std::size_t k = column_start_[variable];
       k < column_start_[variable + 1]; ++k) {
    Entry& entry = entries_[k];
    if (entry.row == row) {
      const double previous = entry.value;
      entry.value = value;
      return previous;
    }
  }
  TSF_CHECK(false) << "SetCoefficient: no slot for row " << row
                   << ", variable " << variable
                   << " — creating one would change the shape";
}

}  // namespace tsf::lp
