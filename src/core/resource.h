// Multi-resource vectors.
//
// A ResourceVector holds one non-negative quantity per resource type (CPU,
// memory, ...). The paper works with *normalized* vectors — every machine
// capacity and task demand divided by the datacenter-wide total of each
// resource — and so do the allocator internals here; the Cluster type owns
// the normalization. Dimension is fixed at construction and all arithmetic
// checks dimension agreement.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"

namespace tsf {

class ResourceVector {
 public:
  ResourceVector() = default;

  // Zero vector of the given dimension.
  explicit ResourceVector(std::size_t dimension) : values_(dimension, 0.0) {}

  ResourceVector(std::initializer_list<double> values) : values_(values) {
    for (const double v : values_) TSF_CHECK(v >= 0.0) << "negative resource";
  }

  explicit ResourceVector(std::vector<double> values)
      : values_(std::move(values)) {
    for (const double v : values_) TSF_CHECK(v >= 0.0) << "negative resource";
  }

  std::size_t dimension() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double operator[](std::size_t r) const {
    TSF_DCHECK(r < values_.size());
    return values_[r];
  }
  double& operator[](std::size_t r) {
    TSF_DCHECK(r < values_.size());
    return values_[r];
  }

  const std::vector<double>& values() const { return values_; }

  ResourceVector& operator+=(const ResourceVector& other) {
    TSF_DCHECK(dimension() == other.dimension());
    for (std::size_t r = 0; r < values_.size(); ++r) values_[r] += other.values_[r];
    return *this;
  }

  ResourceVector& operator-=(const ResourceVector& other) {
    TSF_DCHECK(dimension() == other.dimension());
    for (std::size_t r = 0; r < values_.size(); ++r) values_[r] -= other.values_[r];
    return *this;
  }

  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) {
    a += b;
    return a;
  }
  friend ResourceVector operator-(ResourceVector a, const ResourceVector& b) {
    a -= b;
    return a;
  }

  // Element-wise scaling (e.g. k tasks' worth of one demand vector).
  friend ResourceVector operator*(double k, ResourceVector v) {
    for (double& x : v.values_) x *= k;
    return v;
  }

  friend bool operator==(const ResourceVector& a, const ResourceVector& b) {
    return a.values_ == b.values_;
  }

  // True if a task demanding `demand` fits within this vector, with a small
  // tolerance so accumulated floating-point debits do not reject the last
  // task that exactly fills a machine.
  bool Fits(const ResourceVector& demand, double tolerance = 1e-9) const {
    TSF_DCHECK(dimension() == demand.dimension());
    for (std::size_t r = 0; r < values_.size(); ++r)
      if (demand.values_[r] > values_[r] + tolerance) return false;
    return true;
  }

  // True if all components are >= -tolerance (used by feasibility checks).
  bool NonNegative(double tolerance = 1e-9) const {
    for (const double v : values_)
      if (v < -tolerance) return false;
    return true;
  }

  bool IsZero(double tolerance = 0.0) const {
    for (const double v : values_)
      if (v > tolerance) return false;
    return true;
  }

  double Sum() const {
    double s = 0;
    for (const double v : values_) s += v;
    return s;
  }

  double MaxComponent() const {
    double m = 0;
    for (const double v : values_) m = std::max(m, v);
    return m;
  }

  // Componentwise max-update: this_r = max(this_r, other_r). Maintains the
  // stale-high class upper bounds of the online scheduler.
  void MaxWith(const ResourceVector& other) {
    TSF_DCHECK(dimension() == other.dimension());
    for (std::size_t r = 0; r < values_.size(); ++r)
      values_[r] = std::max(values_[r], other.values_[r]);
  }

  // How many (divisible) tasks of `demand` fit in this vector:
  //   min over r with demand_r > 0 of this_r / demand_r.
  // Returns +inf when demand is all-zero (callers reject such demands).
  double DivisibleTaskCount(const ResourceVector& demand) const;

  // Largest integer k with k*demand <= this (within tolerance).
  long IntegralTaskCount(const ResourceVector& demand,
                         double tolerance = 1e-9) const;

  std::string ToString(int precision = 3) const;

 private:
  std::vector<double> values_;
};

}  // namespace tsf
