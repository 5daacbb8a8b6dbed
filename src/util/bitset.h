// DynamicBitset: a fixed-size-at-construction bitset sized at run time.
//
// Used for job→machine eligibility masks (thousands of machines per job),
// where std::bitset's compile-time size does not fit and std::vector<bool>
// lacks word-level operations (count, intersects, iterate-set-bits).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace tsf {

class DynamicBitset {
 public:
  DynamicBitset() = default;

  // All bits start clear.
  explicit DynamicBitset(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Changes the size to `size` bits; bits gained start clear. Growing one
  // bit at a time costs amortized O(1).
  void Resize(std::size_t size) {
    size_ = size;
    words_.resize((size + 63) / 64, 0);
    ClearPadding();
  }

  bool Test(std::size_t i) const {
    TSF_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(std::size_t i) {
    TSF_DCHECK(i < size_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  void Reset(std::size_t i) {
    TSF_DCHECK(i < size_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void Assign(std::size_t i, bool value) { value ? Set(i) : Reset(i); }

  void SetAll() {
    for (auto& w : words_) w = ~std::uint64_t{0};
    ClearPadding();
  }

  void ResetAll() {
    for (auto& w : words_) w = 0;
  }

  // Number of set bits.
  std::size_t Count() const {
    std::size_t n = 0;
    for (const auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  bool Any() const {
    for (const auto w : words_)
      if (w != 0) return true;
    return false;
  }

  bool None() const { return !Any(); }
  bool All() const { return Count() == size_; }

  // True if this and other share at least one set bit.
  bool Intersects(const DynamicBitset& other) const {
    TSF_DCHECK(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if ((words_[i] & other.words_[i]) != 0) return true;
    return false;
  }

  // Number of bits set in both this and other (popcount of the AND, without
  // materializing it).
  std::size_t CountAnd(const DynamicBitset& other) const {
    TSF_DCHECK(size_ == other.size_);
    std::size_t n = 0;
    for (std::size_t i = 0; i < words_.size(); ++i)
      n += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
    return n;
  }

  DynamicBitset& operator&=(const DynamicBitset& other) {
    TSF_DCHECK(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  // ANDs with `prefix`, a bitset no longer than this one whose bits past
  // its end count as clear.
  DynamicBitset& AndPrefix(const DynamicBitset& prefix) {
    TSF_DCHECK(prefix.size_ <= size_);
    const std::size_t common = prefix.words_.size();
    for (std::size_t i = 0; i < common; ++i) words_[i] &= prefix.words_[i];
    for (std::size_t i = common; i < words_.size(); ++i) words_[i] = 0;
    return *this;
  }

  DynamicBitset& operator|=(const DynamicBitset& other) {
    TSF_DCHECK(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }
  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  // Calls fn(index) for every set bit, in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        fn(wi * 64 + static_cast<std::size_t>(bit));
        w &= w - 1;
      }
    }
  }

  // Calls fn(index) for set bits in ascending order until fn returns true
  // (stop) or the bits run out. Returns true iff fn stopped the iteration.
  template <typename Fn>
  bool ForEachSetUntil(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        if (fn(wi * 64 + static_cast<std::size_t>(bit))) return true;
        w &= w - 1;
      }
    }
    return false;
  }

  // Index of the first set bit, or size() if none.
  std::size_t FindFirst() const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi)
      if (words_[wi] != 0)
        return wi * 64 + static_cast<std::size_t>(std::countr_zero(words_[wi]));
    return size_;
  }

  // Index of the first bit set in both this and other, or size() if none
  // (FindFirst of the AND, without materializing it).
  std::size_t FindFirstAnd(const DynamicBitset& other) const {
    TSF_DCHECK(size_ == other.size_);
    for (std::size_t wi = 0; wi < words_.size(); ++wi)
      if (const std::uint64_t w = words_[wi] & other.words_[wi]; w != 0)
        return wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
    return size_;
  }

  // Index of the first set bit >= from, or size() if none. Lets callers keep
  // a resumable cursor over the set bits without materializing them.
  std::size_t FindNextSet(std::size_t from) const {
    if (from >= size_) return size_;
    std::size_t wi = from >> 6;
    std::uint64_t w = words_[wi] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
      if (w != 0)
        return wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
      if (++wi == words_.size()) return size_;
      w = words_[wi];
    }
  }

 private:
  // SetAll may set bits beyond size_ in the last word; clear them so Count
  // and comparisons stay exact.
  void ClearPadding() {
    const std::size_t tail = size_ & 63;
    if (tail != 0 && !words_.empty())
      words_.back() &= (std::uint64_t{1} << tail) - 1;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace tsf
