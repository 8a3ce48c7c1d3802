#include "dbm/dbm.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/hash.h"

#include "common/error.h"

namespace quanta::dbm {

std::string bound_to_string(raw_t raw) {
  if (raw >= kInf) return "<inf";
  std::ostringstream os;
  os << (bound_is_strict(raw) ? "<" : "<=") << bound_value(raw);
  return os.str();
}

Dbm::Dbm(int dim) : dim_(dim), m_(static_cast<std::size_t>(dim) * dim, kLeZero) {
  if (dim < 1) {
    throw std::invalid_argument(quanta::context(
        "dbm", "dimension must be >= 1 (clock 0 is the reference), got ",
        dim));
  }
}

Dbm Dbm::zero(int dim) {
  Dbm d(dim);  // all entries <=0: exactly the origin
  return d;
}

Dbm Dbm::universal(int dim) {
  Dbm d(dim);
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      if (i == j || i == 0) {
        d.set(i, j, kLeZero);  // diagonal and non-negativity row
      } else {
        d.set(i, j, kInf);
      }
    }
  }
  return d;
}

bool Dbm::close() {
  // Floyd-Warshall over raw row pointers. The inner loop is bound_add (row
  // i's entry is finite there) and a min, written as selects so it has no
  // branch and GCC vectorizes it. Step j reads rk[j] and ri[j] and writes
  // only ri[j], so the steps are independent even when i == k (one row):
  // the result is bit-identical to the textbook loop.
  const auto n = static_cast<std::size_t>(dim_);
  raw_t* const m = m_.data();
  for (std::size_t k = 0; k < n; ++k) {
    const raw_t* const rk = m + k * n;
    for (std::size_t i = 0; i < n; ++i) {
      raw_t* const ri = m + i * n;
      const raw_t dik = ri[k];
      if (dik >= kInf) continue;
      const raw_t vik = bound_value(dik);
      for (std::size_t j = 0; j < n; ++j) {
        const raw_t dkj = rk[j];
        const raw_t sum = static_cast<raw_t>(
            ((vik + bound_value(dkj)) << 1) | (dik & dkj & 1));
        const raw_t via = dkj >= kInf ? kInf : sum;
        ri[j] = via < ri[j] ? via : ri[j];
      }
    }
    if (rk[k] < kLeZero) {
      set(0, 0, bound_lt(-1));  // canonical "empty" marker
      return false;
    }
  }
  return true;
}

bool Dbm::is_empty() const { return at(0, 0) < kLeZero; }

bool Dbm::constrain(int i, int j, raw_t bound) {
  if (is_empty()) return false;
  if (bound_add(at(j, i), bound) < kLeZero) {
    set(0, 0, bound_lt(-1));
    return false;
  }
  if (bound < at(i, j)) {
    set(i, j, bound);
    // Incremental re-canonicalization through the touched entry.
    for (int a = 0; a < dim_; ++a) {
      raw_t dai = at(a, i);
      if (dai >= kInf) continue;
      raw_t via_i = bound_add(dai, bound);
      if (via_i >= kInf) continue;
      for (int b = 0; b < dim_; ++b) {
        raw_t via = bound_add(via_i, at(j, b));
        if (via < at(a, b)) set(a, b, via);
      }
    }
  }
  return true;
}

bool Dbm::satisfies(int i, int j, raw_t bound) const {
  if (is_empty()) return false;
  return bound_add(at(j, i), bound) >= kLeZero;
}

void Dbm::up() {
  if (is_empty()) return;
  for (int i = 1; i < dim_; ++i) set(i, 0, kInf);
}

void Dbm::down() {
  if (is_empty()) return;
  for (int j = 1; j < dim_; ++j) {
    raw_t lo = kLeZero;  // clocks are non-negative
    for (int i = 1; i < dim_; ++i) {
      // After letting time pass backwards, the lower bound of x_j is limited
      // by the diagonal constraints x_i - x_j.
      lo = std::min(lo, at(i, j));
    }
    set(0, j, lo);
  }
}

void Dbm::reset(int clock, std::int32_t value) {
  if (is_empty()) return;
  for (int j = 0; j < dim_; ++j) {
    set(clock, j, bound_add(bound_le(value), at(0, j)));
    set(j, clock, bound_add(at(j, 0), bound_le(-value)));
  }
  set(clock, clock, kLeZero);
}

void Dbm::free_clock(int clock) {
  if (is_empty()) return;
  for (int j = 0; j < dim_; ++j) {
    if (j == clock) continue;
    set(clock, j, kInf);
    set(j, clock, at(j, 0));
  }
  set(clock, 0, kInf);
  set(0, clock, kLeZero);
}

void Dbm::copy_clock(int dst, int src) {
  if (is_empty() || dst == src) return;
  for (int j = 0; j < dim_; ++j) {
    if (j == dst) continue;
    set(dst, j, at(src, j));
    set(j, dst, at(j, src));
  }
  set(dst, src, kLeZero);
  set(src, dst, kLeZero);
  set(dst, dst, kLeZero);
}

namespace {

/// The one relation algorithm, over raw matrices: Dbm-vs-Dbm, Dbm-vs-view
/// and view-vs-view all funnel here so pooled comparisons are bit-identical
/// to owning ones.
Relation relation_raw(int dim, const raw_t* a, const raw_t* b) {
  const std::size_t n = static_cast<std::size_t>(dim) * static_cast<std::size_t>(dim);
  const bool a_empty = a[0] < kLeZero;
  const bool b_empty = b[0] < kLeZero;
  if (a_empty && b_empty) return Relation::kEqual;
  if (a_empty) return Relation::kSubset;
  if (b_empty) return Relation::kSuperset;
  bool le = true, ge = true;
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (a[idx] > b[idx]) le = false;
    if (a[idx] < b[idx]) ge = false;
    if (!le && !ge) return Relation::kDifferent;
  }
  if (le && ge) return Relation::kEqual;
  return le ? Relation::kSubset : Relation::kSuperset;
}

}  // namespace

Relation Dbm::relation(const Dbm& other) const {
  if (dim_ != other.dim_) {
    throw std::invalid_argument(quanta::context(
        "dbm", "Dbm::relation: dimension mismatch (", dim_, " vs ",
        other.dim_, ")"));
  }
  return relation_raw(dim_, m_.data(), other.m_.data());
}

Relation Dbm::relation(const DbmView& other) const {
  if (dim_ != other.dim()) {
    throw std::invalid_argument(quanta::context(
        "dbm", "Dbm::relation: dimension mismatch (", dim_, " vs ",
        other.dim(), ")"));
  }
  return relation_raw(dim_, m_.data(), other.data());
}

Relation DbmView::relation(const DbmView& other) const {
  if (dim_ != other.dim_) {
    throw std::invalid_argument(quanta::context(
        "dbm", "DbmView::relation: dimension mismatch (", dim_, " vs ",
        other.dim_, ")"));
  }
  return relation_raw(dim_, m_, other.m_);
}

bool DbmView::equal(const DbmView& other) const {
  if (dim_ != other.dim_) return false;
  const std::size_t n = static_cast<std::size_t>(dim_) * static_cast<std::size_t>(dim_);
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (m_[idx] != other.m_[idx]) return false;
  }
  return true;
}

Dbm Dbm::from_raw(int dim, const raw_t* data) {
  Dbm d(dim);
  d.assign_raw(dim, data);
  return d;
}

void Dbm::assign_raw(int dim, const raw_t* data) {
  dim_ = dim;
  const std::size_t n = static_cast<std::size_t>(dim) * static_cast<std::size_t>(dim);
  m_.assign(data, data + n);
}

bool Dbm::subset_eq(const Dbm& other) const {
  Relation r = relation(other);
  return r == Relation::kEqual || r == Relation::kSubset;
}

bool Dbm::intersects(const Dbm& other) const {
  Dbm tmp = *this;
  return tmp.intersect(other);
}

bool Dbm::intersect(const Dbm& other) {
  if (dim_ != other.dim_) {
    throw std::invalid_argument(quanta::context(
        "dbm", "Dbm::intersect: dimension mismatch (", dim_, " vs ",
        other.dim_, ")"));
  }
  if (is_empty()) return false;
  if (other.is_empty()) {
    set(0, 0, bound_lt(-1));
    return false;
  }
  for (int i = 0; i < dim_; ++i) {
    for (int j = 0; j < dim_; ++j) {
      if (other.at(i, j) < at(i, j)) {
        if (!constrain(i, j, other.at(i, j))) return false;
      }
    }
  }
  return true;
}

void Dbm::extrapolate_max_bounds(const std::vector<std::int32_t>& k) {
  if (is_empty()) return;
  if (static_cast<int>(k.size()) != dim_) {
    throw std::invalid_argument(quanta::context(
        "dbm", "extrapolate_max_bounds: expected ", dim_,
        " constants (one per clock incl. the reference), got ", k.size()));
  }
  bool changed = false;
  for (int i = 0; i < dim_; ++i) {
    for (int j = 0; j < dim_; ++j) {
      if (i == j) continue;
      raw_t b = at(i, j);
      if (b >= kInf) continue;
      if (i != 0 && bound_value(b) > k[i]) {
        set(i, j, kInf);
        changed = true;
      } else if (-bound_value(b) > k[j]) {
        set(i, j, bound_lt(-k[j]));
        changed = true;
      }
    }
  }
  if (changed) close();
}

bool Dbm::contains_point(const std::vector<double>& v) const {
  if (is_empty()) return false;
  if (static_cast<int>(v.size()) != dim_) {
    throw std::invalid_argument(quanta::context(
        "dbm", "contains_point: point has ", v.size(),
        " coordinates but the DBM has ", dim_, " clocks"));
  }
  constexpr double kTol = 1e-9;
  for (int i = 0; i < dim_; ++i) {
    for (int j = 0; j < dim_; ++j) {
      raw_t b = at(i, j);
      if (b >= kInf) continue;
      double diff = v[i] - v[j];
      double m = bound_value(b);
      if (bound_is_strict(b) ? diff >= m - kTol : diff > m + kTol) return false;
    }
  }
  return true;
}

std::size_t Dbm::hash() const { return common::hash_vector(m_); }

std::string Dbm::to_string() const {
  if (is_empty()) return "<empty>";
  std::ostringstream os;
  for (int i = 0; i < dim_; ++i) {
    for (int j = 0; j < dim_; ++j) {
      if (i == j || (at(i, j) >= kInf)) continue;
      if (i == 0 && at(i, j) == kLeZero) continue;  // trivial non-negativity
      os << "x" << i << "-x" << j << bound_to_string(at(i, j)) << "; ";
    }
  }
  std::string s = os.str();
  return s.empty() ? "<universal>" : s;
}

}  // namespace quanta::dbm
