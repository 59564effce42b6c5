// Runtime-dispatched element/row kernels for the RSCA transform and the
// silhouette/Dunn inner loops.
//
// These extend the dispatch contract of ml/distance.h to the remaining
// analysis hot paths:
//
//   - rsca_row: the fused RSCA transform. With row total T and baseline
//     share s_j, RCA = (t_j/T)/s_j and RSCA = (RCA-1)/(RCA+1) algebraically
//     collapse to (t_j - T*s_j) / (t_j + T*s_j) — one divide per element
//     instead of three. Services unseen in the baseline (s_j <= 0) map to
//     0.0 (the neutral RCA = 1 of the unfused path).
//   - rsca_map: element-wise (v-1)/(v+1), the standalone RCA->RSCA map.
//   - labeled_sums: per-cluster sums of a distance segment, the silhouette
//     a/b building block.
//   - labeled_extrema: masked min/max of a distance segment split by
//     same-label vs cross-label, the Dunn building block.
//
// Determinism: rsca_row and rsca_map are purely element-wise (every output
// element is a fixed expression of the corresponding inputs), so both lanes
// produce identical bits by IEEE semantics alone. labeled_sums accumulates
// per cluster in the canonical 4-lane order of ml/distance.h, with the
// conditional add defined as `acc += (label == c ? d : 0.0)` per lane slot.
// labeled_extrema uses `acc = (acc < x) ? x : acc` / `(x < acc) ? x : acc`
// per lane slot (NaN keeps the accumulator, like the scalar comparison) and
// combines lanes as (l0 op l2) op (l1 op l3). The scalar and AVX2 lanes are
// byte-identical.
#pragma once

#include <cstddef>
#include <span>

namespace icn::ml {

/// Fused RSCA transform of one traffic row: out[j] = (t[j] - T*s[j]) /
/// (t[j] + T*s[j]), or 0.0 where s[j] <= 0. Requires equal extents.
void rsca_row(std::span<const double> traffic, std::span<const double> shares,
              double row_total, std::span<double> out);

/// Element-wise RCA -> RSCA map: out[i] = (v[i]-1)/(v[i]+1). The caller
/// validates non-negativity (see core/rca.cpp). Requires equal extents.
void rsca_map(std::span<const double> rca, std::span<double> out);

/// sums[c] += sum of d[j] where labels[j] == c, for each c in [0, k), in the
/// canonical 4-lane order. labels[j] must be in [0, k). Requires
/// labels.size() == d.size().
void labeled_sums(std::span<const double> d, std::span<const int> labels,
                  std::size_t k, double* sums);

/// Folds a distance segment into running extrema: elements with
/// labels[j] == own update *max_diam (same-cluster diameter), the rest
/// update *min_inter (cross-cluster separation). Requires equal extents.
void labeled_extrema(std::span<const double> d, std::span<const int> labels,
                     int own, double* min_inter, double* max_diam);

namespace detail {

// Per-level kernels, exposed for the bit-parity suites and SIMD benches. The
// avx2 kernels must only run on AVX2 hardware; on non-x86 builds they alias
// the scalar kernels.
void rsca_row_scalar(const double* t, const double* s, double total,
                     std::size_t n, double* out);
void rsca_row_avx2(const double* t, const double* s, double total,
                   std::size_t n, double* out);

void rsca_map_scalar(const double* v, std::size_t n, double* out);
void rsca_map_avx2(const double* v, std::size_t n, double* out);

void labeled_sums_scalar(const double* d, const int* labels, std::size_t n,
                         std::size_t k, double* sums);
void labeled_sums_avx2(const double* d, const int* labels, std::size_t n,
                       std::size_t k, double* sums);

void labeled_extrema_scalar(const double* d, const int* labels, int own,
                            std::size_t n, double* min_inter,
                            double* max_diam);
void labeled_extrema_avx2(const double* d, const int* labels, int own,
                          std::size_t n, double* min_inter, double* max_diam);

}  // namespace detail

}  // namespace icn::ml
