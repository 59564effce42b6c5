// Reference implementation of the Ward nearest-neighbour chain, kept as the
// parity baseline for src/ml/linkage.cpp: every nearest-neighbour scan walks
// all N slots, skips the dead ones and calls the single-pair distance kernel.
// The production chain, which scans a dense array of the live clusters with
// the x4 row kernel, must reproduce its merges bit for bit.
#pragma once

#include "ml/linkage.h"
#include "ml/matrix.h"

namespace icn::ml::reference {

/// Ward hierarchy of x's rows by the slot-scan NN-chain. Same contract as
/// agglomerative_cluster(x, Linkage::kWard).
Dendrogram ward_slot_scan(const Matrix& x);

}  // namespace icn::ml::reference
