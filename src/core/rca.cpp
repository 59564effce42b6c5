#include "core/rca.h"

#include <vector>

#include "ml/distance.h"
#include "ml/kernels.h"
#include "util/error.h"

namespace icn::core {
namespace {

/// Row sums in the canonical 4-lane order of ml::vector_sum, requiring every
/// entry non-negative and each total positive.
std::vector<double> positive_row_totals(const ml::Matrix& traffic,
                                        const char* what) {
  std::vector<double> totals(traffic.rows(), 0.0);
  for (std::size_t i = 0; i < traffic.rows(); ++i) {
    const auto row = traffic.row(i);
    for (const double v : row) {
      ICN_REQUIRE(v >= 0.0, "negative traffic entry");
    }
    totals[i] = ml::vector_sum(row);
    ICN_REQUIRE(totals[i] > 0.0, what);
  }
  return totals;
}

/// Per-service share of total traffic (the RCA denominator). Column sums
/// accumulate row-by-row element-wise; the grand total then sums the
/// per-service sums in the canonical order.
std::vector<double> service_shares(const ml::Matrix& traffic) {
  std::vector<double> shares(traffic.cols(), 0.0);
  for (std::size_t i = 0; i < traffic.rows(); ++i) {
    const auto row = traffic.row(i);
    for (std::size_t j = 0; j < traffic.cols(); ++j) {
      shares[j] += row[j];
    }
  }
  const double total = ml::vector_sum(shares);
  ICN_REQUIRE(total > 0.0, "network carried no traffic");
  for (auto& s : shares) s /= total;
  return shares;
}

/// RCA against an explicit per-service baseline share vector.
ml::Matrix rca_against_baseline(const ml::Matrix& traffic,
                                const std::vector<double>& baseline_share) {
  const auto row_totals =
      positive_row_totals(traffic, "antenna with zero traffic");
  ml::Matrix rca(traffic.rows(), traffic.cols());
  for (std::size_t i = 0; i < traffic.rows(); ++i) {
    for (std::size_t j = 0; j < traffic.cols(); ++j) {
      if (baseline_share[j] <= 0.0) {
        rca(i, j) = 1.0;  // service unseen in the baseline: neutral
      } else {
        rca(i, j) = (traffic(i, j) / row_totals[i]) / baseline_share[j];
      }
    }
  }
  return rca;
}

/// Fused traffic -> RSCA against an explicit baseline: RCA = (t/T)/s and
/// RSCA = (RCA-1)/(RCA+1) collapse to (t - T*s)/(t + T*s), one divide per
/// element through ml::rsca_row. Services with s <= 0 land on 0.0, matching
/// RCA = 1 through the unfused path.
ml::Matrix rsca_against_baseline(const ml::Matrix& traffic,
                                 const std::vector<double>& baseline_share) {
  const auto row_totals =
      positive_row_totals(traffic, "antenna with zero traffic");
  ml::Matrix rsca(traffic.rows(), traffic.cols());
  for (std::size_t i = 0; i < traffic.rows(); ++i) {
    ml::rsca_row(traffic.row(i), baseline_share, row_totals[i], rsca.row(i));
  }
  return rsca;
}

}  // namespace

ml::Matrix compute_rca(const ml::Matrix& traffic) {
  ICN_REQUIRE(!traffic.empty(), "empty traffic matrix");
  return rca_against_baseline(traffic, service_shares(traffic));
}

ml::Matrix rca_to_rsca(const ml::Matrix& rca) {
  ml::Matrix rsca(rca.rows(), rca.cols());
  const auto in = rca.data();
  const auto out = rsca.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    ICN_REQUIRE(in[i] >= 0.0, "negative RCA");
    out[i] = (in[i] - 1.0) / (in[i] + 1.0);
  }
  return rsca;
}

ml::Matrix compute_rsca(const ml::Matrix& traffic) {
  ICN_REQUIRE(!traffic.empty(), "empty traffic matrix");
  return rsca_against_baseline(traffic, service_shares(traffic));
}

ml::Matrix compute_outdoor_rca(const ml::Matrix& outdoor_traffic,
                               const ml::Matrix& indoor_traffic) {
  ICN_REQUIRE(!outdoor_traffic.empty() && !indoor_traffic.empty(),
              "empty traffic matrix");
  ICN_REQUIRE(outdoor_traffic.cols() == indoor_traffic.cols(),
              "service dimensions differ");
  return rca_against_baseline(outdoor_traffic,
                              service_shares(indoor_traffic));
}

ml::Matrix compute_outdoor_rsca(const ml::Matrix& outdoor_traffic,
                                const ml::Matrix& indoor_traffic) {
  ICN_REQUIRE(!outdoor_traffic.empty() && !indoor_traffic.empty(),
              "empty traffic matrix");
  ICN_REQUIRE(outdoor_traffic.cols() == indoor_traffic.cols(),
              "service dimensions differ");
  return rsca_against_baseline(outdoor_traffic,
                               service_shares(indoor_traffic));
}

}  // namespace icn::core
