#include "core/export.h"

#include <ostream>
#include <sstream>

#include "util/csv.h"
#include "util/error.h"

namespace icn::core {
namespace {

std::string fmt(double v) {
  std::ostringstream ss;
  ss.precision(10);
  ss << v;
  return ss.str();
}

}  // namespace

void export_rsca_csv(std::ostream& out, const Scenario& scenario,
                     const ml::Matrix& rsca, std::span<const int> labels) {
  const auto& indoor = scenario.topology().indoor();
  ICN_REQUIRE(rsca.rows() == indoor.size() && labels.size() == indoor.size(),
              "export shapes");
  icn::util::CsvWriter writer(out);
  icn::util::CsvRow header = {"antenna_id", "name",    "environment",
                              "city",       "site_id", "cluster",
                              "archetype",  "total_mb"};
  for (std::size_t j = 0; j < scenario.num_services(); ++j) {
    header.push_back("rsca:" + std::string(scenario.catalog().at(j).name));
  }
  writer.write_row(header);
  const auto& profiles = scenario.demand().profiles();
  for (std::size_t i = 0; i < indoor.size(); ++i) {
    icn::util::CsvRow row = {
        std::to_string(indoor[i].id),
        indoor[i].name,
        net::environment_name(indoor[i].environment),
        net::city_name(indoor[i].city),
        std::to_string(indoor[i].site_id),
        std::to_string(labels[i]),
        std::to_string(profiles[i].archetype),
        fmt(profiles[i].total_mb),
    };
    for (std::size_t j = 0; j < rsca.cols(); ++j) {
      row.push_back(fmt(rsca(i, j)));
    }
    writer.write_row(row);
  }
}

void export_traffic_csv(std::ostream& out, const Scenario& scenario) {
  const auto& indoor = scenario.topology().indoor();
  const auto& traffic = scenario.demand().traffic_matrix();
  icn::util::CsvWriter writer(out);
  icn::util::CsvRow header = {"antenna_id"};
  for (std::size_t j = 0; j < scenario.num_services(); ++j) {
    header.push_back(std::string(scenario.catalog().at(j).name));
  }
  writer.write_row(header);
  for (std::size_t i = 0; i < indoor.size(); ++i) {
    icn::util::CsvRow row = {std::to_string(indoor[i].id)};
    for (std::size_t j = 0; j < traffic.cols(); ++j) {
      row.push_back(fmt(traffic(i, j)));
    }
    writer.write_row(row);
  }
}

}  // namespace icn::core
