// Tests for thermal-network flow introspection.
#include <gtest/gtest.h>

#include "thermal/network.h"
#include "util/error.h"
#include "util/units.h"

namespace mobitherm {
namespace {

using util::ConfigError;

TEST(NetworkFlows, LinkAndAmbientFlowsBalanceAtSteadyState) {
  thermal::ThermalNetworkSpec spec;
  spec.t_ambient_k = util::kelvin(300.0);
  spec.nodes = {{"chip", util::joules_per_kelvin(0.5),
                 util::watts_per_kelvin(0.01)},
                {"board", util::joules_per_kelvin(5.0),
                 util::watts_per_kelvin(0.1)}};
  spec.links = {{0, 1, util::watts_per_kelvin(0.5)}};
  thermal::ThermalNetwork net(spec);
  const linalg::Vector power = {2.0, 0.0};
  net.set_temperatures(net.steady_state(power));

  // Chip balance: injection == link flow + ambient flow.
  EXPECT_NEAR((net.link_flow_w(0) + net.ambient_flow_w(0)).value(), 2.0,
              1e-9);
  // Board balance: link inflow == board ambient outflow.
  EXPECT_NEAR(net.link_flow_w(0).value(), net.ambient_flow_w(1).value(),
              1e-9);
  // Flow direction: chip -> board (chip is hotter).
  EXPECT_GT(net.link_flow_w(0).value(), 0.0);
  EXPECT_THROW(net.link_flow_w(1), ConfigError);
  EXPECT_THROW(net.ambient_flow_w(2), ConfigError);
}

}  // namespace
}  // namespace mobitherm
