#include "serve/kv_tracker.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "core/config.hpp"

namespace edgemm::serve {
namespace {

TEST(ChipKvCapacity, ScalesWithMcClustersAndOversubscription) {
  const core::ChipConfig cfg = core::default_chip_config();
  const Bytes base = chip_kv_capacity(cfg);
  EXPECT_EQ(base, cfg.total_mc_clusters() * cfg.mc_cluster_cim_bytes());
  EXPECT_EQ(chip_kv_capacity(cfg, 2.0), 2 * base);
  EXPECT_THROW(chip_kv_capacity(cfg, 0.0), std::invalid_argument);
  EXPECT_THROW(chip_kv_capacity(cfg, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace edgemm::serve
