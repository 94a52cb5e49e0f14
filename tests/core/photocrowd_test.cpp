#include "core/photocrowd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "test_util.h"

namespace photodtn {
namespace {

using test::make_poi;
using test::photo_viewing;

PhotoCrowdTask simple_task() {
  return PhotoCrowdTask{{make_poi(0.0, 0.0, 0), make_poi(2000.0, 0.0, 1)},
                        deg_to_rad(30.0), 48.0 * 3600.0};
}

TEST(PhotoCrowdTask, CoverageOfCollection) {
  const PhotoCrowdTask task = simple_task();
  std::vector<PhotoMeta> photos{photo_viewing(task.model().pois()[0], 0.0),
                                photo_viewing(task.model().pois()[0], 180.0)};
  const CoverageValue c = task.coverage(photos);
  EXPECT_DOUBLE_EQ(c.point, 1.0);
  EXPECT_NEAR(c.aspect, deg_to_rad(120.0), 1e-9);
  const auto [pt, as] = task.normalized_coverage(photos);
  EXPECT_DOUBLE_EQ(pt, 0.5);  // 1 of 2 PoIs
  EXPECT_NEAR(as, deg_to_rad(60.0), 1e-9);
}

TEST(PhotoCrowdTask, RelevanceFilter) {
  const PhotoCrowdTask task = simple_task();
  EXPECT_TRUE(task.is_relevant(photo_viewing(task.model().pois()[1], 90.0)));
  EXPECT_FALSE(task.is_relevant(test::make_photo(4000.0, 4000.0, 0.0)));
  EXPECT_DOUBLE_EQ(task.deadline(), 48.0 * 3600.0);
}

TEST(DeviceAgent, SelectStorageKeepsValuablePhotos) {
  const PhotoCrowdTask task = simple_task();
  DeviceAgent agent(task, /*self=*/1, /*storage=*/2 * 4'000'000);
  test::reset_photo_ids();
  std::vector<PhotoMeta> pool{
      photo_viewing(task.model().pois()[0], 0.0),
      photo_viewing(task.model().pois()[0], 1.0),    // near-duplicate
      photo_viewing(task.model().pois()[1], 90.0)};  // second PoI
  const auto keep = agent.select_storage(pool, 0.5, /*now=*/0.0);
  ASSERT_EQ(keep.size(), 2u);
  // Must keep one photo per PoI, not the duplicate pair.
  EXPECT_NE(std::find(keep.begin(), keep.end(), pool[2].id), keep.end());
}

TEST(DeviceAgent, LearnedCenterMetadataActsAsAck) {
  const PhotoCrowdTask task = simple_task();
  DeviceAgent agent(task, 1, 10 * 4'000'000);
  const PhotoMeta view = photo_viewing(task.model().pois()[0], 0.0);
  MetadataEntry center;
  center.owner = kCommandCenter;
  center.snapshot = std::make_shared<const MetadataSnapshot>(std::vector<PhotoMeta>{view});
  center.observed_at = 10.0;
  agent.learn_metadata(center);
  // The same view is now worthless; a distinct view is still selected.
  PhotoMeta other = photo_viewing(task.model().pois()[0], 180.0);
  const auto keep = agent.select_storage(std::vector<PhotoMeta>{view, other}, 0.9, 20.0);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], other.id);
}

TEST(DeviceAgent, RefusesOwnMetadata) {
  const PhotoCrowdTask task = simple_task();
  DeviceAgent agent(task, 1, 4'000'000);
  MetadataEntry self_entry;
  self_entry.owner = 1;
  EXPECT_THROW(agent.learn_metadata(self_entry), std::logic_error);
}

TEST(DeviceAgent, PlanContactSplitsViewsAcrossPeers) {
  const PhotoCrowdTask task = simple_task();
  DeviceAgent agent(task, 1, 2 * 4'000'000);
  test::reset_photo_ids();
  const PhotoMeta mine = photo_viewing(task.model().pois()[0], 0.0);
  const PhotoMeta theirs1 = photo_viewing(task.model().pois()[0], 180.0);
  const PhotoMeta theirs2 = photo_viewing(task.model().pois()[1], 0.0);
  PeerView peer;
  peer.id = 2;
  peer.delivery_prob = 0.2;
  peer.photos = {theirs1, theirs2};
  peer.storage_bytes = 2 * 4'000'000;
  const ContactDecision d =
      agent.plan_contact(std::vector<PhotoMeta>{mine}, /*own_p=*/0.8, peer, 0.0);
  EXPECT_EQ(d.keep_in_order.size(), 2u);
  // Everything we keep that we don't own must be fetched.
  for (const PhotoId id : d.fetch_from_peer)
    EXPECT_NE(std::find(d.keep_in_order.begin(), d.keep_in_order.end(), id),
              d.keep_in_order.end());
  EXPECT_FALSE(d.fetch_from_peer.empty());
}

TEST(DeviceAgent, CacheValidityExpires) {
  const PhotoCrowdTask task = simple_task();
  DeviceAgent agent(task, 1, 4'000'000, /*p_thld=*/0.8);
  MetadataEntry e;
  e.owner = 2;
  e.observed_at = 0.0;
  e.lambda = 0.01;  // invalid after ~161 s
  e.delivery_prob = 0.9;
  e.snapshot = std::make_shared<const MetadataSnapshot>(
      std::vector<PhotoMeta>{photo_viewing(task.model().pois()[0], 0.0)});
  agent.learn_metadata(e);
  EXPECT_EQ(agent.cache().valid_entries(100.0).size(), 1u);
  EXPECT_TRUE(agent.cache().valid_entries(500.0).empty());
}

}  // namespace
}  // namespace photodtn
