// Quickstart: the photodtn public API in five minutes.
//
//  1. A command center issues a crowdsourcing task: a PoI list + model
//     parameters (PhotoCrowdTask).
//  2. Photos are metadata tuples (location, range, field-of-view,
//     orientation) — evaluate the coverage of any collection.
//  3. Devices run the Section III selection logic through DeviceAgent:
//     which photos to keep, which to fetch from a contact peer.
//
// Build & run:  ./quickstart
#include <cstdio>
#include <memory>

#include "core/photocrowd.h"
#include "geometry/angle.h"

using namespace photodtn;

namespace {

/// A photo standing `dist` meters from `poi` in compass direction `dir_deg`
/// (degrees, 0 = east), looking straight at it.
PhotoMeta snap(PhotoId id, NodeId who, const PointOfInterest& poi, double dir_deg,
               double dist = 100.0) {
  PhotoMeta p;
  p.id = id;
  p.taken_by = who;
  const double dir = deg_to_rad(dir_deg);
  p.location = poi.location + Vec2::from_heading(dir) * dist;
  p.orientation = normalize_angle(dir + std::numbers::pi);  // look back at the PoI
  p.fov = deg_to_rad(60.0);
  p.range = coverage_range_from_fov(p.fov, 100.0);  // r = c*cot(fov/2), c=100m
  p.size_bytes = 4'000'000;
  return p;
}

}  // namespace

int main() {
  // ---- 1. The command center issues a task: two damaged buildings.
  const PoiList pois{{0, {500.0, 500.0}, 1.0, nullptr},      // city hall
                     {1, {1200.0, 800.0}, 2.0, nullptr}};    // hospital, double weight
  const PhotoCrowdTask task(pois, /*effective angle theta=*/deg_to_rad(30.0),
                            /*deadline=*/48.0 * 3600.0);
  std::printf("Task issued: %zu PoIs, theta=30deg, deadline=%.0fh\n",
              task.model().pois().size(), task.deadline() / 3600.0);

  // ---- 2. Photo coverage of a collection (Definition 1).
  const std::vector<PhotoMeta> photos{
      snap(1, 1, pois[0], 0.0),     // city hall from the east
      snap(2, 1, pois[0], 10.0),    // nearly the same view — mostly redundant
      snap(3, 1, pois[0], 180.0),   // city hall from the west
      snap(4, 1, pois[1], 90.0)};   // hospital from the north
  const CoverageValue c = task.coverage(photos);
  std::printf("Collection coverage: point=%.1f (of %.1f weight), aspect=%.1f deg\n",
              c.point, 3.0, rad_to_deg(c.aspect));
  std::printf("Photo 2 relevant? %s  A photo of nothing relevant? %s\n",
              task.is_relevant(photos[1]) ? "yes" : "no",
              task.is_relevant(snap(99, 1, {2, {9000.0, 9000.0}, 1.0, nullptr}, 0.0)) ? "yes"
                                                                             : "no");

  // ---- 3. On-device selection: keep the best photos under a storage cap.
  DeviceAgent alice(task, /*node id=*/1, /*storage=*/2 * 4'000'000);
  const std::vector<PhotoId> keep =
      alice.select_storage(photos, /*own delivery prob=*/0.6, /*now=*/0.0);
  std::printf("Alice keeps %zu of %zu photos under a 2-photo budget:", keep.size(),
              photos.size());
  for (const PhotoId id : keep) std::printf(" #%llu", (unsigned long long)id);
  std::printf("   (the near-duplicate was not worth a slot)\n");

  // ---- 4. A contact: Bob carries different views; plan the exchange.
  PeerView bob;
  bob.id = 2;
  bob.delivery_prob = 0.2;
  bob.photos = {snap(10, 2, pois[0], 90.0), snap(11, 2, pois[1], 270.0)};
  bob.storage_bytes = 2 * 4'000'000;
  const ContactDecision d = alice.plan_contact(photos, 0.6, bob, /*now=*/60.0);
  std::printf("Meeting Bob: Alice should hold %zu photos and fetch %zu from Bob.\n",
              d.keep_in_order.size(), d.fetch_from_peer.size());

  // ---- 5. Acknowledgments: once the center has a view, it stops mattering.
  MetadataEntry ack;
  ack.owner = kCommandCenter;
  // The center's snapshot: built once, shared by whoever caches it.
  ack.snapshot = std::make_shared<const MetadataSnapshot>(std::vector<PhotoMeta>{photos[0]});
  ack.observed_at = 120.0;
  alice.learn_metadata(ack);
  const std::vector<PhotoId> keep2 = alice.select_storage(photos, 0.6, 130.0);
  std::printf("After the center acknowledges photo #1, Alice keeps:");
  for (const PhotoId id : keep2) std::printf(" #%llu", (unsigned long long)id);
  std::printf("\n");
  return 0;
}
