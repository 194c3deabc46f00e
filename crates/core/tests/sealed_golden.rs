//! Golden bytes of every sealed format: a fleet checkpoint (`HIDWAFLT` v2),
//! a search index (`HIDWASRC` v1) and a plan-serving request and response
//! (`HIDWAPLQ` / `HIDWAPLR` v1), committed under `tests/golden/`.
//!
//! Each blob must load and re-save to exactly its golden bytes, and the
//! inputs below must still encode to them.  A failure here means a persisted
//! or wire format changed: that needs a version bump, not a new golden file.

use hidwa_core::fleet::driver::DriverFleetSpec;
use hidwa_core::fleet::{ChurnSpec, FleetCheckpoint, FleetConfig, PolicyKind};
use hidwa_core::population::{ChurnModel, PopulationModel};
use hidwa_core::search::{ObjectiveSpace, SearchCheckpoint, SearchSpec};
use hidwa_core::serve::codec::{self, RequestEnvelope, ResponseEnvelope};
use hidwa_core::serve::PlanService;
use hidwa_core::sweep::SweepRunner;
use hidwa_netsim::mac::MacPolicy;
use hidwa_phy::RadioTechnology;
use hidwa_units::TimeSpan;
use std::path::Path;

mod common;
use common::representative_requests;

fn churned_fold() -> Vec<u8> {
    FleetConfig::new(6)
        .with_population(PopulationModel::mixed_default())
        .with_base_seed(0x601D)
        .with_horizon(TimeSpan::from_seconds(0.25))
        .with_top_k(2)
        .with_churn(ChurnSpec::new(
            ChurnModel::with_rate(0.5).with_link_fade(0.8),
            PolicyKind::ReoptimizeOnChange,
        ))
        .run_until(&SweepRunner::serial(), 4)
        .save()
        .to_vec()
}

fn four_point_index() -> Vec<u8> {
    let base = DriverFleetSpec::new(2)
        .with_base_seed(11)
        .with_horizon(TimeSpan::from_seconds(0.02))
        .with_churn(ChurnSpec::new(
            ChurnModel::with_rate(0.3).with_epochs(2),
            PolicyKind::StaticAtAdmission,
        ));
    let space = ObjectiveSpace::new()
        .with_mac_axis(&[MacPolicy::Polling, MacPolicy::Tdma])
        .with_radio_axis(&[RadioTechnology::WiR, RadioTechnology::Ble]);
    let spec = SearchSpec::new(base, space);
    let runner = SweepRunner::serial();
    let mut index = SearchCheckpoint::new(&spec);
    for point in 0..spec.space().len() {
        index.record(spec.evaluation(point).run(&runner));
    }
    index.save()
}

/// The committed blob `name`, after checking its magic and version.
fn golden(name: &str, magic: &[u8; 8], version: u16) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let blob = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(&blob[..8], magic, "{name}: magic");
    assert_eq!(blob[8..10], version.to_be_bytes(), "{name}: version");
    blob
}

#[test]
fn fleet_checkpoint_v2_bytes_are_stable() {
    let blob = golden("fleet-churned.HIDWAFLT", b"HIDWAFLT", 2);
    let loaded = FleetCheckpoint::load(&blob).expect("golden fleet checkpoint loads");
    assert_eq!(
        loaded.save().to_vec(),
        blob,
        "load + save changed the bytes"
    );
    assert_eq!(
        churned_fold(),
        blob,
        "the fold no longer encodes to the golden bytes"
    );
}

#[test]
fn search_index_v1_bytes_are_stable() {
    let blob = golden("search-4pt.HIDWASRC", b"HIDWASRC", 1);
    let loaded = SearchCheckpoint::load(&blob).expect("golden search index loads");
    assert_eq!(loaded.len(), 4);
    assert_eq!(loaded.save(), blob, "load + save changed the bytes");
    assert_eq!(
        four_point_index(),
        blob,
        "the index no longer encodes to the golden bytes"
    );
}

#[test]
fn plan_request_v1_bytes_are_stable() {
    let blob = golden("plan-request.HIDWAPLQ", b"HIDWAPLQ", 1);
    let RequestEnvelope::Queries(requests) =
        codec::decode_request(&blob).expect("golden request decodes")
    else {
        panic!("golden request is not a query batch");
    };
    assert_eq!(codec::encode_requests(&requests).to_vec(), blob);
    assert_eq!(requests, representative_requests());
    assert_eq!(
        codec::encode_requests(&representative_requests()).to_vec(),
        blob
    );
}

#[test]
fn plan_response_v1_bytes_are_stable() {
    let blob = golden("plan-response.HIDWAPLR", b"HIDWAPLR", 1);
    let ResponseEnvelope::Answers(answers) =
        codec::decode_response(&blob).expect("golden response decodes")
    else {
        panic!("golden response is not an answer batch");
    };
    assert_eq!(codec::encode_responses(&answers).to_vec(), blob);
    let fresh = PlanService::new().answer_batch(&representative_requests());
    assert_eq!(fresh, answers);
    assert_eq!(codec::encode_responses(&fresh).to_vec(), blob);
}
