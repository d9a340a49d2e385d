//! Dumps the GRNET case-study trace to stdout (fixture authoring aid).

use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_obs::JsonlWriter;
use vod_workload::scenario::Scenario;

fn main() {
    let scenario = Scenario::grnet_case_study(42);
    let sink = JsonlWriter::new(Vec::new());
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
        sink,
    );
    let (_, sink) = service.run_full();
    let text = String::from_utf8(sink.into_inner()).unwrap_or_default();
    print!("{text}");
}
